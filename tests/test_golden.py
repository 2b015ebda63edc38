"""Golden digests: refactors must reproduce the logs and files byte for byte.

Each run-log digest is the SHA-256 of ``ScenarioLog.to_csv()`` for a 6 s
run at the default seed, measured on Python 3.11.7 with numpy 2.4.6 (600
rows each).  A mismatch means the change altered the simulated
trajectory, the controller's schedule, the noise stream or the CSV
format.  The metrics digests cover ``Metrics.to_json()`` of 12 s circle
and star runs, whose ``latency_s`` comes from a cross-correlation summed
in a fixed order.  The correlation's screen, an FFT, only chooses which
lags get the fixed-order sums; no BLAS or FFT value reaches the run log
or the metrics, so neither depends on which OpenBLAS kernel numpy loads.
``test_log_digests_hold_on_every_openblas_kernel`` checks both on every
kernel this CPU can run.

The default config file, ``Config().to_text()``, is pinned too: its keys,
their order, the defaults and the ``%.17g`` value format.

The sysid digests cover the bench CSV written by ``tailsim sysid synth``
(12 x 13 grid, 5 % noise, seed 1) and the ``sysid fit --intercept`` file
made from it: the synthetic model, its noise stream, the ``%.17g`` CSV
format and the least-squares fit.  The fit goes through LAPACK, so the
fit-file digest holds only on the OpenBLAS kernel it was measured on
(SkylakeX).

The digests are pinned per Python and numpy version.  They are the same
under both RK4 kernels, ``sim.advance`` and its compiled twin
``_rk4.advance``: each run-log and metrics test has a twin on the Python
kernel.  A deliberate change to the closed loop re-pins the digests; the
reason and each old and new digest are recorded in CHANGES.md.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailsim

from tailsim.cli import main
from tailsim.config import Config, apply_overrides
from tailsim.scenarios import run_scenario

GOLDEN = {
    ("hover", "complementary"):
        "45df16eb56ae635d000a587a79c23c21fe8d6c57716f602bad1ae62c8d17de56",
    ("circle", "perfect"):
        "ed9feacf69d09c6b26a5f9843f1294527efe1d8ece2c4e4fe28a0062aa6563ab",
    ("waypoint", "perfect"):
        "5d2fc48cd092db448d40f9dc662f656f9b015d83b7e9cd839360ba4b41794266",
    ("star", "complementary"):
        "f63c56eb6b958e05c89c626478366110cb6c82808fe0dac4f034f8186e705c2b",
}


METRICS_GOLDEN = {
    ("circle", "perfect"):
        "18c664bafb54acedad21d0ddf088de4c7760e507e6660fe7cb3e0f57f39cdcd4",
    ("star", "complementary"):
        "eeb025158167686c1a1d4348b95291d57dda744631c35daee514fd8b90259be2",
}


def _run(scenario, estimator, duration_s="6"):
    cfg = apply_overrides(
        Config(), {"scenario": scenario, "estimator": estimator, "duration_s": duration_s}
    )
    return run_scenario(cfg)


@pytest.mark.parametrize("scenario,estimator", sorted(GOLDEN))
def test_log_digest_matches_golden(scenario, estimator):
    log, _ = _run(scenario, estimator)
    assert len(log) == 600
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    assert digest == GOLDEN[(scenario, estimator)]


@pytest.mark.parametrize("scenario,estimator", sorted(METRICS_GOLDEN))
def test_metrics_json_matches_golden(scenario, estimator):
    # 12 s: the metrics window after the 5 s transient then holds a
    # moving star leg, so latency_s comes from a real correlation peak
    _, metrics = _run(scenario, estimator, "12")
    digest = hashlib.sha256(metrics.to_json().encode()).hexdigest()
    assert digest == METRICS_GOLDEN[(scenario, estimator)]


DEFAULT_CONFIG_GOLDEN = "1c488e5667699294fabc7bced243a3477d92fb96daa6cd340fbb9f80971a6b50"


def test_default_config_text_matches_golden():
    digest = hashlib.sha256(Config().to_text().encode()).hexdigest()
    assert digest == DEFAULT_CONFIG_GOLDEN


# the tests above run on the RK4 kernel that import loaded (the compiled one
# where it builds); these run them on the Python fallback
@pytest.mark.parametrize("scenario,estimator", sorted(GOLDEN))
def test_log_digest_matches_golden_on_the_python_kernel(python_kernel, scenario, estimator):
    test_log_digest_matches_golden(scenario, estimator)


@pytest.mark.parametrize("scenario,estimator", sorted(METRICS_GOLDEN))
def test_metrics_json_matches_golden_on_the_python_kernel(python_kernel, scenario, estimator):
    test_metrics_json_matches_golden(scenario, estimator)


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _openblas_kernels() -> list[str]:
    """OpenBLAS kernels this x86-64 CPU can run, by its instruction sets."""
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        flags = set()
    kernels = ["Nehalem"]
    if "avx2" in flags:
        kernels += ["Haswell", "Zen"]
    if "avx512f" in flags:
        kernels.append("SkylakeX")
    return kernels


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS kernels are x86-64"
)
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not linked to OpenBLAS")
def test_log_digests_hold_on_every_openblas_kernel():
    # OPENBLAS_CORETYPE is read once, when numpy loads, so each kernel
    # needs its own interpreter; the runs are independent and go in parallel
    env = dict(os.environ)
    src = str(Path(tailsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    root = Path(__file__).resolve().parent.parent
    here = Path(__file__).resolve()
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-p", "no:hypothesispytest", f"{here}::test_log_digest_matches_golden",
           f"{here}::test_metrics_json_matches_golden"]
    runs = {
        kernel: subprocess.Popen(
            cmd, cwd=root, env={**env, "OPENBLAS_CORETYPE": kernel},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for kernel in _openblas_kernels()
    }
    failed = {}
    for kernel, proc in runs.items():
        try:
            out, _ = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            proc.kill()
            out = proc.communicate()[0] + "\ntimed out after 300 s"
        if proc.returncode != 0:
            failed[kernel] = out[-2000:]
    assert not failed, f"log or metrics digests differ under {sorted(failed)}:\n" + "\n".join(
        f"--- {k} ---\n{v}" for k, v in failed.items()
    )


SYSID_GOLDEN = {
    "bench.csv": "7bddbe52ea0421db4d93a34e930021ab387afa7da585519431e30c20cf1b3a30",
    "fit.txt": "b8e2d240a2eb52777bf834d333fd1f04a25bdaaf50b6bbcbf3f631f6097cab8c",
}


def test_sysid_outputs_match_golden(tmp_path, capsys):
    bench, fit = tmp_path / "bench.csv", tmp_path / "fit.txt"
    assert main(["sysid", "synth", "--out", str(bench), "--omega-count", "12",
                 "--delta-count", "13", "--noise", "0.05", "--seed", "1"]) == 0
    assert main(["sysid", "fit", "--in", str(bench), "--out", str(fit),
                 "--intercept"]) == 0
    for path in (bench, fit):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SYSID_GOLDEN[path.name]
