"""Golden digests: refactors must reproduce the logs and files byte for byte.

Each run-log digest is the SHA-256 of ``ScenarioLog.to_csv()`` for a 6 s
run at the default seed, measured on Python 3.11.7 with numpy 2.4.6 (600
rows each).  A mismatch means the change altered the simulated
trajectory, the controller's schedule, the noise stream or the CSV
format.

The sysid digests cover the bench CSV written by ``tailsim sysid synth``
(12 x 13 grid, 5 % noise, seed 1) and the ``sysid fit --intercept`` file
made from it: the synthetic model, its noise stream, the ``%.17g`` CSV
format and the least-squares fit.

A deliberate change to the closed loop re-pins the digests; the reason
and each old and new digest are recorded in CHANGES.md.
"""

import hashlib

import pytest

from tailsim.cli import main
from tailsim.config import Config, apply_overrides
from tailsim.scenarios import run_scenario

GOLDEN = {
    ("hover", "complementary"):
        "67b5b940ed77ddf06d54027e0804660fcc6ff55de14cb2eb278b6e1be9ae2ab2",
    ("circle", "perfect"):
        "915297a8cb2883e6b0316c382436f6d6aa70bae11e000e3b1ff1f1ee3a2a6558",
    ("waypoint", "perfect"):
        "f07a4643eefc0cd6775a0ce6e37962e0d3725d97467e4bb9ea453cd71132f6ca",
    ("star", "complementary"):
        "a2b0e781a060e87183e61ab0321720e2f4c6d521dd841f4d1e933d8e4d2506d0",
}


@pytest.mark.parametrize("scenario,estimator", sorted(GOLDEN))
def test_log_digest_matches_golden(scenario, estimator):
    cfg = apply_overrides(
        Config(), {"scenario": scenario, "estimator": estimator, "duration_s": "6"}
    )
    log, _ = run_scenario(cfg)
    assert len(log) == 600
    digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
    assert digest == GOLDEN[(scenario, estimator)]


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
