"""The compiled RK4 kernel: bit for bit ``sim.advance``, and how it is built.

``tailsim.sim`` builds ``_rk4.c`` into a per-user cache on import and
falls back to the Python kernel on any failure.  The comparison runs on
the kernel that import loaded, which steps a buffer of 17 doubles in place
(``advance_into``); the build tests point the cache at a temporary
directory by patching ``tailsim._build``'s attributes.
"""

import os
import shutil
import struct
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path

import numpy as np
import pytest

import tailsim
from tailsim import _build, sim
from tailsim.errors import SimulationDivergedError
from tailsim.model import VehicleParams
from tailsim.sim import DisturbanceSpec, advance, advance_into, plant

PARAMS = VehicleParams()
SRC = str(Path(tailsim.__file__).resolve().parent.parent)

needs_compiled = pytest.mark.skipif(sim.rk4 is advance_into,
                                    reason=f"no compiled kernel ({sim.KERNEL})")
needs_compiler = pytest.mark.skipif(
    shutil.which(_build.CC) is None
    or not Path(sysconfig.get_paths()["include"], "Python.h").exists(),
    reason="no C compiler or no Python headers",
)


def outcome(c, y0, act, *cmd):
    """``advance``'s ``(y, act)`` as IEEE bytes (-0.0 is not +0.0), or what it raised."""
    try:
        y, act = advance(c, y0, act, *cmd)
    except (SimulationDivergedError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    assert all(type(v) is float for v in y + act)
    return struct.pack("17d", *y, *act)


def outcome_into(kernel, c, y0, act, *cmd):
    """What ``kernel`` (an ``advance_into``) leaves in a buffer of ``y0`` and
    ``act``, as bytes, or what it raised; a step that raised left the buffer
    as it was."""
    s = array("d", y0 + act)
    before = s.tobytes()
    try:
        kernel(c, s, *cmd)
    except (SimulationDivergedError, ZeroDivisionError) as exc:
        assert s.tobytes() == before
        return type(exc), str(exc)
    return s.tobytes()


def seeded_inputs(n: int, seed: int):
    """``n`` argument tuples for ``advance``: random states and actuators, rotor
    commands from below 0 to above omega_max, elevon commands past both limits,
    with -0.0 states and commands, NaN commands and diverging body rates mixed in."""
    rng = np.random.default_rng(seed)
    plants = [plant(dt, PARAMS, dist)
              for dt in (5e-4, 1e-3, 2e-3) for dist in (None, DisturbanceSpec())]
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    ys = np.hstack([rng.standard_normal((n, 3)), 3.0 * rng.standard_normal((n, 3)), q,
                    5.0 * rng.standard_normal((n, 3))]).tolist()
    acts = np.hstack([rng.uniform(0.0, 790.0, (n, 2)),
                      rng.uniform(-0.785, 0.785, (n, 2))]).tolist()
    cmds = np.hstack([rng.uniform(-200.0, 1000.0, (n, 2)),
                      rng.uniform(-1.2, 1.2, (n, 2))]).tolist()
    for i in range(n):
        y, cmd = ys[i], cmds[i]
        if i % 50 == 0:
            y = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0]
        if i % 97 == 0:
            y[10:13] = [1e160, -1e160, 1e160]
        if i % 31 == 0:
            cmd[i % 4] = float("nan")
        if i % 37 == 0:
            cmd[i % 4] = -0.0
        yield (plants[i % len(plants)], tuple(y), tuple(acts[i]), *cmd)


@needs_compiled
def test_compiled_kernel_is_bit_for_bit_advance_on_seeded_inputs():
    results = {}
    for args in seeded_inputs(100_000, seed=21):
        want = outcome(*args)
        assert outcome_into(sim.rk4, *args) == want, args
        kind = want if isinstance(want, tuple) else "state"
        results[kind] = results.get(kind, 0) + 1
    # the diverging states and NaN commands raised, the rest stepped
    diverged = (SimulationDivergedError, "non-finite state after integration step")
    assert results[diverged] > 4000 and results["state"] > 90_000
    assert set(results) == {diverged, "state"}


@needs_compiled
@pytest.mark.parametrize("where", ["j_xx", "j_yy", "j_zz", "quaternion"])
def test_compiled_kernel_divides_by_zero_where_python_does(where):
    c = list(plant(2e-3, PARAMS))
    y = [0.0] * 6 + [1.0, 0.0, 0.0, 0.0] + [0.1, 0.2, 0.3]
    if where == "quaternion":
        y[6] = 0.0   # zero norm before 1.0 / sqrt
    else:
        c[8 + ["j_xx", "j_yy", "j_zz"].index(where)] = 0.0
    args = (tuple(c), tuple(y), (400.0, 400.0, 0.0, 0.0), 400.0, 400.0, 0.0, 0.0)
    want = outcome(*args)
    assert want == (ZeroDivisionError, "float division by zero")
    assert outcome_into(sim.rk4, *args) == want
    assert outcome_into(advance_into, *args) == want


def test_the_python_kernel_is_advance_on_the_buffer_and_keeps_it_on_a_raise():
    results = set()
    for args in seeded_inputs(2000, seed=22):
        want = outcome(*args)
        assert outcome_into(advance_into, *args) == want, args
        results.add(want if isinstance(want, tuple) else "state")
    assert len(results) == 2   # some steps diverged, the rest stepped


STATE = (0.0,) * 6 + (1.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3) + (400.0, 400.0, 0.0, 0.0)
BAD_BUFFERS = {
    "16-doubles": lambda: array("d", STATE[:16]),
    "18-doubles": lambda: array("d", STATE + (0.0,)),
    "read-only": lambda: memoryview(array("d", STATE)).toreadonly(),
}
COMPILED_BAD_BUFFERS = {
    **BAD_BUFFERS,
    "34-floats": lambda: array("f", STATE + STATE),   # 136 bytes, not doubles
    "136-bytes": lambda: bytearray(array("d", STATE).tobytes()),
    "bytes": lambda: array("d", STATE).tobytes(),
    "list": lambda: list(STATE),
}


@pytest.mark.parametrize("buffer", BAD_BUFFERS)
def test_a_buffer_of_another_size_or_a_read_only_one_raises_on_the_python_kernel(buffer):
    s = BAD_BUFFERS[buffer]()
    before = bytes(s)
    with pytest.raises((ValueError, TypeError)):
        advance_into(plant(2e-3, PARAMS), s, 400.0, 400.0, 0.0, 0.0)
    assert bytes(s) == before


@needs_compiled
@pytest.mark.parametrize("buffer", COMPILED_BAD_BUFFERS)
def test_a_buffer_of_another_size_format_or_a_read_only_one_raises_on_the_compiled_kernel(buffer):
    s = COMPILED_BAD_BUFFERS[buffer]()
    before = list(s)
    with pytest.raises((ValueError, TypeError, BufferError)):
        sim.rk4(plant(2e-3, PARAMS), s, 400.0, 400.0, 0.0, 0.0)
    assert list(s) == before


@needs_compiled
def test_the_run_loop_and_step_use_the_compiled_kernel():
    from tailsim import scenarios

    assert sim.KERNEL.startswith("compiled: ")
    assert scenarios.step is sim.rk4 is not advance_into


def load_recording(monkeypatch):
    """``_build.load()``, and every command it started."""
    started = []
    real = subprocess.Popen

    def recording(cmd, *args, **kwargs):
        started.append(list(cmd))
        return real(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", recording)
    return _build.load(), started


@needs_compiler
def test_a_build_from_an_empty_cache_then_a_hit_that_spawns_nothing(tmp_path, monkeypatch):
    cache = tmp_path / "xdg" / "tailsim"
    monkeypatch.setattr(_build, "CACHE_DIR", cache)
    (module, kernel), started = load_recording(monkeypatch)
    assert module is not None, kernel
    [cmd] = started
    assert "-ffp-contract=off" in cmd and "-fno-fast-math" in cmd
    assert "-ffast-math" not in cmd and not any(a.startswith("-march") for a in cmd)
    [built] = cache.iterdir()   # the library only: the temporary file was renamed
    assert kernel == f"compiled: {built}"
    args = next(seeded_inputs(1, seed=3))
    assert outcome_into(module.advance_into, *args) == outcome(*args)

    (module, again), started = load_recording(monkeypatch)
    assert module is not None and again == kernel and started == []
    assert list(cache.iterdir()) == [built]

    # a fresh interpreter whose XDG cache holds the library imports no build tooling
    probe = ("import sys; before = set(sys.modules); import tailsim.sim as s; "
             "print(s.KERNEL); "
             "print(sorted({'subprocess', 'sysconfig', 'tempfile'} & (set(sys.modules) - before)))")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "xdg"),
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == [kernel, "[]"]


def test_import_without_a_compiler_runs_on_the_python_kernel(tmp_path):
    # a host with no compiler on PATH and nothing cached yet
    probe = ("import tailsim.sim as s, tailsim.scenarios as sc; "
             "from tailsim.config import Config, apply_overrides; "
             "assert s.rk4 is s.advance_into and sc.step is s.advance_into; "
             "print(s.KERNEL); "
             "cfg = apply_overrides(Config(), {'duration_s': '1', 'transient_window_s': '0.5'}); "
             "print(len(sc.run_scenario(cfg)[0]))")
    env = {**os.environ, "PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == [f"python: FileNotFoundError: [Errno 2] No such file or directory: "
                   f"'{_build.CC}'", "100"]


@pytest.mark.parametrize("failure", ["missing compiler", "cache under a file", "timeout"])
def test_a_failed_build_leaves_the_python_kernel_with_the_reason(tmp_path, monkeypatch, failure):
    cache = tmp_path / "cache"
    monkeypatch.setattr(_build, "CACHE_DIR", cache)
    if failure == "missing compiler":
        monkeypatch.setattr(_build, "CC", str(tmp_path / "no-such-cc"))
        reason = "python: FileNotFoundError: "
    elif failure == "cache under a file":
        cache.write_text("")
        monkeypatch.setattr(_build, "CACHE_DIR", cache / "tailsim")
        reason = "python: NotADirectoryError: "
    else:
        if shutil.which(_build.CC) is None:
            pytest.skip("no C compiler")
        monkeypatch.setattr(_build, "TIMEOUT_S", 0.0)
        reason = "python: TimeoutExpired: "
    module, kernel = _build.load()
    assert module is None and kernel.startswith(reason), kernel
    if cache.is_dir():
        assert list(cache.iterdir()) == []   # no library, no temporary file left
