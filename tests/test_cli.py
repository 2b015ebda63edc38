"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
import tailsim
from forks import assert_no_child_left, use_cpus
from tailsim import scenarios
from tailsim.cli import main
from tailsim.config import Config, load_config, parse_pairs
from tailsim.errors import SimulationDivergedError
from tailsim.model import VehicleParams
from tailsim.scenarios import LOG_COLUMNS, run_scenario
from tailsim.sim import advance
from tailsim.sysid import ALL_CONSTANTS

SRC = str(Path(tailsim.__file__).resolve().parent.parent)

QUIET_HOVER = """\
scenario = hover
duration_s = 6
dist_force_x = 0
dist_force_y = 0
dist_force_z = 0
dist_torque_x = 0
dist_torque_y = 0
dist_torque_z = 0
noise_gyro = 0
noise_accel = 0
noise_pose_pos = 0
noise_pose_att = 0
"""


def test_run_writes_log_and_metrics(tmp_path, capsys):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text(QUIET_HOVER)
    log_path = tmp_path / "run.csv"
    metrics_path = tmp_path / "metrics.json"
    code = main([
        "run", "--config", str(cfg),
        "--out-log", str(log_path), "--out-metrics", str(metrics_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rms_x_m = " in out and "latency_s = " in out

    lines = log_path.read_text().splitlines()
    assert lines[0] == ",".join(LOG_COLUMNS)
    assert len(lines) == 1 + 600  # 6 s at the default 100 Hz logging rate

    metrics = json.loads(metrics_path.read_text())
    assert metrics["rms_z_m"] < 1e-12


def test_run_flag_overrides_take_precedence(tmp_path, capsys):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text(QUIET_HOVER + "hover_z = 2.0\n")
    code = main(["run", "--config", str(cfg), "--duration", "7"])
    assert code == 0
    # duration flag overrode the file; the file's other keys still applied
    assert capsys.readouterr().out.count("= ") == 9


def test_run_logs_are_reproducible(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["run", "--scenario", "hover", "--duration", "6",
                     "--estimator", "complementary", "--seed", "7",
                     "--out-log", str(out)])
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    other_seed = tmp_path / "c.csv"
    main(["run", "--scenario", "hover", "--duration", "6",
          "--estimator", "complementary", "--seed", "8",
          "--out-log", str(other_seed)])
    assert other_seed.read_bytes() != paths[0].read_bytes()


# ``tailsim run --out-log`` writes the log after the run, through
# ScenarioLog.write_csv: from two chunks of _ROWS_PER_WRITE rows on, a forked
# helper formats the second half while this process writes the first.
SPLIT_ROWS = 2 * scenarios._ROWS_PER_WRITE


def star_at_the_threshold(tmp_path):
    """A config file for a star run that logs ``SPLIT_ROWS`` rows at 1 kHz,
    and the oracle bytes of its log."""
    path = tmp_path / "star.cfg"
    path.write_text("scenario = star\nlogging_rate_hz = 1000\ntransient_window_s = 1\n"
                    f"duration_s = {SPLIT_ROWS / 1000}\n")
    log, _ = run_scenario(load_config(path))
    want = oracles.reference_to_csv(log).encode()
    assert want.count(b"\n") == SPLIT_ROWS + 1
    return path, want


def run_logging_to(cfg, out) -> int:
    return main(["run", "--config", str(cfg), "--out-log", str(out)])


@pytest.mark.parametrize("cpus", [2, 1])
def test_run_writes_a_star_log_at_the_real_threshold(tmp_path, monkeypatch, cpus):
    cfg, want = star_at_the_threshold(tmp_path)
    forks = use_cpus(monkeypatch, cpus)
    path = tmp_path / "log.csv"
    assert run_logging_to(cfg, path) == 0
    assert path.read_bytes() == want
    assert len(forks) == (cpus == 2)
    assert_no_child_left()


def test_run_writes_its_log_into_a_fifo_beside_a_thread_or_without_fork(tmp_path, monkeypatch):
    cfg, want = star_at_the_threshold(tmp_path)
    forks = use_cpus(monkeypatch, 2)
    path = tmp_path / "log.csv"
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert run_logging_to(cfg, path) == 0
    finally:
        release.set()
        other.join()
    assert path.read_bytes() == want
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(fifo.read_bytes()))
    reader.start()
    with monkeypatch.context() as m:
        # the thread reading the FIFO also rules out a fork; take it out of the count
        m.setattr(threading, "active_count", lambda: 1)
        assert run_logging_to(cfg, fifo) == 0
    reader.join()
    assert chunks == [want]
    assert forks == []
    monkeypatch.delattr(os, "fork")
    path.unlink()
    assert run_logging_to(cfg, path) == 0
    assert path.read_bytes() == want


def test_a_run_that_raises_writes_no_log(tmp_path, monkeypatch, capsys):
    cfg, _ = star_at_the_threshold(tmp_path)
    forks = use_cpus(monkeypatch, 2)
    calls = []

    def diverging_step(*args):
        calls.append(1)
        if len(calls) > SPLIT_ROWS:  # about half way through the run
            raise SimulationDivergedError("injected divergence")
        return advance(*args)

    monkeypatch.setattr(scenarios, "step", diverging_step)
    path = tmp_path / "log.csv"
    assert run_logging_to(cfg, path) == 1
    err = capsys.readouterr().err
    assert "error: category=simulation-diverged" in err
    assert "injected divergence at t = " in err
    assert not path.exists()
    assert forks == []
    assert_no_child_left()


def test_run_too_short_for_metrics_window_fails_cleanly(capsys):
    code = main(["run", "--scenario", "hover", "--duration", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: category=metrics-window" in err


def test_run_rejects_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: category=config-invalid" in err
    assert "not_a_key" in err


def test_run_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "error: category=io" in capsys.readouterr().err


def without_override() -> list[str]:
    """The command prefix that runs a program unable to write a file whose
    mode forbids it: none for a user other than root; for root, ``setpriv``
    with the capabilities that override file permissions dropped."""
    if os.geteuid() != 0:
        return []
    cmd = ["setpriv", "--bounding-set=-dac_override,-dac_read_search,-fowner"]
    if shutil.which("setpriv") is None or subprocess.run([*cmd, "true"]).returncode != 0:
        pytest.skip("running as root, and setpriv cannot drop the override capabilities")
    return cmd


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{cfg}", "--out-log", "{out}"],
    ["sysid", "synth", "--omega-count", "3", "--delta-count", "3", "--out", "{out}"],
], ids=["run-log", "bench-csv"])
def test_a_read_only_destination_is_an_io_error_and_is_kept(tmp_path, argv):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("duration_s = 1\ntransient_window_s = 0.5\n")
    out = tmp_path / "out.csv"
    out.write_bytes(b"keep me")
    out.chmod(0o444)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [*without_override(), sys.executable, "-m", "tailsim.cli",
         *(a.format(cfg=cfg, out=out) for a in argv)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: category=io\n  [Errno 13] Permission denied")
    assert out.read_bytes() == b"keep me" and out.stat().st_mode & 0o777 == 0o444
    assert sorted(tmp_path.iterdir()) == [out, cfg]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--scenario", "corkscrew"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_validate_full_and_partial(tmp_path, capsys):
    full = tmp_path / "full.cfg"
    Config().write(full)
    assert main(["validate", str(full)]) == 0
    assert "configuration OK" in capsys.readouterr().out

    partial = tmp_path / "partial.cfg"
    partial.write_text("m = 0.65\n")
    assert main(["validate", str(partial)]) == 1
    err = capsys.readouterr().err
    assert "error: category=config-invalid" in err
    assert "tau_att" in err  # missing keys are listed by name

    heavy = tmp_path / "heavy.cfg"
    cfg = Config()
    cfg.params.m = 5.0  # hover rotor speed beyond omega_max
    cfg.write(heavy)
    assert main(["validate", str(heavy)]) == 1
    err = capsys.readouterr().err
    assert "error: category=config-invalid" in err
    assert "omega_max" in err


def test_sysid_synth_then_fit_round_trip(tmp_path, capsys):
    records_path = tmp_path / "bench.csv"
    fitted_path = tmp_path / "fitted.cfg"
    code = main(["sysid", "synth", "--out", str(records_path),
                 "--omega-count", "12", "--delta-count", "13"])
    assert code == 0
    assert "wrote 156 records" in capsys.readouterr().out

    code = main(["sysid", "fit", "--in", str(records_path), "--out", str(fitted_path)])
    assert code == 0
    out = capsys.readouterr().out
    params = VehicleParams()
    printed = dict(line.split(" = ") for line in out.strip().splitlines())
    for name in ALL_CONSTANTS:
        assert float(printed[name]) == pytest.approx(getattr(params, name), rel=1e-9)

    # the fitted file round-trips through the config loader
    from tailsim.config import load_config
    cfg = load_config(fitted_path)
    assert cfg.params.k_t == pytest.approx(params.k_t, rel=1e-9)


def test_sysid_fit_subset_and_noise(tmp_path, capsys):
    records_path = tmp_path / "bench.csv"
    main(["sysid", "synth", "--out", str(records_path), "--noise", "0.05",
          "--omega-count", "30", "--delta-count", "41", "--seed", "5"])
    capsys.readouterr()
    fitted_path = tmp_path / "fitted.cfg"
    code = main(["sysid", "fit", "--in", str(records_path),
                 "--out", str(fitted_path), "--constants", "k_t,k_m"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "k_t = " in printed and "k_m = " in printed and "k_l" not in printed


def test_sysid_fit_insufficient_excitation(tmp_path, capsys):
    records_path = tmp_path / "bench.csv"
    main(["sysid", "synth", "--out", str(records_path),
          "--delta-max", "0", "--delta-count", "1"])
    capsys.readouterr()
    code = main(["sysid", "fit", "--in", str(records_path), "--out",
                 str(tmp_path / "fitted.cfg")])
    assert code == 1
    assert "error: category=insufficient-excitation" in capsys.readouterr().err


@pytest.mark.parametrize("constants, message", [
    (",", "no constants requested"),
    ("k_t,k_t", "constants requested more than once: ['k_t']"),
])
def test_sysid_fit_rejects_empty_or_repeated_constants(tmp_path, capsys, constants, message):
    records_path = tmp_path / "bench.csv"
    main(["sysid", "synth", "--out", str(records_path)])
    capsys.readouterr()
    fitted_path = tmp_path / "fitted.cfg"
    code = main(["sysid", "fit", "--in", str(records_path), "--out", str(fitted_path),
                 "--constants", constants])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: category=domain" in captured.err and message in captured.err
    assert captured.out == "" and not fitted_path.exists()


@pytest.mark.parametrize("flag", ["--omega-count", "--delta-count"])
@pytest.mark.parametrize("count", ["-1", "0"])
def test_sysid_synth_count_below_one_is_usage_error(tmp_path, capsys, flag, count):
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["sysid", "synth", "--out", str(out), flag, count])
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be at least 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["0", "0.05"])
def test_sysid_synth_negative_seed_is_domain_error(tmp_path, capsys, noise):
    # with noise this used to end in numpy's ValueError traceback, and
    # without noise the seed was silently accepted
    out = tmp_path / "bench.csv"
    code = main(["sysid", "synth", "--out", str(out), "--noise", noise, "--seed", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: category=domain" in captured.err
    assert "seed must be >= 0, got -1" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("line, message", [
    ("seed = inf", "seed: invalid value 'inf'"),
    ("seed = 1e400", "seed: invalid value '1e400'"),
    ("seed = -1", "seed: must be >= 0"),
    ("m = 1.0", "omega_max: hover needs a rotor speed of 789.966 rad/s"),
    ("attitude_rate_hz = 5e-324", "attitude_rate_hz: invalid value '5e-324'"),
    ("position_rate_hz = 5e-324", "position_rate_hz: invalid value '5e-324'"),
    ("rate_rate_hz = 5e-324", "rate_rate_hz: invalid value '5e-324'"),
    ("attitude_rate_hz = 500.4", "attitude_rate_hz: invalid value '500.4'"),
    ("position_rate_hz = 500.4", "position_rate_hz: invalid value '500.4'"),
    ("rate_rate_hz = 500.4", "rate_rate_hz: invalid value '500.4'"),
    ("attitude_rate_hz = 0.6", "attitude_rate_hz: invalid value '0.6'"),
    ("position_rate_hz = 0.6", "position_rate_hz: invalid value '0.6'"),
    ("rate_rate_hz = 0.6", "rate_rate_hz: invalid value '0.6'"),
])
def test_validate_and_run_report_bad_values_as_config_errors(tmp_path, capsys, line, message):
    # each used to pass validation or end in a traceback
    full = tmp_path / "full.cfg"
    key = line.split("=")[0].strip()
    full.write_text("".join(
        line + "\n" if ln.split("=")[0].strip() == key else ln + "\n"
        for ln in Config().to_text().splitlines()
    ))
    assert main(["validate", str(full)]) == 1
    err = capsys.readouterr().err
    assert "error: category=config-invalid" in err and message in err

    partial = tmp_path / "partial.cfg"
    partial.write_text(line + "\nduration_s = 6\n")
    assert main(["run", "--config", str(partial)]) == 1
    err = capsys.readouterr().err
    assert "error: category=config-invalid" in err and message in err


@pytest.mark.parametrize("values, message", [
    ({"scenario": "circle", "circle_speed_mps": "1e8", "circle_radius_m": "1e-300",
      "duration_s": "6"},
     "circle_speed_mps, circle_radius_m: 100000000.0 m/s on 1e-300 m overflows the orbit angle"),
    ({"duration_s": "1e300"},
     "duration_s: 1e+300 s at logging_rate_hz 100 Hz would log more than 10000000 rows"),
], ids=["orbit-angle", "log-rows"])
def test_validate_and_run_reject_a_config_that_ended_in_a_traceback(tmp_path, capsys, values,
                                                                    message):
    # the run ended in math.cos's ValueError and in np.arange's "Maximum
    # allowed size exceeded"
    full, partial = tmp_path / "full.cfg", tmp_path / "partial.cfg"
    pairs = {**parse_pairs(Config().to_text()), **values}
    full.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
    partial.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    for argv in (["validate", str(full)], ["run", "--config", str(partial)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: category=config-invalid" in captured.err and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("text", ["1e308", "1e6"])
def test_validate_rejects_a_star_of_too_many_points(tmp_path, capsys, text):
    # both used to validate; a run would build the vertex list in Python,
    # and at 1e308 points never reach the first step
    full = tmp_path / "full.cfg"
    full.write_text(Config().to_text().replace("star_points = 5\n", f"star_points = {text}\n"))
    assert main(["validate", str(full)]) == 1
    err = capsys.readouterr().err
    assert "error: category=config-invalid" in err
    assert "star_points: must be <= 1000, got " in err


# a byte 0xff is never UTF-8; each of these used to end in a
# UnicodeDecodeError traceback instead of an error line
def test_run_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"duration_s = 6\r\nseed = 1\xff\n")
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "error: category=config-invalid" in captured.err
    assert "line 2: not valid UTF-8" in captured.err and captured.out == ""


def test_validate_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(Config().to_text().encode() + b"# \xff\n")
    assert main(["validate", str(cfg)]) == 1
    err = capsys.readouterr().err
    line_no = Config().to_text().count("\n") + 1
    assert "error: category=config-invalid" in err
    assert f"line {line_no}: not valid UTF-8" in err


def test_sysid_fit_reports_a_bench_csv_that_is_not_utf8(tmp_path, capsys):
    records_path = tmp_path / "bench.csv"
    main(["sysid", "synth", "--out", str(records_path)])
    capsys.readouterr()
    lines = records_path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b", ", b"\xff, ", 1)
    records_path.write_bytes(b"".join(lines))
    fitted_path = tmp_path / "fitted.cfg"
    assert main(["sysid", "fit", "--in", str(records_path), "--out", str(fitted_path)]) == 1
    captured = capsys.readouterr()
    assert "error: category=domain" in captured.err
    assert "line 6: not valid UTF-8" in captured.err
    assert captured.out == "" and not fitted_path.exists()
