"""Command-line interface: subcommands, exit codes, file outputs."""

import json

import numpy as np
import pytest

from tailsim.cli import main
from tailsim.config import Config
from tailsim.model import VehicleParams
from tailsim.scenarios import LOG_COLUMNS
from tailsim.sysid import ALL_CONSTANTS

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


@pytest.mark.parametrize("line, message", [
    ("seed = inf", "seed: invalid value 'inf'"),
    ("seed = 1e400", "seed: invalid value '1e400'"),
    ("seed = -1", "seed: must be >= 0"),
    ("m = 1.0", "omega_max: hover needs a rotor speed of 789.966 rad/s"),
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
