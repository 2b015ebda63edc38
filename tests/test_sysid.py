"""Static-test parameter identification: fits, excitation checks, CSV I/O."""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from forks import assert_no_child_left, failing_in, record_exits, use_cpus
from oracles import reference_read_records_csv, reference_write_records_csv, synthetic_bench_rows
from tailsim import sysid
from tailsim.cli import main
from tailsim.errors import DomainError, InsufficientExcitationError
from tailsim.model import VehicleParams
from tailsim.sysid import (
    ALL_CONSTANTS,
    CSV_HEADER,
    BenchRecords,
    fit_params,
    generate_synthetic,
    read_records_csv,
    write_fit_params,
    write_records_csv,
)

PARAMS = VehicleParams()
TRUE = {name: getattr(PARAMS, name) for name in ALL_CONSTANTS}

OMEGAS = np.linspace(150.0, 790.0, 12)
DELTAS = np.linspace(-0.785, 0.785, 13)


def rel_err(fit, name):
    return abs(fit.values[name] / TRUE[name] - 1.0)


def test_noiseless_fit_recovers_all_constants():
    records = generate_synthetic(PARAMS, OMEGAS, DELTAS)
    fit = fit_params(records)
    assert fit.n_records == len(records) == 12 * 13
    for name in ALL_CONSTANTS:
        assert rel_err(fit, name) < 1e-9
        assert fit.residual_rms[name] < 1e-12


def test_noisy_fit_stays_within_quoted_uncertainty():
    # fixed seed: the draw, the estimates, and the standard errors are
    # all deterministic, so these bounds are exact regression checks
    records = generate_synthetic(
        PARAMS, np.linspace(150.0, 790.0, 20), np.linspace(-0.785, 0.785, 41),
        relative_noise=0.05, seed=0,
    )
    fit = fit_params(records)
    for name in ALL_CONSTANTS:
        assert rel_err(fit, name) < 5.0 * fit.std_error[name] / TRUE[name]
    # the squared-deflection drag regressor is the weakly excited one;
    # everything else resolves to about a percent at this grid size
    for name in ("k_t", "k_m", "k_l", "k_p"):
        assert rel_err(fit, name) < 0.02
    assert rel_err(fit, "k_d") < 0.15


def test_noise_free_subset_fit_only_returns_requested():
    records = generate_synthetic(PARAMS, OMEGAS, DELTAS)
    fit = fit_params(records, constants=("k_t", "k_m"))
    assert sorted(fit.values) == ["k_m", "k_t"]
    # k_m has its own clean channel and stays exact; omitting the drag
    # constant makes the deflection sweeps alias into the thrust estimate,
    # and the misfit shows up in the residual
    assert rel_err(fit, "k_m") < 1e-12
    assert 0.01 < rel_err(fit, "k_t") < 0.10
    assert fit.residual_rms["k_t"] > 1e-3


def test_zero_deflection_grid_identifies_thrust_only():
    records = generate_synthetic(PARAMS, OMEGAS, np.array([0.0]))
    fit = fit_params(records, constants=("k_t", "k_m"))
    assert rel_err(fit, "k_t") < 1e-12
    assert rel_err(fit, "k_m") < 1e-12


def test_zero_deflection_grid_flags_unidentifiable_constants():
    records = generate_synthetic(PARAMS, OMEGAS, np.array([0.0]))
    with pytest.raises(InsufficientExcitationError) as excinfo:
        fit_params(records)
    # the elevon constants need deflection sweeps; the joint thrust/drag
    # fit shares the deflection-dependent regressor and fails with them
    assert set(excinfo.value.constants) == {"k_t", "k_d", "k_l", "k_p"}


def test_single_speed_grid_still_identifies():
    records = generate_synthetic(PARAMS, np.array([600.0]), DELTAS)
    fit = fit_params(records)
    for name in ALL_CONSTANTS:
        assert rel_err(fit, name) < 1e-9


def test_intercept_absorbs_sensor_bias():
    records = generate_synthetic(PARAMS, OMEGAS, DELTAS)
    bumped = BenchRecords(
        records.omega, records.delta, records.force + np.array([0.0, 0.0, 0.05]),
        records.torque,
    )
    fit = fit_params(bumped, intercept=True)
    for name in ALL_CONSTANTS:
        assert rel_err(fit, name) < 1e-9
    assert fit.intercepts["fz"] == pytest.approx(0.05, rel=1e-9)
    assert abs(fit.intercepts["fx"]) < 1e-12
    # without an intercept column the bias corrupts the thrust estimate
    fit_biased = fit_params(bumped, intercept=False)
    assert rel_err(fit_biased, "k_t") > 1e-4


def test_generate_synthetic_is_seeded_and_deterministic():
    grid = (np.array([300.0, 600.0]), np.array([-0.3, 0.3]))
    a = generate_synthetic(PARAMS, *grid, relative_noise=0.05, seed=3)
    b = generate_synthetic(PARAMS, *grid, relative_noise=0.05, seed=3)
    c = generate_synthetic(PARAMS, *grid, relative_noise=0.05, seed=4)
    assert np.array_equal(a.force, b.force) and np.array_equal(a.torque, b.torque)
    assert not np.array_equal(a.force, c.force)


def test_generate_synthetic_noiseless_matches_model():
    records = generate_synthetic(PARAMS, np.array([636.9]), np.array([0.1]))
    assert len(records) == 1
    force, torque = records.force[0], records.torque[0]
    # one side's thrust plus slipstream terms, evaluated per record
    assert force[2] == pytest.approx(
        -PARAMS.k_t * 636.9**2 + PARAMS.k_d * 636.9**2 * 0.1**2, rel=1e-12
    )
    assert force[0] == pytest.approx(-PARAMS.k_l * 636.9**2 * 0.1, rel=1e-12)
    assert torque[1] == pytest.approx(-PARAMS.k_p * 636.9**2 * 0.1, rel=1e-12)


@pytest.mark.parametrize("relative_noise, seed", [(0.0, 0), (0.05, 3), (3.0, 5)])
def test_generate_synthetic_matches_per_record_model_bit_for_bit(relative_noise, seed):
    # delta = 0 and +/-delta_max, omega = 0 and omega_max; a noise level of
    # 3 drives many factors 1 + 3 n negative, turning exact zeros into -0.0
    omegas = np.array([0.0, 150.0, 636.9, PARAMS.omega_max])
    deltas = np.array([-PARAMS.delta_max, -0.3, 0.0, 0.1, PARAMS.delta_max])
    records = generate_synthetic(PARAMS, omegas, deltas, relative_noise, seed)
    got = np.column_stack((records.omega, records.delta, records.force, records.torque))
    want = synthetic_bench_rows(PARAMS, omegas, deltas, relative_noise, seed)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("omegas, deltas, match", [
    ([150.0, -1.0], [0.0], "rotor speed"),
    ([np.nan], [0.0], "rotor speed"),
    ([np.inf], [0.0], "rotor speed"),
    ([150.0], [0.0, 0.8], "elevon deflection"),
    ([150.0], [np.nan], "elevon deflection"),
])
def test_generate_synthetic_rejects_out_of_range_grid(omegas, deltas, match):
    with pytest.raises(DomainError, match=match):
        generate_synthetic(PARAMS, np.array(omegas), np.array(deltas))


@pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
def test_generate_synthetic_rejects_bad_noise_level(noise):
    with pytest.raises(DomainError, match="relative_noise"):
        generate_synthetic(PARAMS, OMEGAS, DELTAS, relative_noise=noise)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_generate_synthetic_rejects_negative_seed(noise):
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        generate_synthetic(PARAMS, OMEGAS, DELTAS, relative_noise=noise, seed=-1)


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("seed", [1.5, True])
def test_generate_synthetic_rejects_non_integer_seed(noise, seed):
    with pytest.raises(DomainError, match=f"seed must be an integer, got {seed!r}"):
        generate_synthetic(PARAMS, OMEGAS, DELTAS, relative_noise=noise, seed=seed)


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.05"])
def test_sysid_synth_cli_rejects_bad_noise_level(tmp_path, capsys, noise):
    out = tmp_path / "bench.csv"
    assert main(["sysid", "synth", "--out", str(out), "--noise", noise]) == 1
    err = capsys.readouterr().err
    assert "category=domain" in err
    assert "relative_noise" in err
    assert not out.exists()


def test_fit_requires_at_least_two_records():
    with pytest.raises(DomainError):
        fit_params(BenchRecords(np.zeros(0), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3))))
    records = generate_synthetic(PARAMS, np.array([600.0]), np.array([0.3]))
    assert len(records) == 1
    with pytest.raises(DomainError):
        fit_params(records)


def test_record_validation():
    with pytest.raises(DomainError, match="record 0: rotor speed"):
        BenchRecords([-5.0], [0.0], np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(DomainError, match="record 1: values must be finite"):
        BenchRecords([100.0, 100.0], [0.0, np.nan], np.zeros((2, 3)), np.zeros((2, 3)))
    torque = np.zeros((3, 3))
    torque[2, 1] = np.inf
    with pytest.raises(DomainError, match="record 2: values must be finite"):
        BenchRecords([1.0, 2.0, 3.0], np.zeros(3), np.zeros((3, 3)), torque)
    with pytest.raises(DomainError):
        BenchRecords([100.0], [0.0], np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(DomainError):
        BenchRecords([100.0], [0.0], np.zeros(3), np.zeros(3))
    with pytest.raises(DomainError):
        BenchRecords([100.0, 200.0], [0.0], np.zeros((2, 3)), np.zeros((2, 3)))


def test_records_csv_round_trip(tmp_path):
    records = generate_synthetic(PARAMS, OMEGAS, DELTAS, relative_noise=0.05, seed=1)
    path = tmp_path / "static_records.csv"
    write_records_csv(path, records)
    header = path.read_text().splitlines()[0]
    assert header == CSV_HEADER
    loaded = read_records_csv(path)
    assert len(loaded) == len(records)
    assert np.array_equal(loaded.omega, records.omega)
    assert np.array_equal(loaded.delta, records.delta)
    assert np.array_equal(loaded.force, records.force)
    assert np.array_equal(loaded.torque, records.torque)


def test_read_records_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a, b, c\n1, 2, 3\n")
    with pytest.raises(DomainError):
        read_records_csv(path)


GOOD_ROW = "300, 0.1, 1, 0, -0.5, 0, 0.01, 0.02"


@pytest.mark.parametrize("bad_row, message", [
    ("300, nan, 1, 0, -0.5, 0, 0.01, 0.02", "line 4: values must be finite"),
    ("300, 0.1, inf, 0, -0.5, 0, 0.01, 0.02", "line 4: values must be finite"),
    ("300, 0.1, 1, 0, -0.5, 0, 0.01, -inf", "line 4: values must be finite"),
    ("-300, 0.1, 1, 0, -0.5, 0, 0.01, 0.02", "line 4: rotor speed must be >= 0"),
    ("300, 0.1, 1, 0, -0.5, 0, 0.01", "line 4: expected 8 columns, got 7"),
    ("300, 0.1, one, 0, -0.5, 0, 0.01, 0.02", "line 4: could not convert"),
])
def test_read_records_csv_names_the_offending_line(tmp_path, bad_row, message):
    # line 3 is blank and skipped; the bad row is line 4, then a good one
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([CSV_HEADER, GOOD_ROW, "", bad_row, GOOD_ROW, bad_row]) + "\n")
    with pytest.raises(DomainError) as excinfo:
        read_records_csv(path)
    assert str(excinfo.value).startswith(message)


def test_read_records_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("\n".join([CSV_HEADER, "", GOOD_ROW, "  ", GOOD_ROW]) + "\n")
    records = read_records_csv(path)
    assert len(records) == 2
    assert records.torque[1].tolist() == [0.0, 0.01, 0.02]


def test_write_fit_params_emits_config_compatible_keys(tmp_path):
    records = generate_synthetic(PARAMS, OMEGAS, DELTAS)
    fit = fit_params(records)
    path = tmp_path / "fitted.txt"
    write_fit_params(path, fit)
    values = {}
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, text = body.partition("=")
        values[key.strip()] = float(text)
    for name in ALL_CONSTANTS:
        assert values[name] == pytest.approx(TRUE[name], rel=1e-9)


N_CHUNK = sysid._ROWS_PER_WRITE
# coordinates whose texts a writer must keep apart: 0.0 and -0.0 are equal
# as floats but print as "0" and "-0"
SPECIAL_OMEGAS = [0.0, -0.0, 5e-324, 1e308, 1 / 3, 300.0]
SPECIAL_DELTAS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, -0.3]


def pooled_records(n: int, seed: int) -> BenchRecords:
    """Records whose coordinates repeat, drawn from the special values,
    with the first rows holding ``0.0`` next to ``-0.0`` in both columns."""
    rng = np.random.default_rng(seed)
    omega = rng.choice(SPECIAL_OMEGAS, n)
    delta = rng.choice(SPECIAL_DELTAS, n)
    head = min(n, 2)
    omega[:head] = [0.0, -0.0][:head]
    delta[:head] = [-0.0, 0.0][:head]
    return BenchRecords(omega, delta, rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))


def distinct_records(n: int, seed: int) -> BenchRecords:
    rng = np.random.default_rng(seed)
    return BenchRecords(
        rng.uniform(0.0, 800.0, n), rng.uniform(-1.0, 1.0, n),
        rng.standard_normal((n, 3)), rng.standard_normal((n, 3)),
    )


WRITER_CASES = {
    "sysid-bench-grid": lambda: generate_synthetic(
        PARAMS, np.linspace(150.0, 790.0, 100), np.linspace(-0.785, 0.785, 201), 0.05, 1
    ),
    "all-distinct": lambda: distinct_records(2 * N_CHUNK + 7, 2),
    "0-rows": lambda: pooled_records(0, 3),
    "chunk-1-rows": lambda: pooled_records(N_CHUNK - 1, 4),
    "chunk-rows": lambda: pooled_records(N_CHUNK, 5),
    "chunk+1-rows": lambda: pooled_records(N_CHUNK + 1, 6),
    "special-coordinates": lambda: pooled_records(40, 7),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_write_records_csv_is_byte_identical_to_row_template_oracle(tmp_path, case):
    records = WRITER_CASES[case]()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_records_csv(got, records)
    reference_write_records_csv(want, records)
    assert got.read_bytes() == want.read_bytes()
    if case.startswith(("chunk", "special")):
        # every special coordinate is present, 0.0 and -0.0 in one chunk
        omega_bits = set(records.omega[:N_CHUNK].view(np.int64).tolist())
        delta_bits = set(records.delta[:N_CHUNK].view(np.int64).tolist())
        assert omega_bits == set(np.array(SPECIAL_OMEGAS).view(np.int64).tolist())
        assert delta_bits == set(np.array(SPECIAL_DELTAS).view(np.int64).tolist())


def _table(records: BenchRecords) -> np.ndarray:
    return np.column_stack((records.omega, records.delta, records.force, records.torque))


ROW_B = "636.9, -0.3, -0.25, 0, 1.5, 0, 1e-3, -2.5e-5"
READER_CASES = {
    "crlf": "\r\n".join([CSV_HEADER, GOOD_ROW, ROW_B, GOOD_ROW]) + "\r\n",
    "blank-lines": "\n".join([CSV_HEADER, "", GOOD_ROW, "", "", ROW_B, ""]) + "\n",
    "whitespace-lines": "\n".join([CSV_HEADER, GOOD_ROW, "   ", "\t", ROW_B]) + "\n",
    "digit-underscore": "\n".join([CSV_HEADER, GOOD_ROW, ROW_B.replace("636.9", "6_36.9")]) + "\n",
    "non-ascii-digit": "\n".join([CSV_HEADER, GOOD_ROW.replace("300", "\u0663\u0660\u0660")]) + "\n",
    "trailing-comma": "\n".join([CSV_HEADER, GOOD_ROW, ROW_B + ","]) + "\n",
    "7-columns": "\n".join([CSV_HEADER, GOOD_ROW, ROW_B.rsplit(",", 1)[0]]) + "\n",
    "9-columns": "\n".join([CSV_HEADER, GOOD_ROW, ROW_B + ", 1"]) + "\n",
    "7-columns-only": "\n".join([CSV_HEADER, GOOD_ROW.rsplit(",", 1)[0]]) + "\n",
    "comment-line": "\n".join([CSV_HEADER, GOOD_ROW, "# " + ROW_B]) + "\n",
    "nan-row": "\n".join([CSV_HEADER, GOOD_ROW, ROW_B.replace("1.5", "nan")]) + "\n",
    "inf-row": "\n".join([CSV_HEADER, ROW_B.replace("-0.25", "-inf"), GOOD_ROW]) + "\n",
    "1e400-row": "\n".join([CSV_HEADER, GOOD_ROW, "", ROW_B.replace("0.3", "1e400")]) + "\n",
    "negative-speed": "\n".join([CSV_HEADER, GOOD_ROW, "-" + ROW_B]) + "\n",
    "one-row": CSV_HEADER + "\n" + ROW_B + "\n",
    "no-final-newline": CSV_HEADER + "\n" + GOOD_ROW + "\n" + ROW_B,
    "header-only": CSV_HEADER + "\n",
}


@pytest.mark.parametrize("case", READER_CASES)
def test_read_records_csv_agrees_with_line_by_line_oracle(tmp_path, case):
    path = tmp_path / "records.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(READER_CASES[case])

    def outcome(reader):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return _table(reader(path)).view(np.int64)
        except DomainError as exc:
            return str(exc)

    got, want = outcome(read_records_csv), outcome(reference_read_records_csv)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    if case == "header-only":
        assert want.shape == (0, 8)


def test_read_records_csv_parses_well_formed_files_in_one_call(tmp_path, monkeypatch):
    # the line-by-line reader is only the fallback: a well-formed file,
    # blank lines and CRLF included, never reaches it
    records = generate_synthetic(PARAMS, OMEGAS, DELTAS, relative_noise=0.05, seed=2)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    text = path.read_text().replace("\n", "\r\n\r\n")
    path.write_bytes(text.encode())

    def no_fallback(fh):
        raise AssertionError("fell back to the line-by-line reader")

    monkeypatch.setattr(sysid, "_read_records_lines", no_fallback)
    assert np.array_equal(_table(read_records_csv(path)).view(np.int64),
                          _table(records).view(np.int64))


# --- the two-process round trip ---------------------------------------------
# From two chunks of rows the writer, and from 2 * _SPLIT_BYTES bytes of rows
# the reader, hand half of the work to a forked child.  These tests pin that
# path to the same oracles as the one-process path, which they also run by
# reporting a single usable CPU.  Most of them run on 500-row files with
# the thresholds patched down (small_split); a few cases run on sysid-bench's
# 20,100 rows at the real thresholds.

SPLIT_ROWS = 2 * N_CHUNK
bench_records = WRITER_CASES["sysid-bench-grid"]  # its 20,100 records
SMALL_CHUNK = 64
SMALL_SPLIT_BYTES = 16 * 1024


def small_records() -> BenchRecords:
    """500 records of a 10 x 50 grid: 66 kB of rows, over 2 * SMALL_SPLIT_BYTES."""
    return generate_synthetic(
        PARAMS, np.linspace(150.0, 790.0, 10), np.linspace(-0.785, 0.785, 50), 0.05, 1
    )


def oracle_lines(tmp_path_factory, records) -> list[bytes]:
    path = tmp_path_factory.mktemp("bench") / "bench.csv"
    reference_write_records_csv(path, records)
    return path.read_bytes().splitlines(keepends=True)


@pytest.fixture(scope="module")
def bench_lines(tmp_path_factory) -> list[bytes]:
    """The lines of sysid-bench's CSV as the oracle writes it, header first."""
    return oracle_lines(tmp_path_factory, bench_records())


@pytest.fixture(scope="module")
def small_lines(tmp_path_factory) -> list[bytes]:
    """The lines of :func:`small_records`' CSV as the oracle writes it."""
    return oracle_lines(tmp_path_factory, small_records())


def small_split(monkeypatch) -> None:
    """Patch the split thresholds down, so that 500-row files cross them."""
    monkeypatch.setattr(sysid, "_ROWS_PER_WRITE", SMALL_CHUNK)
    monkeypatch.setattr(sysid, "_SPLIT_BYTES", SMALL_SPLIT_BYTES)


def outcome(reader, path):
    """The bits of what ``reader`` reads from ``path``, or its DomainError text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _table(reader(path)).view(np.int64)
    except DomainError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("n", [SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 20100])
def test_write_records_csv_matches_oracle_across_the_split(
    tmp_path, monkeypatch, bench_lines, n, cpus
):
    # n names the case at the real thresholds; all but sysid-bench's 20,100
    # rows run at SMALL_CHUNK rows per chunk, as far from the split
    forks = use_cpus(monkeypatch, cpus)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    if n == 20100:
        records = bench_records()
        want.write_bytes(b"".join(bench_lines))
    else:
        small_split(monkeypatch)
        records = pooled_records(n - SPLIT_ROWS + 2 * SMALL_CHUNK, n)
        reference_write_records_csv(want, records)
    write_records_csv(got, records)
    assert got.read_bytes() == want.read_bytes()
    assert len(forks) == (cpus == 2 and n >= SPLIT_ROWS)
    assert_no_child_left()


BAD_ROW = "300, 0.1, 1, 0, -0.5, 0, 0.01, 0.02"
SPLIT_READER_CASES = {
    "bad-field": BAD_ROW.replace("0.5", "one"),
    "7-columns": BAD_ROW.rsplit(",", 1)[0],
    "9-columns": BAD_ROW + ", 1",
    "digit-underscore": BAD_ROW.replace("300", "3_00"),
    "whitespace-line": " \t ",
    "nan-row": BAD_ROW.replace("0.1", "nan"),
    "inf-row": BAD_ROW.replace("0.01", "inf"),
    "1e400-row": BAD_ROW.replace("300", "1e400"),
    "negative-speed": "-" + BAD_ROW,
}


@pytest.mark.parametrize("row", [0.25, 0.75], ids=["first-half", "second-half"])
@pytest.mark.parametrize("case", SPLIT_READER_CASES)
def test_read_records_csv_matches_oracle_across_the_split(
    tmp_path, monkeypatch, bench_lines, small_lines, case, row
):
    # one odd line at a quarter or three quarters of the rows, on either side
    # of the split: among sysid-bench's 20,100 rows at the real threshold for
    # one case, among 500 rows with the threshold patched down for the rest
    if case == "bad-field" and row < 0.5:
        lines = list(bench_lines)
    else:
        small_split(monkeypatch)
        lines = list(small_lines)
    lines[1 + int(row * (len(lines) - 1))] = SPLIT_READER_CASES[case].encode() + b"\n"
    path = tmp_path / "records.csv"
    path.write_bytes(b"".join(lines))
    want = outcome(reference_read_records_csv, path)
    for cpus in (2, 1):
        forks = use_cpus(monkeypatch, cpus)
        assert_same_outcome(outcome(read_records_csv, path), want)
        assert len(forks) == (cpus == 2)
        assert_no_child_left()


def crlf_with_blanks(bench_lines, blank_rows, blank=b"\r\n") -> bytes:
    """sysid-bench's file with CRLF line ends and a blank line before each
    row index in ``blank_rows``."""
    out = [bench_lines[0]]
    for i, line in enumerate(bench_lines[1:]):
        if i in blank_rows:
            out.append(blank)
        out.append(line[:-1] + b"\r\n")
    return b"".join(out)


def spy_split_points(monkeypatch) -> list:
    """Record each offset the reader picks to cut the rows at."""
    points = []
    real = sysid._line_start

    def line_start(*args):
        points.append(real(*args))
        return points[-1]

    monkeypatch.setattr(sysid, "_line_start", line_start)
    return points


@pytest.mark.parametrize("layout", ["crlf-blanks-both-sides", "split-on-blank-run"])
def test_read_records_csv_splits_blank_and_crlf_files_like_the_oracle(
    tmp_path, monkeypatch, small_lines, layout
):
    if layout == "crlf-blanks-both-sides":
        data = crlf_with_blanks(small_lines, {0, 1, 125, 249, 250, 251, 375, 499})
    else:
        # the same rows on both sides of 301 blank lines: the middle byte is
        # a blank line, so the cut lands on one
        rows = b"".join(small_lines[1:251])
        data = small_lines[0] + rows + b"\n" * 150 + b"\r\n" * 151 + rows
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    want = outcome(reference_read_records_csv, path)
    assert not isinstance(want, str)
    for cpus in (2, 1):
        small_split(monkeypatch)
        forks = use_cpus(monkeypatch, cpus)
        points = spy_split_points(monkeypatch)

        def no_fallback(fh):
            raise AssertionError("fell back to the line-by-line reader")

        monkeypatch.setattr(sysid, "_read_records_lines", no_fallback)
        assert_same_outcome(outcome(read_records_csv, path), want)
        assert len(forks) == len(points) == (cpus == 2)
        assert_no_child_left()
        monkeypatch.undo()
        if cpus == 2 and layout == "split-on-blank-run":
            # the child's part ends, and this process's begins, with a blank line
            cut = points[0]
            assert data[:cut].splitlines()[-1] == data[cut:].splitlines()[0] == b""


@pytest.mark.parametrize("row", [None, 125, 375], ids=["header", "first-half", "second-half"])
def test_read_records_csv_names_a_line_that_is_not_utf8(tmp_path, monkeypatch, small_lines, row):
    small_split(monkeypatch)
    lines = list(small_lines)
    if row is None:
        lines[0] = lines[0].replace(b"fx", b"f\xff")
    else:
        lines[1 + row] = lines[1 + row].replace(b",", b"\xff,", 1)
    path = tmp_path / "records.csv"
    path.write_bytes(b"".join(lines))
    line_no = 1 if row is None else row + 2
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(DomainError, match=f"^line {line_no}: not valid UTF-8$"):
            read_records_csv(path)
        assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, SystemExit])
def test_a_failing_child_leaves_through_os_exit_and_its_half_is_redone(
    tmp_path, monkeypatch, small_lines, error
):
    parent = os.getpid()
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    exits = tmp_path / "exits"
    real_exit = record_exits(monkeypatch, exits)
    in_child = lambda pid: pid != parent  # noqa: E731
    monkeypatch.setattr(sysid, "_rows", failing_in(in_child, sysid._rows, error))
    monkeypatch.setattr(sysid, "_load_head", failing_in(in_child, sysid._load_head, error))
    line_loops = []
    real_lines = sysid._read_records_lines

    def counted_lines(fh):
        line_loops.append(1)
        return real_lines(fh)

    monkeypatch.setattr(sysid, "_read_records_lines", counted_lines)
    path = tmp_path / "records.csv"
    try:
        write_records_csv(path, small_records())
        loaded = read_records_csv(path)
    finally:
        if os.getpid() != parent:
            # a child came back into the caller: leave before pytest runs on in it
            (tmp_path / "returned").touch()
            real_exit(0)
    assert not (tmp_path / "returned").exists()
    assert path.read_bytes() == b"".join(small_lines)
    assert np.array_equal(_table(loaded), _table(small_records()))
    assert len(forks) == 2 and line_loops == [1]
    assert sorted(p.read_text() for p in exits.iterdir()) == ["1", "1"]
    assert_no_child_left()


def test_the_parent_reaps_its_child_when_its_own_part_fails(tmp_path, monkeypatch):
    parent = os.getpid()
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    in_parent = lambda pid: pid == parent  # noqa: E731
    path = tmp_path / "records.csv"
    write_records_csv(path, small_records())
    with monkeypatch.context() as m:
        m.setattr(sysid, "_rows", failing_in(in_parent, sysid._rows, OSError))
        with pytest.raises(OSError, match="injected failure"):
            write_records_csv(tmp_path / "other.csv", small_records())
    assert_no_child_left()
    with monkeypatch.context() as m:
        m.setattr(sysid, "_loadtxt", failing_in(in_parent, sysid._loadtxt, RuntimeError))
        with pytest.raises(RuntimeError, match="injected failure"):
            read_records_csv(path)
    assert_no_child_left()
    assert len(forks) == 3


def test_no_child_is_forked_beside_another_thread_or_without_fork(
    tmp_path, monkeypatch, small_lines
):
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    path = tmp_path / "records.csv"
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        write_records_csv(path, small_records())
        assert path.read_bytes() == b"".join(small_lines)
        assert np.array_equal(_table(read_records_csv(path)), _table(small_records()))
    finally:
        release.set()
        other.join()
    assert forks == []
    monkeypatch.delattr(os, "fork")
    write_records_csv(path, small_records())
    assert path.read_bytes() == b"".join(small_lines)
    assert np.array_equal(_table(read_records_csv(path)), _table(small_records()))


def test_write_records_csv_to_an_unseekable_file_does_not_fork(tmp_path, monkeypatch, small_lines):
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    path = tmp_path / "fifo"
    os.mkfifo(path)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(path.read_bytes()))
    reader.start()
    # the thread reading the FIFO also rules out a fork; take it out of the count
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    write_records_csv(path, small_records())
    reader.join()
    assert chunks == [b"".join(small_lines)]
    assert forks == []


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_bench_write_keeps_the_destination_and_leaves_no_temporary_file(
    tmp_path, monkeypatch, cpus, exists
):
    # a bench record cannot hold a value %.17g fails on, so row 2500's
    # formatting raises; from 2 * 64 rows on, a helper formats the second half
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, cpus)
    rows = sysid._rows

    def failing_rows(records, lo, hi):
        if lo <= 2500 < hi:
            raise DomainError("row 2500 fails")
        return rows(records, lo, hi)

    monkeypatch.setattr(sysid, "_rows", failing_rows)
    path = tmp_path / "bench.csv"
    if exists:
        path.write_bytes(b"an earlier bench file\n")
    with pytest.raises(DomainError, match="row 2500 fails"):
        write_records_csv(path, pooled_records(3000, 3))
    assert list(tmp_path.iterdir()) == ([path] if exists else [])
    if exists:
        assert path.read_bytes() == b"an earlier bench file\n"
    assert len(forks) == cpus - 1
    assert_no_child_left()


def test_the_split_adds_no_module_to_the_import(tmp_path):
    # the helper is os.fork and a pipe, which numpy's import has loaded;
    # multiprocessing alone would add a few tens of milliseconds of set-up.
    # Splitting a bench CSV and a run log loads no module either.
    code = f"""
import sys, numpy
before = set(sys.modules)
import tailsim.cli
from tailsim import _forked, scenarios, sysid
print({{'io', 'os', 'threading'}} <= before,
      any(m.split('.')[0] in ('multiprocessing', 'concurrent', 'subprocess')
          for m in sys.modules))
loaded = set(sys.modules)
_forked.usable_cpus = lambda: 2
forks = []
fork = _forked.os.fork
_forked.os.fork = lambda: forks.append(1) or fork()
zeros = numpy.zeros((2 * sysid._ROWS_PER_WRITE, 3))
sysid.write_records_csv({str(tmp_path / "bench.csv")!r}, sysid.BenchRecords(zeros[:, 0], zeros[:, 1], zeros, zeros))
log = scenarios.ScenarioLog(2 * scenarios._ROWS_PER_WRITE)
for _ in range(2 * scenarios._ROWS_PER_WRITE):
    log.append([0.0] * len(scenarios.LOG_COLUMNS))
log.write_csv({str(tmp_path / "log.csv")!r})
print(len(forks), sorted(set(sys.modules) - loaded))
"""
    src = str(Path(sysid.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["True", "False", "2", "[]"]
