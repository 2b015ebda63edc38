"""Static-bench system identification of the force/moment coefficients.

A bench record holds one steady operating point of a single
propeller/elevon unit (left-side reaction-torque convention): rotor
speed, elevon deflection, and the measured force/torque vector about the
unit's own hub.  Records travel as one columnar :class:`BenchRecords`
table, from :func:`generate_synthetic` or :func:`read_records_csv`
through :func:`write_records_csv` and :func:`fit_params`, and the table
is validated once as a whole.  The five model coefficients enter the
measurements linearly through known regressors, so each measurement
channel is fit by least squares through the origin:

==========  =========================  ==================
channel     basis                      coefficients
==========  =========================  ==================
``fz``      ``omega^2, omega^2 d^2``   ``-k_t, +k_d``
``fx``      ``omega^2 d``              ``-k_l``
``my``      ``omega^2 d``              ``-k_p``
``mz``      ``omega^2``                ``+k_m``
==========  =========================  ==================

Noiseless synthetic data is recovered exactly (the thrust/drag channel
is a joint two-column fit, so drag never biases thrust).  Each channel
is solved by singular value decomposition via ``numpy.linalg.lstsq``;
``inv(X^T X)`` is formed only for the coefficients' standard errors.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import _forked
from .errors import DomainError, InsufficientExcitationError, is_integer
from .model import VehicleParams

ALL_CONSTANTS = ("k_t", "k_m", "k_l", "k_d", "k_p")

CSV_HEADER = "omega_rad_s, delta_rad, fx, fy, fz, mx, my, mz"

# measurement channel supplying each coefficient's residual diagnostics
_CHANNEL_OF = {"k_t": "fz", "k_d": "fz", "k_l": "fx", "k_p": "my", "k_m": "mz"}

# one CSV row, every value round-tripping exactly; rows are formatted and
# written this many at a time
_ROW = ", ".join(["%.17g"] * 8) + "\n"
_ROWS_PER_WRITE = 4096
# a file from two chunks of rows on is written, and one from two chunks of
# 128-byte rows on (a sysid-bench row is 133 bytes) is read, by two processes;
# the reader cuts at the first line feed within _forked.PIPE_BUFFER of its middle
_SPLIT_BYTES = _ROWS_PER_WRITE * 128


class _InvalidRecord(DomainError):
    """A bench record that breaks a table rule; ``row`` is its 0-based index."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"record {row}: {reason}")


@dataclass
class BenchRecords:
    """Steady bench measurements of a single propeller/elevon unit, one row each.

    Columns: rotor speed ``omega`` (rad/s) and elevon deflection ``delta``
    (rad), shape ``(N,)``; measured ``force`` (N) and ``torque`` (N m) in
    body axes, shape ``(N, 3)``.  The table is validated once, as a whole:
    every value finite, every rotor speed >= 0.
    """

    omega: np.ndarray
    delta: np.ndarray
    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self) -> None:
        self.omega = np.asarray(self.omega, dtype=float)
        self.delta = np.asarray(self.delta, dtype=float)
        self.force = np.asarray(self.force, dtype=float)
        self.torque = np.asarray(self.torque, dtype=float)
        if self.omega.ndim != 1 or self.delta.shape != self.omega.shape:
            raise DomainError("record omega/delta must be 1-D columns of equal length")
        n = self.omega.shape[0]
        if self.force.shape != (n, 3) or self.torque.shape != (n, 3):
            raise DomainError("record force/torque must be 3-vectors, one row per record")
        finite = (
            np.isfinite(self.omega)
            & np.isfinite(self.delta)
            & np.isfinite(self.force).all(axis=1)
            & np.isfinite(self.torque).all(axis=1)
        )
        bad = ~finite | (self.omega < 0.0)
        if bad.any():
            row = int(np.argmax(bad))
            if not finite[row]:
                raise _InvalidRecord(row, "values must be finite")
            raise _InvalidRecord(
                row, f"rotor speed must be >= 0, got {float(self.omega[row])!r}"
            )

    def __len__(self) -> int:
        return self.omega.shape[0]


@dataclass
class FitResult:
    """Identified coefficients with per-coefficient diagnostics.

    ``residual_rms`` is the RMS residual of the measurement channel a
    coefficient was fit on; ``std_error`` the usual least-squares
    standard error (zero for a perfect fit).  ``intercepts`` is only
    populated when the fit was run in intercept mode.
    """

    values: dict[str, float]
    residual_rms: dict[str, float]
    std_error: dict[str, float]
    n_records: int
    intercepts: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise DomainError(f"fitted constant {name} must be finite, got {value!r}")


def _lstsq_channel(X: np.ndarray, y: np.ndarray, names: tuple[str, ...], intercept: bool):
    """Least squares on one channel; returns (coefs, rms, std_errs, intercept)."""
    n = X.shape[0]
    if intercept:
        X = np.hstack([X, np.ones((n, 1))])
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        raise InsufficientExcitationError(names)
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    residual = y - X @ coef
    rms = float(np.sqrt(np.mean(residual**2)))
    dof = n - X.shape[1]
    if dof > 0:
        sigma2 = float(residual @ residual) / dof
        cov = sigma2 * np.linalg.inv(X.T @ X)
        std = np.sqrt(np.diag(cov))
    else:
        std = np.zeros(X.shape[1])
    icept = float(coef[-1]) if intercept else 0.0
    k = len(names)
    return coef[:k], rms, std[:k], icept


def fit_params(
    records: BenchRecords,
    constants: tuple[str, ...] = ALL_CONSTANTS,
    intercept: bool = False,
) -> FitResult:
    """Identify model coefficients from bench records by least squares.

    Args:
        records: at least two bench measurements.
        constants: subset of ``("k_t", "k_m", "k_l", "k_d", "k_p")`` to
            identify; channels not needed for the subset are ignored.
        intercept: additionally estimate a constant bias per channel
            (diagnostic; the physical model has none).

    Returns:
        FitResult covering exactly ``constants``.

    Raises:
        DomainError: on an empty/underspecified dataset, an empty
            ``constants``, or a repeated or unknown name in it.
        InsufficientExcitationError: if a requested coefficient's
            regressor carries no information (e.g. every record has
            ``delta == 0`` so ``k_l``, ``k_d``, ``k_p`` are invisible).
    """
    if not constants:
        raise DomainError("no constants requested")
    repeated = sorted({c for c in constants if constants.count(c) > 1})
    if repeated:
        raise DomainError(f"constants requested more than once: {repeated}")
    unknown = [c for c in constants if c not in ALL_CONSTANTS]
    if unknown:
        raise DomainError(f"unknown constants requested: {unknown}")
    if len(records) < 2:
        raise DomainError("need at least two records to fit")

    w2 = records.omega**2
    w2d = w2 * records.delta
    w2d2 = w2 * records.delta**2

    values: dict[str, float] = {}
    rms: dict[str, float] = {}
    std: dict[str, float] = {}
    icepts: dict[str, float] = {}
    bad: list[str] = []

    def channel(names, X, y, signs):
        try:
            coef, r, s, b = _lstsq_channel(X, y, names, intercept)
        except InsufficientExcitationError:
            bad.extend(names)
            return
        for name, c, sd, sign in zip(names, coef, s, signs):
            values[name] = sign * float(c)
            rms[name] = r
            std[name] = float(sd)
        icepts[_CHANNEL_OF[names[0]]] = b

    want = set(constants)
    if {"k_t", "k_d"} & want:
        fz = records.force[:, 2]
        if "k_d" in want:
            channel(("k_t", "k_d"), np.column_stack([w2, w2d2]), fz, (-1.0, 1.0))
        else:
            channel(("k_t",), w2.reshape(-1, 1), fz, (-1.0,))
    if "k_l" in want:
        channel(("k_l",), w2d.reshape(-1, 1), records.force[:, 0], (-1.0,))
    if "k_p" in want:
        channel(("k_p",), w2d.reshape(-1, 1), records.torque[:, 1], (-1.0,))
    if "k_m" in want:
        channel(("k_m",), w2.reshape(-1, 1), records.torque[:, 2], (1.0,))

    bad = [c for c in bad if c in want]
    if bad:
        raise InsufficientExcitationError(tuple(sorted(bad)))

    return FitResult(
        values={c: values[c] for c in constants},
        residual_rms={c: rms[c] for c in constants},
        std_error={c: std[c] for c in constants},
        n_records=len(records),
        intercepts=icepts if intercept else {},
    )


def generate_synthetic(
    params: VehicleParams,
    omega_values: np.ndarray,
    delta_values: np.ndarray,
    relative_noise: float = 0.0,
    seed: int = 0,
) -> BenchRecords:
    """Bench records for every (omega, delta) grid combination.

    Records run over ``delta_values`` for each of ``omega_values`` in
    turn.  Wrenches come from the single-side force/moment model of
    :mod:`tailsim.model` (left-side reaction-torque sign, about the
    unit's own hub), evaluated on the whole grid at once.
    ``relative_noise`` applies multiplicative Gaussian perturbations
    ``x * (1 + sigma * n)`` to every measured component, drawn force then
    torque per record and seeded for reproducibility.

    Raises:
        DomainError: on a negative or non-finite ``relative_noise``, a
            ``seed`` that is not an integer >= 0 (whether or not noise is
            drawn), a negative or non-finite rotor speed, or a deflection
            outside ``|delta| <= delta_max``.
    """
    if not 0.0 <= relative_noise < math.inf:
        raise DomainError(f"relative_noise must be finite and >= 0, got {relative_noise!r}")
    if not is_integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    deltas = np.asarray(delta_values, dtype=float)
    omegas = np.asarray(omega_values, dtype=float)
    omega = np.repeat(omegas, len(deltas))
    delta = np.tile(deltas, len(omegas))
    bad = ~(np.isfinite(omega) & (omega >= 0.0))
    if bad.any():
        w = float(omega[np.argmax(bad)])
        raise DomainError(f"rotor speed must be finite and >= 0, got {w!r}")
    bad = ~(np.abs(delta) <= params.delta_max + 1e-12)
    if bad.any():
        d = float(delta[np.argmax(bad)])
        raise DomainError(
            f"elevon deflection must satisfy |delta| <= {params.delta_max}, got {d!r}"
        )

    # columns fx, fy, fz, mx, my, mz of propeller plus slipstream (fy and
    # mx are 0.0); the "0.0 +" terms add one part's zero to the other's
    # value, as the per-side sum does, and turn -0.0 into +0.0, which
    # "%.17g" would print as "-0"
    w2 = omega * omega
    wrench = np.zeros((len(omega), 6))
    wrench[:, 0] = 0.0 + -params.k_l * w2 * delta
    wrench[:, 2] = -params.k_t * w2 + params.k_d * w2 * delta * delta
    wrench[:, 4] = 0.0 + -params.k_p * w2 * delta
    wrench[:, 5] = params.k_m * w2 + 0.0
    if relative_noise > 0.0:
        rng = np.random.default_rng(seed)
        wrench *= 1.0 + relative_noise * rng.standard_normal(wrench.shape)
    return BenchRecords(omega, delta, wrench[:, :3], wrench[:, 3:])


def _rows(records: BenchRecords, lo: int, hi: int) -> list[str]:
    """The CSV text of rows ``lo`` to ``hi`` of ``records``, as one string
    from one ``%`` of the row template repeated over them."""
    table = np.column_stack((records.omega[lo:hi], records.delta[lo:hi],
                             records.force[lo:hi], records.torque[lo:hi]))
    return [(_ROW * len(table)) % tuple(table.ravel().tolist())]


def write_records_csv(path, records: BenchRecords) -> None:
    """Write bench records with the canonical header, one ``%.17g`` row each.

    Rows are formatted by :func:`_rows` and written ``_ROWS_PER_WRITE`` at a
    time by :func:`_forked.write_csv`, on two processes from two chunks on.
    A regular file is replaced only once every row is written.
    """
    _forked.write_csv(path, CSV_HEADER + "\n", lambda lo, hi: _rows(records, lo, hi),
                      len(records), _ROWS_PER_WRITE)


def read_records_csv(path) -> BenchRecords:
    """Read bench records; the header must match the canonical schema.

    Blank lines are skipped.  A malformed or invalid row, or one that is
    not UTF-8, is reported with its line number.  The rows are parsed by
    ``numpy.loadtxt``, whose C reader converts each field as ``float``
    does.  From ``2 * _SPLIT_BYTES`` bytes of rows on, when a second
    process can run (see :func:`_forked.can_fork`), the rows are cut at the line
    feed after their middle byte: a forked child parses the first part
    while this process parses the rest, and each field gets the same value
    either way.  When a parse fails (in either process, or the child
    fails), the table is not 8 columns wide or a record is invalid, the
    file is read again line by line, which names the offending line and
    also takes what only ``float`` accepts (digit underscores, non-ASCII
    digits, whitespace-only lines).
    """
    # bytes that are not UTF-8 decode to lone surrogates, which no parser
    # takes, so such a line fails both and the line loop names it
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = fh.readline()
        if _undecodable(header):
            raise DomainError("line 1: not valid UTF-8")
        header = header.strip()
        if [c.strip() for c in header.split(",")] != [
            c.strip() for c in CSV_HEADER.split(",")
        ]:
            raise DomainError(
                f"unexpected CSV header {header!r}; expected {CSV_HEADER!r}"
            )
        body = fh.tell()
        table = _load_rows(fh, body)
        if table is not None:
            try:
                return _records_of(table)
            except _InvalidRecord:
                pass
        fh.seek(body)
        return _read_records_lines(fh)


def _records_of(table: np.ndarray) -> BenchRecords:
    return BenchRecords(table[:, 0], table[:, 1], table[:, 2:5], table[:, 5:])


def _undecodable(line: str) -> bool:
    """True if ``line`` holds bytes that were not UTF-8 (surrogate escapes)."""
    if line.isascii():
        return False
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _loadtxt(lines) -> np.ndarray | None:
    """``lines`` parsed by ``numpy.loadtxt``: a table 8 columns wide (no
    rows if they are all blank), or None where it fails or is not."""
    try:
        with warnings.catch_warnings():
            # a file without rows is an empty table, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0:
        return table.reshape(0, 8)
    return table if table.shape[1] == 8 else None


def _load_head(fd: int, start: int, stop: int) -> np.ndarray | None:
    """:func:`_loadtxt` of the bytes ``start`` to ``stop`` of the open file
    ``fd``, read whole with ``pread`` (the file's offset does not move)."""
    data = os.pread(fd, stop - start, start)
    if len(data) != stop - start:
        raise OSError("short read")
    return _loadtxt(io.StringIO(data.decode("utf-8", "surrogateescape"), newline=""))


def _load_rows(fh, body: int) -> np.ndarray | None:
    """:func:`_loadtxt` of the rows of ``fh`` from byte ``body`` on; from
    ``2 * _SPLIT_BYTES`` bytes on, a forked child parses those before the
    line feed after the middle byte while this process parses the rest."""
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    split = None
    if size - body >= 2 * _SPLIT_BYTES and _forked.can_fork():
        split = _line_start(fd, (body + size) // 2, size)
    child = None if split is None else _forked.fork(
        lambda out: _send_table(out, _load_head(fd, body, split))
    )
    if child is None:
        return _loadtxt(fh)
    try:
        fh.seek(split)
        tail = _loadtxt(fh)
        count = np.zeros(1, dtype=np.int64)
        if tail is None or not child.read_into(count.view(np.uint8)):
            return None
        rows = int(count[0])
        table = np.empty((rows + len(tail), 8))
        table[rows:] = tail
        if child.read_into(table[:rows].reshape(-1).view(np.uint8)) and child.join():
            return table
        return None
    finally:
        child.join()


def _send_table(out, table: np.ndarray | None) -> None:
    """Write a table for :func:`_load_rows`: its row count, then its
    float64 values; a failed parse raises, so the child exits non-zero."""
    if table is None:
        raise ValueError("rows do not parse as 8 columns")
    out.write(np.int64(len(table)).tobytes())
    out.write(table.data)


def _line_start(fd: int, pos: int, stop: int) -> int | None:
    """The offset just past the first line feed at or after ``pos``, if one
    lies within ``_forked.PIPE_BUFFER`` bytes and before ``stop``."""
    found = os.pread(fd, _forked.PIPE_BUFFER, pos).find(b"\n")
    if found < 0 or pos + found + 1 >= stop:
        return None
    return pos + found + 1


def _read_records_lines(fh) -> BenchRecords:
    """The rows after the header, one ``float`` per field, naming bad lines."""
    values = array("d")
    line_numbers = array("q")
    for line_no, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        if _undecodable(line):
            raise DomainError(f"line {line_no}: not valid UTF-8")
        parts = line.split(",")
        if len(parts) != 8:
            raise DomainError(f"line {line_no}: expected 8 columns, got {len(parts)}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise DomainError(f"line {line_no}: {exc}") from exc
        line_numbers.append(line_no)
    try:
        return _records_of(np.frombuffer(values, dtype=float).reshape(-1, 8))
    except _InvalidRecord as exc:
        raise DomainError(f"line {line_numbers[exc.row]}: {exc.reason}") from None


def write_fit_params(path, fit: FitResult) -> None:
    """Write fitted coefficients as a flat key-value parameter file.

    The output is loadable as configuration overrides; diagnostics ride
    along as comments.
    """
    lines = ["# fitted model coefficients", f"# records: {fit.n_records}"]
    for name in fit.values:
        lines.append(f"{name} = {fit.values[name]:.17g}")
        lines.append(
            f"#   residual_rms = {fit.residual_rms[name]:.6g}, "
            f"std_error = {fit.std_error[name]:.6g}"
        )
    for channel, bias in fit.intercepts.items():
        lines.append(f"# intercept[{channel}] = {bias:.6g}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
