"""Reference trajectories, closed-loop scenario runs, logging, and metrics.

A scenario couples a reference trajectory (hover hold, waypoint legs,
circle, or star) with the full closed loop: physics stepped at the
configured rate, sensors sampled and fused when the complementary
estimator is selected, the controller cascade polled at the rate-loop
frequency, and a fixed-rate log captured before each logged tick is
stepped.  Everything is deterministic given the configuration and seed.

Waypoint-style paths use a trapezoidal speed profile per leg (capped at
the configured speed, symmetric acceleration), so commanded positions
are continuous and commanded speed never exceeds the cap.  After the
path ends the reference holds the final point.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import astuple, dataclass, field

import numpy as np

from . import _forked
from .config import MIN_LEG_LENGTH_M, Config, leg_length
from .control import CascadeController, StateEstimate
from .errors import ConfigError, DomainError, MetricsWindowError, SimulationDivergedError
from .model import ActuatorState, total_wrench
from .rotations import quat_to_matrix_f, wrap_angle
from .sim import ComplementaryEstimator, Normals, VehicleState, plant, rk4, sense, vector

# the per-step call, compiled or Python (see tailsim.sim.KERNEL); perfbench's
# tracer wraps this binding as the ``sim.step`` span
step = rk4

LOG_COLUMNS = (
    "t",
    "ref_px", "ref_py", "ref_pz", "ref_vx", "ref_vy", "ref_vz", "ref_psi",
    "px", "py", "pz", "vx", "vy", "vz",
    "qw", "qx", "qy", "qz", "wx", "wy", "wz",
    "est_px", "est_py", "est_pz", "est_vx", "est_vy", "est_vz",
    "est_qw", "est_qx", "est_qy", "est_qz", "est_wx", "est_wy", "est_wz",
    "fdes_x", "fdes_y", "fdes_z",
    "wdes_x", "wdes_y", "wdes_z",
    "mdes_x", "mdes_y", "mdes_z",
    "cmd_omega_left", "cmd_omega_right", "cmd_delta_left", "cmd_delta_right",
    "act_omega_left", "act_omega_right", "act_delta_left", "act_delta_right",
    "saturated", "roll_clamped",
)

_FLAG_COLUMNS = ("saturated", "roll_clamped")
# one log row: floats round-trip exactly (``%.17g``), flags as ints
_ROW = ",".join("%d" if name in _FLAG_COLUMNS else "%.17g" for name in LOG_COLUMNS) + "\n"
# rows per ``%`` of the row template in ScenarioLog._rows_csv
_CSV_BLOCK = 32
# rows per write in ScenarioLog.write_csv, on two processes from two chunks on
_ROWS_PER_WRITE = 1024


# ---------------------------------------------------------------------------
# reference trajectories


@dataclass
class _Leg:
    """One straight path segment under a trapezoidal speed profile."""

    t0: float                 # leg start time, s
    duration: float           # leg duration, s
    p0: tuple                 # leg start point, 3 floats
    u: tuple                  # unit direction, 3 floats
    length: float
    accel: float
    t_acc: float              # acceleration phase duration, s
    v_peak: float

    def sample(self, tau: float) -> tuple[float, float]:
        """(distance along leg, speed) at leg-relative time ``tau``."""
        tau = min(max(tau, 0.0), self.duration)
        if tau <= self.t_acc:
            return 0.5 * self.accel * tau * tau, self.accel * tau
        if tau >= self.duration - self.t_acc:
            rem = self.duration - tau
            return self.length - 0.5 * self.accel * rem * rem, self.accel * rem
        d_acc = 0.5 * self.accel * self.t_acc * self.t_acc
        return d_acc + self.v_peak * (tau - self.t_acc), self.v_peak


def _make_legs(points, speed: float, accel: float, dwell: float = 0.0) -> list[_Leg]:
    """Trapezoidal legs through ``points`` (x,y,z triples) with a hold after each leg.

    The dwell lets the closed loop settle at each waypoint before the
    next leg excites it again; the reference holds the waypoint (zero
    velocity) for that long.
    """
    legs: list[_Leg] = []
    t0 = 0.0
    for a, b in zip(points, points[1:]):
        length = leg_length(a, b)
        if length < MIN_LEG_LENGTH_M:
            continue
        (ax, ay, az), (bx, by, bz) = a, b
        dx, dy, dz = bx - ax, by - ay, bz - az
        t_acc = speed / accel
        if length < accel * t_acc * t_acc:       # too short to reach the cap
            v_peak = math.sqrt(length * accel)
            t_acc = v_peak / accel
            duration = 2.0 * t_acc
        else:
            v_peak = speed
            duration = 2.0 * t_acc + (length - accel * t_acc * t_acc) / speed
        legs.append(
            _Leg(t0, duration, (ax, ay, az), (dx / length, dy / length, dz / length),
                 length, accel, t_acc, v_peak)
        )
        t0 += duration + dwell
    if not legs:
        raise DomainError("path has no legs with nonzero length")
    return legs


def _star_vertices(center: tuple, radius: float, n_points: int) -> list[tuple]:
    """Closed star polygon: every second vertex of a regular n-gon."""
    step_k = 2 if n_points % 2 else 1   # even counts fall back to the n-gon
    angles = [
        math.pi / 2 + (step_k * k) * 2.0 * math.pi / n_points
        for k in range(n_points + 1)
    ]
    cx, cy, cz = center
    return [(cx + radius * math.cos(a), cy + radius * math.sin(a), cz) for a in angles]


@dataclass
class Scenario:
    """A reference trajectory definition over a fixed time horizon.

    ``legs`` is stored as a tuple, ``hover_pos`` and a circle's centre as
    three floats (:func:`tailsim.sim.vector`).  What :func:`reference` needs on
    every call is computed once here: the legs' start times, which it
    bisects, the circle's rate, centre, radius and speed, and the heading of
    each leg (or the fixed one), wrapped to (-pi, pi].
    """

    kind: str
    duration_s: float
    yaw_mode: str = "fixed"
    yaw_fixed_rad: float = 0.0
    hover_pos: tuple = (0.0, 0.0, 1.5)
    circle_center: tuple | None = None
    circle_radius: float = 1.5
    circle_rate: float = 1.0          # rad/s, = speed / radius
    legs: tuple[_Leg, ...] = ()
    leg_starts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _circle: tuple = field(default=(), init=False, repr=False, compare=False)
    _yaw: float = field(init=False, repr=False, compare=False)
    _leg_yaws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_s < math.inf:
            raise DomainError(f"duration must be finite and > 0, got {self.duration_s}")
        if not math.isfinite(self.yaw_fixed_rad):
            raise DomainError(f"fixed yaw must be finite, got {self.yaw_fixed_rad}")
        self.legs = tuple(self.legs)
        self.leg_starts = tuple([leg.t0 for leg in self.legs])
        # wrap_angle is idempotent, so each heading is wrapped once, here
        self._yaw = wrap_angle(self.yaw_fixed_rad)
        self._leg_yaws = tuple([
            wrap_angle(_leg_yaw(leg, self.yaw_fixed_rad)) if self.yaw_mode == "tangent"
            else self._yaw
            for leg in self.legs
        ])
        self.hover_pos = vector(self.hover_pos, "Scenario.hover_pos")
        if self.kind == "circle":
            self.circle_center = vector(self.circle_center, "Scenario.circle_center")
            rate, r = float(self.circle_rate), float(self.circle_radius)
            self._circle = (rate, *self.circle_center, r, rate * r)


def make_scenario(config: Config) -> Scenario:
    """Build the Scenario selected by the configuration."""
    h = config.harness
    common = dict(
        duration_s=h.duration_s, yaw_mode=h.yaw_mode, yaw_fixed_rad=h.yaw_fixed_rad
    )
    if h.scenario == "hover":
        return Scenario("hover", hover_pos=h.hover_pos, **common)
    if h.scenario == "circle":
        return Scenario(
            "circle",
            circle_center=h.circle_center,
            circle_radius=h.circle_radius_m,
            circle_rate=h.circle_speed_mps / h.circle_radius_m,
            **common,
        )
    if h.scenario == "waypoint":
        legs = _make_legs(
            h.waypoints, h.waypoint_speed_mps, h.waypoint_accel_mps2,
            h.waypoint_dwell_s,
        )
        return Scenario("waypoint", legs=legs, **common)
    if h.scenario == "star":
        vertices = _star_vertices(h.star_center, h.star_radius_m, h.star_points)
        legs = _make_legs(
            vertices, h.star_speed_mps, h.star_accel_mps2, h.waypoint_dwell_s
        )
        return Scenario("star", legs=legs, **common)
    raise DomainError(f"unknown scenario kind {h.scenario!r}")


def _leg_yaw(leg: _Leg, fallback: float) -> float:
    if abs(leg.u[0]) < 1e-12 and abs(leg.u[1]) < 1e-12:
        return fallback
    return math.atan2(leg.u[1], leg.u[0])


def reference(t: float, scenario: Scenario) -> tuple[tuple, tuple, float]:
    """Reference sample at time ``t``: ``(p_des, v_des, psi_des)``.

    The desired position and velocity (world frame) are 3-tuples of
    floats, and the desired heading is a float in (-pi, pi].

    Raises:
        DomainError: if ``t`` lies outside [0, duration], or the sample is
            not finite.
    """
    if not -1e-9 <= t <= scenario.duration_s + 1e-9:
        raise DomainError(
            f"reference time {t!r} outside [0, {scenario.duration_s}]"
        )
    kind = scenario.kind
    if kind == "circle":
        rate, cx, cy, cz, r, speed = scenario._circle
        theta = rate * t
        c, s = math.cos(theta), math.sin(theta)
        px, py, pz = cx + r * c, cy + r * s, cz + 0.0
        vx, vy, vz = -speed * s, speed * c, 0.0
        if scenario.yaw_mode == "tangent":
            yaw = wrap_angle(theta + math.pi / 2.0)
        else:
            yaw = scenario._yaw
    elif kind == "hover":
        px, py, pz = scenario.hover_pos
        vx = vy = vz = 0.0
        yaw = scenario._yaw
    else:
        # waypoint / star: locate the active leg
        legs = scenario.legs
        i = max(bisect_right(scenario.leg_starts, t) - 1, 0)
        leg = legs[i]
        (ax, ay, az), (ux, uy, uz) = leg.p0, leg.u
        if t >= leg.t0 + leg.duration and i == len(legs) - 1:
            dist = leg.length
            vx = vy = vz = 0.0
        else:
            dist, speed = leg.sample(t - leg.t0)
            vx, vy, vz = speed * ux, speed * uy, speed * uz
        px, py, pz = ax + dist * ux, ay + dist * uy, az + dist * uz
        yaw = scenario._leg_yaws[i]
    # x - x is 0.0 for every finite x and nan otherwise, and cannot overflow
    if ((px - px) + (py - py) + (pz - pz) + (vx - vx) + (vy - vy) + (vz - vz)
            + (yaw - yaw) != 0.0):
        raise DomainError("setpoint must be finite")
    return (px, py, pz), (vx, vy, vz), yaw


# ---------------------------------------------------------------------------
# logging


class ScenarioLog:
    """Fixed-rate log of one scenario run (one row per logging tick)."""

    def __init__(self, n_rows: int):
        self.data = np.zeros((n_rows, len(LOG_COLUMNS)))
        self._row = 0

    def append(self, row: list[float]) -> None:
        self.data[self._row] = row
        self._row += 1

    def __len__(self) -> int:
        return self._row

    def column(self, name: str) -> np.ndarray:
        """One column by name, trimmed to the rows actually written."""
        return self.data[: self._row, LOG_COLUMNS.index(name)]

    def columns(self, *names: str) -> np.ndarray:
        """Several columns stacked as (n_rows, len(names))."""
        idx = [LOG_COLUMNS.index(n) for n in names]
        return self.data[: self._row, idx]

    def to_csv(self) -> str:
        """The log as CSV: floats round-trip exactly (``%.17g``), flags as ints."""
        return "".join([",".join(LOG_COLUMNS) + "\n", *self._rows_csv(0, self._row)])

    def _rows_csv(self, start: int, stop: int) -> list[str]:
        """The CSV text of rows ``start`` to ``stop``, one string per
        ``_CSV_BLOCK`` rows, each from one ``%`` of the row template repeated
        over the block.  A row's text depends only on its own values."""
        parts = []
        for lo in range(start, stop, _CSV_BLOCK):
            block = self.data[lo : min(lo + _CSV_BLOCK, stop)]
            parts.append((_ROW * len(block)) % tuple(block.ravel().tolist()))
        return parts

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv`'s text to ``path``, ``_ROWS_PER_WRITE`` rows at
        a time, on two processes from two chunks on (:func:`_forked.write_csv`)."""
        header = ",".join(LOG_COLUMNS) + "\n"
        _forked.write_csv(path, header, self._rows_csv, self._row, _ROWS_PER_WRITE)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    """Tracking-quality summary of one run.

    RMS errors are taken after the transient window; peaks over the full
    log.  ``peak_pitch_rad`` is the largest tilt of the thrust axis away
    from vertical.  ``latency_s`` is the mean cross-correlation delay
    between reference and response over the axes the reference actually
    excites (0 when none are).
    """

    rms_m: np.ndarray            # per-axis RMS position error, m
    peak_m: np.ndarray           # per-axis peak position error, m
    peak_pitch_rad: float
    peak_speed_mps: float
    latency_s: float

    def __post_init__(self) -> None:
        self.rms_m = np.asarray(self.rms_m, dtype=float)
        self.peak_m = np.asarray(self.peak_m, dtype=float)
        if np.any(self.rms_m < 0.0) or np.any(self.peak_m + 1e-15 < self.rms_m):
            raise DomainError("metrics must satisfy 0 <= rms <= peak per axis")

    def to_dict(self) -> dict[str, float]:
        return {
            "rms_x_m": float(self.rms_m[0]),
            "rms_y_m": float(self.rms_m[1]),
            "rms_z_m": float(self.rms_m[2]),
            "peak_x_m": float(self.peak_m[0]),
            "peak_y_m": float(self.peak_m[1]),
            "peak_z_m": float(self.peak_m[2]),
            "peak_pitch_rad": float(self.peak_pitch_rad),
            "peak_speed_mps": float(self.peak_speed_mps),
            "latency_s": float(self.latency_s),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_json())


# samples per left-to-right partial sum in _correlation_lag's exact sums;
# the block sums are then added up left to right, block by block
_SAMPLE_BLOCK = 32
_LAG_CHUNK = 32  # lags whose exact sums are formed in one product array
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def _block_sums(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_i r[i] * rows[i, j]`` for each column ``j`` of ``rows``, in a fixed order.

    The products are added left to right within each block of
    ``_SAMPLE_BLOCK`` samples, and the block sums left to right onto
    ``0.0``.  ``np.add.accumulate`` is sequential by definition, where
    ``np.add.reduce`` may sum a narrow axis pairwise.  The last block is
    filled with ``-0.0``, which added to any float leaves it unchanged.
    """
    n, width = rows.shape
    blocks = -(-n // _SAMPLE_BLOCK)
    out = np.empty(width)
    for c in range(0, width, _LAG_CHUNK):
        cols = rows[:, c:c + _LAG_CHUNK]
        m = cols.shape[1]
        terms = np.full((blocks * _SAMPLE_BLOCK, m), -0.0)
        np.multiply(r[:, None], cols, out=terms[:n])
        sums = np.zeros((blocks + 1, m))
        sums[1:] = np.add.accumulate(terms.reshape(blocks, _SAMPLE_BLOCK, m), axis=1)[:, -1]
        out[c:c + m] = np.add.accumulate(sums, axis=0)[-1]
    return out


def _correlation_lag(ref: np.ndarray, resp: np.ndarray, dt: float, max_lag_s: float = 2.0) -> float:
    """Delay (s, positive = response late) maximizing the cross-correlation.

    Uses the raw (unnormalised) cross-correlation: per-lag overlap
    normalisation amplifies truncation artefacts and can displace the
    peak badly when the record is only a few signal periods long, while
    the raw estimate's taper bias stays under a couple of samples for
    records much longer than the lag.  A parabolic fit through the peak
    refines the estimate below the sample period.

    Only the lags within ``max_lag_s`` are formed, in two passes.  The
    screen, ``np.correlate``, gives every lag's sum in whatever order
    numpy and BLAS choose.  The lags whose screened sum is within
    ``slack`` of the screened maximum are the candidates.  The span from
    the first candidate to the last, one lag wider each way for the
    parabola, then gets its sums in a fixed order (:func:`_block_sums`);
    ``argmax`` and the parabolic fit read only these.  The result is the
    same float as summing every lag in that order, and does not depend
    on the BLAS kernel or the CPU.

    Why the candidates hold the fixed-order argmax and every lag tied
    with it.  Each sum at a lag is a recursive sum of its ``n`` products
    in some order, each product passing through at most ``n`` roundings,
    so it is within ``e = gamma_n S + n TINY / 2`` of the true sum ``T``,
    where ``gamma_n = n u / (1 - n u)``, ``u = eps / 2``, ``S`` is the sum
    of the products' magnitudes and ``TINY / 2`` bounds a product's
    underflow.  At every lag ``S <= B = n max|r| max|y|``.  If ``k`` is
    the fixed-order argmax, then at every lag ``j``::

        screen[k] >= T[k] - e >= fixed[k] - 2e >= fixed[j] - 2e
                  >= T[j] - 3e >= screen[j] - 4e

    and ``4e`` is about ``2 n eps B + 2 n TINY``.  ``slack = n (4 eps B +
    4 TINY)`` is twice that, which also covers the rounding of ``B``,
    ``slack`` and ``top - slack``.  ``B`` is a product of Python floats,
    computed times four, so that a ``B`` near the top of float range,
    where a sum could overflow, makes ``slack`` infinite without a
    warning.  A screened maximum or ``slack`` that is not finite (an
    overflow, an inf or a nan in the input) makes the span every lag:
    the fixed-order sums then give the same nan or inf as they would
    without the screen.
    """
    r = ref - ref.mean()
    y = resp - resp.mean()
    n = len(r)
    max_lag = min(n - 1, int(round(max_lag_s / dt)))
    pad = np.zeros(max_lag)
    padded = np.concatenate((pad, y, pad))
    # row i holds y[i + lag] for lag = -max_lag..max_lag, zero outside
    rows = np.lib.stride_tricks.sliding_window_view(padded, 2 * max_lag + 1)
    screen = np.correlate(padded, r, "valid")
    top = float(np.max(screen))
    bound = 4.0 * n * float(np.max(np.abs(r))) * float(np.max(np.abs(y)))
    slack = n * (_EPS * bound + 4.0 * _TINY)
    lo, hi = 0, len(screen)
    if math.isfinite(top) and math.isfinite(slack):
        hit = screen >= top - slack
        lo = max(int(np.argmax(hit)) - 1, 0)
        hi = min(len(hit) + 1 - int(np.argmax(hit[::-1])), len(hit))
    cw = _block_sums(r, rows[:, lo:hi])
    j = int(np.argmax(cw))
    k = lo + j
    best = float(k - max_lag)
    if 0 < k < len(screen) - 1:
        # the span holds a candidate's neighbours: cw[j -/+ 1] is lag k -/+ 1
        curvature = cw[j - 1] - 2.0 * cw[j] + cw[j + 1]
        if curvature < 0.0:
            best += 0.5 * float(cw[j - 1] - cw[j + 1]) / float(curvature)
    return best * dt


def _window_start(t: np.ndarray, transient_window_s: float) -> int:
    """Index of the first sample time at or after the transient window.

    Raises:
        MetricsWindowError: fewer than two samples in ``t``, or fewer than
            two at or after ``transient_window_s``.
    """
    if len(t) < 2:
        raise MetricsWindowError("log needs at least two rows")
    i0 = int(np.searchsorted(t, transient_window_s - 1e-12))
    if i0 >= len(t) - 1:
        raise MetricsWindowError(
            f"log ends at {t[-1]:.3f} s, inside the {transient_window_s:.3f} s "
            "transient window"
        )
    return i0


def metrics(log: ScenarioLog, transient_window_s: float = 5.0) -> Metrics:
    """Compute tracking metrics from a run log.

    Raises:
        MetricsWindowError: empty log, or nothing left after the
            transient window.
    """
    t = log.column("t")
    i0 = _window_start(t, transient_window_s)
    ref_p = log.columns("ref_px", "ref_py", "ref_pz")
    p = log.columns("px", "py", "pz")

    err = ref_p - p
    rms = np.sqrt(np.mean(err[i0:] ** 2, axis=0))
    peak = np.max(np.abs(err), axis=0)

    qx = log.column("qx")
    qy = log.column("qy")
    cos_tilt = np.clip(2.0 * (qx**2 + qy**2) - 1.0, -1.0, 1.0)
    peak_pitch = float(np.max(np.arccos(cos_tilt)))

    v = log.columns("vx", "vy", "vz")
    peak_speed = float(np.max(np.linalg.norm(v, axis=1)))

    dt = float(t[1] - t[0])
    lags = [
        _correlation_lag(ref_p[i0:, axis], p[i0:, axis], dt)
        for axis in range(3)
        if np.std(ref_p[i0:, axis]) > 1e-9
    ]
    latency = float(np.mean(lags)) if lags else 0.0

    return Metrics(rms, peak, peak_pitch, peak_speed, latency)


# ---------------------------------------------------------------------------
# closed-loop execution


def hover_attitude(yaw: float) -> np.ndarray:
    """Body-to-world quaternion of the level hover attitude at heading ``yaw``.

    ``Rz(yaw) diag(1, -1, -1)`` is ``(0, cos(yaw/2), sin(yaw/2), 0)``, up
    to sign; the sign whose larger component is positive is returned, as
    Shepperd's matrix-to-quaternion method picks it.
    """
    c, s = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    if s < -c:
        c, s = -c, -s
    return np.array([0.0, c, s, 0.0])


def initial_state(config: Config, scenario: Scenario) -> VehicleState:
    """Start on the reference (plus configured offset) with trimmed actuators."""
    p_des, v_des, psi_des = reference(0.0, scenario)
    omega_h = config.params.hover_rotor_speed()
    return VehicleState(
        p=[c + offset for c, offset in zip(p_des, config.harness.start_offset)],
        v=v_des,
        q=hover_attitude(psi_des),
        omega=np.zeros(3),
        act=ActuatorState(omega_h, omega_h, 0.0, 0.0),
    )


def run_scenario(config: Config) -> tuple[ScenarioLog, Metrics]:
    """Execute one closed-loop scenario; return its log and metrics.

    Physics advances at the configured rate by one kernel,
    :data:`tailsim.sim.rk4` (the compiled twin of :func:`tailsim.sim.advance`
    when it loaded), on the state and actuator floats the loop carries,
    with the constants of :func:`tailsim.sim.plant` built once per call.
    The controller cascade is ticked at the rate-loop frequency (the outer
    stages fire on every n-th tick; each tick's command is read as four
    floats); with the complementary estimator, IMU samples (and
    pose fixes at the pose rate) are fused as they arrive.  The log
    captures the state at each logging tick before it is stepped.

    Only the complementary estimator's sensing draws noise, so only then
    is the random generator seeded (and ``numpy.random`` imported): a
    perfect-estimator run loads no random generator.  Its normals are
    drawn in blocks (:class:`tailsim.sim.Normals`), the same stream as
    one draw per sample.

    Raises:
        SimulationDivergedError: with the failure timestamp attached.
        ConfigError: via configuration validation at entry.
        MetricsWindowError: before the first step, when fewer than two
            logged samples would fall at or after the transient window.
    """
    problems = config.scenario_problems()
    if problems:
        raise ConfigError(problems)

    params = config.params
    h = config.harness
    scenario = make_scenario(config)
    disturbance = config.disturbance

    physics_rate = h.physics_rate_hz
    dt = 1.0 / physics_rate
    n_steps = int(round(scenario.duration_s * physics_rate))
    ctrl_every = physics_rate // config.rates.rate_rate
    imu_every = physics_rate // h.imu_rate_hz
    pose_every = physics_rate // h.pose_rate_hz
    log_every = physics_rate // h.logging_rate_hz
    n_rows = int(round(scenario.duration_s * h.logging_rate_hz))
    # the logged sample times, with the bits of the loop's k * dt
    _window_start(np.arange(0, n_steps, log_every)[:n_rows] * dt, h.transient_window_s)

    state = initial_state(config, scenario)
    y, act = state.y, astuple(state.act)
    consts = plant(dt, params, disturbance)
    controller = CascadeController(params, config.gains, config.rates)

    complementary = h.estimator == "complementary"
    if complementary:
        normals = Normals(np.random.default_rng(disturbance.seed)).take
        estimator = ComplementaryEstimator(
            StateEstimate(y[0:3], y[3:6], y[6:10], y[10:13]),
            pose_rate=h.pose_rate_hz,
            cutoff_hz=h.imu_cutoff_hz,
        )
        imu_dt = 1.0 / h.imu_rate_hz

    ox, oy, oz = disturbance.force_offset_world
    static_reference = scenario.kind == "hover"   # setpoint is time-invariant
    if static_reference:
        p_des, v_des, psi_des = reference(0.0, scenario)

    log = ScenarioLog(n_rows)
    # every loop ticks at k = 0, so each e_*, *_des and c_* is set before use
    for k in range(n_steps):
        t = k * dt

        if complementary and k % imu_every == 0:
            # the accelerometer reads force only, so the torque offset is left out
            r00, r01, r02, r10, r11, r12, r20, r21, r22 = quat_to_matrix_f(y[6:10])
            R_wb = ((r00, r10, r20), (r01, r11, r21), (r02, r12, r22))  # the transpose
            fx, fy, fz, _, _, _ = total_wrench(ActuatorState(*act), R_wb, params)
            force = (
                fx + (r00 * ox + r10 * oy + r20 * oz),
                fy + (r01 * ox + r11 * oy + r21 * oz),
                fz + (r02 * ox + r12 * oy + r22 * oz),
            )
            with_pose = k % pose_every == 0
            sample = sense(y, force, params, disturbance, normals(12 if with_pose else 6),
                           t, with_pose)
            estimator.update(sample, imu_dt)
            e_p, e_v, e_q, e_w = estimator.p, estimator.v, estimator.q, estimator.omega

        if k % ctrl_every == 0:
            if not complementary:
                e_p, e_v, e_q, e_w = y[0:3], y[3:6], y[6:10], y[10:13]
            if not static_reference:
                p_des, v_des, psi_des = reference(t, scenario)
            c_wl, c_wr, c_dl, c_dr = controller.update(e_p, e_v, e_q, e_w, p_des, v_des, psi_des)

        if k % log_every == 0 and len(log) < n_rows:
            log.append([
                t,
                *p_des, *v_des, psi_des,
                *y,
                *e_p, *e_v, *e_q, *e_w,
                *controller.f_des, *controller.omega_des, *controller.m_des,
                c_wl, c_wr, c_dl, c_dr,
                *act,
                float(controller.saturated), float(controller.roll_clamped),
            ])

        try:
            y, act = step(consts, y, act, c_wl, c_wr, c_dl, c_dr)
        except SimulationDivergedError as exc:
            raise SimulationDivergedError(f"{exc} at t = {t + dt:.6f} s") from None

    return log, metrics(log, h.transient_window_s)
