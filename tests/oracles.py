"""Vector-algebra reference models that the tests check the package against.

These are written independently of the package's fast paths: the wrench
is assembled per side from :func:`prop_wrench` and :func:`aero_wrench`
(the per-side model on arrays, as a :class:`Wrench` of force and torque)
with explicit lever-arm cross products, the rigid-body derivative uses
matrix algebra, the actuator lag is a one-shot exponential step, and the
sensing-and-fusion path (quaternion helpers, low-pass filter,
complementary estimator, accelerometer formula) works on numpy arrays.
:func:`quat_to_matrix` gives the package's float rotation matrix as the
3x3 array these models use.
Synthetic bench records are built one record at a time from the same
per-side wrenches.  The attitude loop is the rotation-matrix version:
Rodrigues tilt times heading times hover flip, and Z-Y-X Euler angles
read from the error matrix.  :func:`reference_step` is the integrator as
first written on floats, with per-stage lists and one wrench-kernel call
per stage.  :func:`reference_clamp_command` is the saturation by builtin
``min``/``max``.  :class:`Setpoint` and :func:`reference_setpoint_at` are
the validated setpoint object and the trajectory lookup that builds one,
rebuilding its leg-start list on every call.  :class:`ObjectCascade` is
the cascade on those objects, with two :class:`ActuatorCommand` per tick.
:func:`reference_to_csv` writes the run log with one row template per
row, formatting every cell.  :func:`reference_write_records_csv` and
:func:`reference_read_records_csv` are the bench-record CSV writer that
formats every cell and the reader that parses line by line with
``float``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from tailsim import control
from tailsim.control import (
    FORCE_FLOOR,
    ActuatorCommand,
    CascadeController,
    ControllerGains,
    StateEstimate,
)
from tailsim.errors import DegenerateThrustError, DomainError, SimulationDivergedError
from tailsim.model import ActuatorState, VehicleParams, actuator_wrench
from tailsim.rotations import quat_to_matrix_f, wrap_angle
from tailsim.scenarios import _FLAG_COLUMNS, LOG_COLUMNS, Scenario, ScenarioLog, _leg_yaw
from tailsim.sim import MAX_PHYSICS_DT, DisturbanceSpec, SensorSample, VehicleState
from tailsim.sysid import CSV_HEADER, BenchRecords, _InvalidRecord

_SIDES = ("left", "right")


@dataclass
class Wrench:
    """A force/torque pair in body axes, N and N m."""

    force: np.ndarray
    torque: np.ndarray

    def __add__(self, other: "Wrench") -> "Wrench":
        return Wrench(self.force + other.force, self.torque + other.torque)


def _check_actuation(omega: float, delta: float | None, params: VehicleParams) -> None:
    if not math.isfinite(omega) or omega < 0.0:
        raise DomainError(f"rotor speed must be finite and >= 0, got {omega!r}")
    if delta is not None:
        if not math.isfinite(delta) or abs(delta) > params.delta_max + 1e-12:
            raise DomainError(
                f"elevon deflection must satisfy |delta| <= {params.delta_max}, got {delta!r}"
            )


def prop_wrench(omega: float, side: str, params: VehicleParams) -> Wrench:
    """Thrust and reaction torque of one propeller about its own hub.

    Args:
        omega: rotor speed, rad/s (>= 0).
        side: "left" or "right"; selects the reaction torque sign
            (left spins so its reaction torque is +z, right -z).
        params: vehicle constants.

    Returns:
        Wrench with force ``(0, 0, -k_t omega^2)`` and torque
        ``(0, 0, +/- k_m omega^2)``.
    """
    if side not in _SIDES:
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    _check_actuation(omega, None, params)
    w2 = omega * omega
    sign = 1.0 if side == "left" else -1.0
    return Wrench(
        np.array([0.0, 0.0, -params.k_t * w2]),
        np.array([0.0, 0.0, sign * params.k_m * w2]),
    )


def aero_wrench(omega: float, delta: float, params: VehicleParams) -> Wrench:
    """Slipstream lift/drag force and elevon pitch torque of one side.

    Args:
        omega: rotor speed driving the slipstream, rad/s (>= 0).
        delta: elevon deflection, rad, ``|delta| <= delta_max``.
        params: vehicle constants.

    Returns:
        Wrench with force ``(-k_l omega^2 delta, 0, k_d omega^2 delta^2)``
        and torque ``(0, -k_p omega^2 delta, 0)``.
    """
    _check_actuation(omega, delta, params)
    w2 = omega * omega
    return Wrench(
        np.array([-params.k_l * w2 * delta, 0.0, params.k_d * w2 * delta * delta]),
        np.array([0.0, -params.k_p * w2 * delta, 0.0]),
    )


def reference_wrench(act: ActuatorState, R_wb: np.ndarray, params: VehicleParams) -> Wrench:
    """Total body wrench about the centre of mass, gravity included.

    Sums both sides' propeller and slipstream wrenches, adds the moments
    the per-side forces produce about the centre of mass (application
    points ``(0, -l, 0)`` left and ``(0, +l, 0)`` right), and adds the
    weight rotated into body axes.
    """
    total = Wrench(R_wb @ (params.m * np.array([0.0, 0.0, -params.g_mag])), np.zeros(3))
    for side, omega, delta, arm_y in (
        ("left", act.omega_left, act.delta_left, -params.l),
        ("right", act.omega_right, act.delta_right, +params.l),
    ):
        side_wrench = prop_wrench(omega, side, params) + aero_wrench(omega, delta, params)
        arm = np.array([0.0, arm_y, 0.0])
        total = total + Wrench(
            side_wrench.force, side_wrench.torque + np.cross(arm, side_wrench.force)
        )
    return total


@dataclass
class StateDerivative:
    p_dot: np.ndarray
    v_dot: np.ndarray
    q_dot: np.ndarray
    omega_dot: np.ndarray


def quat_derivative(q: np.ndarray, omega_body: np.ndarray) -> np.ndarray:
    """Kinematic derivative q_dot = 0.5 * q * (0, omega_body)."""
    ow, ox, oy, oz = 0.0, omega_body[0], omega_body[1], omega_body[2]
    w, x, y, z = q
    return 0.5 * np.array(
        [
            w * ow - x * ox - y * oy - z * oz,
            w * ox + x * ow + y * oz - z * oy,
            w * oy - x * oz + y * ow + z * ox,
            w * oz + x * oy - y * ox + z * ow,
        ]
    )


def derivative(state: VehicleState, wrench: Wrench, params: VehicleParams) -> StateDerivative:
    """Newton-Euler time derivative under a given body wrench."""
    R_bw = quat_to_matrix(state.q)
    J = np.array([params.j_xx, params.j_yy, params.j_zz])
    return StateDerivative(
        p_dot=state.v.copy(),
        v_dot=R_bw @ wrench.force / params.m,
        q_dot=quat_derivative(state.q, state.omega),
        omega_dot=(wrench.torque - np.cross(state.omega, J * state.omega)) / J,
    )


def synthetic_bench_rows(
    params: VehicleParams,
    omega_values: np.ndarray,
    delta_values: np.ndarray,
    relative_noise: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Bench records as rows ``(omega, delta, fx, fy, fz, mx, my, mz)``.

    One record per grid point, delta varying fastest: the left side's
    ``prop_wrench + aero_wrench``, each component scaled by
    ``1 + relative_noise * n`` with three force draws then three torque
    draws per record.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for w in np.asarray(omega_values, dtype=float):
        for d in np.asarray(delta_values, dtype=float):
            wrench = prop_wrench(w, "left", params) + aero_wrench(w, d, params)
            force, torque = wrench.force, wrench.torque
            if relative_noise > 0.0:
                force = force * (1.0 + relative_noise * rng.standard_normal(3))
                torque = torque * (1.0 + relative_noise * rng.standard_normal(3))
            rows.append((float(w), float(d), *force.tolist(), *torque.tolist()))
    return np.array(rows).reshape(-1, 8)


def actuator_step(
    act: ActuatorState, command, dt: float, params: VehicleParams
) -> ActuatorState:
    """Advance actuators toward a command by their first-order lags.

    Each channel follows ``x(t) = cmd + (x0 - cmd) exp(-t / tau)`` with
    ``tau_motor`` for rotor speeds and ``tau_servo`` for elevons; results
    are clipped to the actuator limits.
    """
    if dt < 0.0:
        raise DomainError("actuator_step requires dt >= 0")
    a_m = math.exp(-dt / params.tau_motor)
    a_s = math.exp(-dt / params.tau_servo)
    return ActuatorState(
        omega_left=_clip(command.omega_left + (act.omega_left - command.omega_left) * a_m,
                         0.0, params.omega_max),
        omega_right=_clip(command.omega_right + (act.omega_right - command.omega_right) * a_m,
                          0.0, params.omega_max),
        delta_left=_clip(command.delta_left + (act.delta_left - command.delta_left) * a_s,
                         -params.delta_max, params.delta_max),
        delta_right=_clip(command.delta_right + (act.delta_right - command.delta_right) * a_s,
                          -params.delta_max, params.delta_max),
    )


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


# ---------------------------------------------------------------------------
# Array-based sensing and fusion: the quaternion helpers, low-pass filter,
# complementary estimator and accelerometer formula as written on 3- and
# 4-element numpy arrays.  The package computes the same operations on
# Python floats; the tests require bit-identical results.


def quat_to_matrix(q) -> np.ndarray:
    """Body-to-world rotation matrix of a unit quaternion, as a 3x3 array."""
    return np.array(quat_to_matrix_f(np.asarray(q, dtype=float).tolist())).reshape(3, 3)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def quat_from_rotvec(r: np.ndarray) -> np.ndarray:
    angle = math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
    if angle < 1e-12:
        return quat_normalize(np.array([1.0, 0.5 * r[0], 0.5 * r[1], 0.5 * r[2]]))
    s = math.sin(0.5 * angle) / angle
    return np.array([math.cos(0.5 * angle), r[0] * s, r[1] * s, r[2] * s])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return np.array([2.0 * x, 2.0 * y, 2.0 * z])
    angle = 2.0 * math.atan2(s, w)
    return np.array([x, y, z]) * (angle / s)


def quat_integrate(q: np.ndarray, omega_body: np.ndarray, dt: float) -> np.ndarray:
    return quat_normalize(quat_multiply(q, quat_from_rotvec(np.asarray(omega_body) * dt)))


def array_sense(state, force, params, disturbance, rng, t=0.0, with_pose=False):
    """IMU (and optional pose) sample drawn channel by channel on arrays."""
    R_wb = quat_to_matrix(state.q).T
    weight_body = R_wb @ (params.m * np.array([0.0, 0.0, -params.g_mag]))
    specific_force = (np.asarray(force) - weight_body) / params.m
    gyro = state.omega + disturbance.gyro_noise_std * rng.standard_normal(3)
    accel = specific_force + disturbance.accel_noise_std * rng.standard_normal(3)
    pose_p = pose_q = None
    if with_pose:
        pose_p = state.p + disturbance.pose_pos_noise_std * rng.standard_normal(3)
        tilt = disturbance.pose_att_noise_std * rng.standard_normal(3)
        pose_q = quat_normalize(quat_multiply(state.q, quat_from_rotvec(tilt)))
    return SensorSample(t=t, gyro=gyro, accel=accel, pose_p=pose_p, pose_q=pose_q)


class ArrayLowPass:
    """First-order low-pass filter with exact zero-order-hold discretisation."""

    def __init__(self, cutoff_hz: float, initial=None):
        if cutoff_hz <= 0.0:
            raise DomainError("low-pass cutoff must be > 0")
        self.tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        self.y = None if initial is None else np.asarray(initial, dtype=float).copy()

    def step(self, x: np.ndarray, dt: float) -> np.ndarray:
        if dt <= 0.0:
            raise DomainError("low-pass step requires dt > 0")
        x = np.asarray(x, dtype=float)
        if self.y is None:
            self.y = x.copy()
            return self.y.copy()
        alpha = 1.0 - math.exp(-dt / self.tau)
        self.y = self.y + alpha * (x - self.y)
        return self.y.copy()


class ArrayComplementaryEstimator:
    """Gyro-integration attitude filter with pose blending, on arrays."""

    def __init__(
        self,
        initial: StateEstimate,
        pose_rate: float = 100.0,
        attitude_blend: float = 0.167,
        pos_alpha: float = 0.4,
        vel_beta: float = 0.05,
        cutoff_hz: float = 20.0,
    ):
        if not 0.0 < attitude_blend <= 1.0 or not 0.0 < pos_alpha <= 1.0:
            raise DomainError("blend fractions must lie in (0, 1]")
        if cutoff_hz <= 0.0:
            raise DomainError("cutoff frequency must be positive")
        self.q = np.asarray(initial.q, dtype=float).copy()
        self.p = np.asarray(initial.p, dtype=float).copy()
        self.v = np.asarray(initial.v, dtype=float).copy()
        self.omega = np.asarray(initial.omega, dtype=float).copy()
        self.attitude_blend = attitude_blend
        self.pos_alpha = pos_alpha
        self.vel_gain = vel_beta * pose_rate
        self._gyro_lp = ArrayLowPass(cutoff_hz, initial.omega)

    def update(self, sample: SensorSample, dt: float) -> None:
        self.omega = self._gyro_lp.step(sample.gyro, dt)

        self.q = quat_integrate(self.q, self.omega, dt)
        self.p = self.p + self.v * dt

        if sample.pose_p is not None and sample.pose_q is not None:
            err = quat_multiply(quat_conjugate(self.q), sample.pose_q)
            self.q = quat_normalize(
                quat_multiply(
                    self.q, quat_from_rotvec(self.attitude_blend * quat_to_rotvec(err))
                )
            )
            innovation = sample.pose_p - self.p
            self.p = self.p + self.pos_alpha * innovation
            self.v = self.v + self.vel_gain * innovation

    def estimate(self) -> StateEstimate:
        return StateEstimate(self.p.copy(), self.v.copy(), self.q.copy(), self.omega.copy())


# ---------------------------------------------------------------------------
# Matrix-based attitude loop: the desired attitude as a world-to-body
# matrix and the attitude error as a matrix product.  The package builds
# the same rotations from quaternion components; the tests require
# agreement to rounding.

# Hover attitude at zero heading: body -z up, body x along world x.
_R_BW_HOVER0 = np.diag([1.0, -1.0, -1.0])


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` (rad) about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    s = math.sin(half) / n
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method)."""
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (R[2, 1] - R[1, 2]) / s,
                (R[0, 2] - R[2, 0]) / s,
                (R[1, 0] - R[0, 1]) / s,
            ]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [
                (R[2, 1] - R[1, 2]) / s,
                0.25 * s,
                (R[0, 1] + R[1, 0]) / s,
                (R[0, 2] + R[2, 0]) / s,
            ]
        )
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [
                (R[0, 2] - R[2, 0]) / s,
                (R[0, 1] + R[1, 0]) / s,
                0.25 * s,
                (R[1, 2] + R[2, 1]) / s,
            ]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [
                (R[1, 0] - R[0, 1]) / s,
                (R[0, 2] + R[2, 0]) / s,
                (R[1, 2] + R[2, 1]) / s,
                0.25 * s,
            ]
        )
    return quat_normalize(q)


def rotvec_from_matrix(R: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix, robust near 0 and pi."""
    return quat_to_rotvec(matrix_to_quat(R))


def rotation_between(u: np.ndarray, v: np.ndarray, fallback_axis: np.ndarray | None = None) -> np.ndarray:
    """Minimal rotation matrix taking unit vector ``u`` onto unit vector ``v``.

    The rotation axis is ``u x v``.  For the antipodal case (``u ~ -v``)
    the axis is ill-defined; ``fallback_axis`` (must be orthogonal to
    ``u``) selects the 180-degree rotation plane then.
    """
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    c = ux * vx + uy * vy + uz * vz
    ax = uy * vz - uz * vy
    ay = uz * vx - ux * vz
    az = ux * vy - uy * vx
    s2 = ax * ax + ay * ay + az * az
    if s2 < 1e-24:
        if c > 0.0:
            return np.eye(3)
        if fallback_axis is None:
            raise ValueError("antipodal vectors need an explicit fallback axis")
        return quat_to_matrix(quat_from_axis_angle(fallback_axis, math.pi))
    # Rodrigues with k = axis (unnormalised, |k| = sin):
    # R = I + K + K^2 (1 - cos) / sin^2
    f = (1.0 - c) / s2
    return np.array(
        [
            [1.0 - f * (ay * ay + az * az), -az + f * ax * ay, ay + f * ax * az],
            [az + f * ax * ay, 1.0 - f * (ax * ax + az * az), -ax + f * ay * az],
            [-ay + f * ax * az, ax + f * ay * az, 1.0 - f * (ax * ax + ay * ay)],
        ]
    )


def euler_zyx_from_matrix(R: np.ndarray, gimbal_tol: float = 1e-6) -> tuple[np.ndarray, bool]:
    """Intrinsic Z-Y-X Euler angles (roll, pitch, yaw) of a rotation matrix.

    Returns ``(angles, ok)`` where ``angles = (phi, theta, psi)`` satisfies
    ``R = Rz(psi) @ Ry(theta) @ Rx(phi)``.  ``ok`` is False within
    ``gimbal_tol`` of the ``|theta| = pi/2`` singularity, where the
    extraction is unreliable and callers should fall back to a rotation
    vector.
    """
    sin_theta = -R[2, 0]
    if abs(sin_theta) >= 1.0 - gimbal_tol:
        theta = math.copysign(0.5 * math.pi, sin_theta)
        # roll/yaw are degenerate here; report their sum in phi
        phi = math.atan2(-R[1, 2], R[1, 1])
        return np.array([phi, theta, 0.0]), False
    theta = math.asin(sin_theta)
    phi = math.atan2(R[2, 1], R[2, 2])
    psi = math.atan2(R[1, 0], R[0, 0])
    return np.array([phi, theta, psi]), True


def attitude_setpoint(
    f_des: np.ndarray, psi_des: float, params: VehicleParams
) -> tuple[np.ndarray, float]:
    """Desired world-to-body rotation and per-rotor thrust from a desired force."""
    f_des = np.asarray(f_des, dtype=float)
    norm = float(np.linalg.norm(f_des))
    if not np.all(np.isfinite(f_des)) or norm < FORCE_FLOOR:
        raise DegenerateThrustError(
            f"|f_des| = {norm:.3e} N is below the {FORCE_FLOOR:.0e} N floor"
        )
    f_hat = f_des / norm

    c, s = math.cos(psi_des), math.sin(psi_des)
    R_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    # Minimal world-frame tilt from straight-up thrust onto f_hat.  For a
    # force pointing straight down the tilt axis is arbitrary; pitch
    # about the heading-rotated y axis then.
    R_xy = rotation_between(
        np.array([0.0, 0.0, 1.0]), f_hat, fallback_axis=R_z @ np.array([0.0, 1.0, 0.0])
    )
    R_bw_des = R_xy @ R_z @ _R_BW_HOVER0
    return R_bw_des.T, 0.5 * norm


def attitude_control(
    R_wb_est: np.ndarray, R_wb_des: np.ndarray, gains: ControllerGains
) -> np.ndarray:
    """Body-rate command from the Z-Y-X Euler angles of ``R_est @ R_des^-1``."""
    R_err = R_wb_est @ R_wb_des.T
    angles, ok = euler_zyx_from_matrix(R_err)
    if not ok:
        angles = rotvec_from_matrix(R_err)
    return angles / gains.tau_att


# ---------------------------------------------------------------------------
# The integrator as first written on Python floats: a constants tuple, one
# wrench-kernel call per Runge-Kutta stage, and each stage state built as a
# 13-float list.  The package's `step` builds only the stage components the
# ODE reads and shares the half-step wrench between stages 2 and 3; the tests
# require its results to be bit-identical to this one.


def _consts(params: VehicleParams) -> tuple:
    """Flatten the constants _rhs needs into one tuple of floats."""
    return (
        params.k_t, params.k_m, params.k_l, params.k_d, params.k_p, params.l,
        -params.m * params.g_mag, 1.0 / params.m,
        params.j_xx, params.j_yy, params.j_zz,
    )


def _rhs(y: tuple, act: tuple, consts: tuple, dist_f: tuple, dist_m: tuple) -> tuple:
    """Scalar-arithmetic right-hand side of the full state ODE.

    ``y`` packs (p, v, q, omega) as 13 floats, ``act`` the four actuator
    values, and ``consts`` the output of :func:`_consts`.  Kept free of
    array allocations because it runs four times per physics step.
    """
    (px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz) = y
    wl, wr, dl, dr = act
    k_t, k_m, k_l, k_d, k_p, l, mg, inv_m, jx, jy, jz = consts

    # body-to-world rotation entries
    r00 = 1.0 - 2.0 * (qy * qy + qz * qz)
    r01 = 2.0 * (qx * qy - qw * qz)
    r02 = 2.0 * (qx * qz + qw * qy)
    r10 = 2.0 * (qx * qy + qw * qz)
    r11 = 1.0 - 2.0 * (qx * qx + qz * qz)
    r12 = 2.0 * (qy * qz - qw * qx)
    r20 = 2.0 * (qx * qz - qw * qy)
    r21 = 2.0 * (qy * qz + qw * qx)
    r22 = 1.0 - 2.0 * (qx * qx + qy * qy)

    # actuator wrench plus the body-frame torque offset
    fx, fy, fz, mx, my, mz = actuator_wrench(wl, wr, dl, dr, k_t, k_m, k_l, k_d, k_p, l)
    mx += dist_m[0]
    my += dist_m[1]
    mz += dist_m[2]

    # weight and world-frame force offset rotated into body axes
    dfx, dfy, dfz = dist_f
    fx += mg * r20 + r00 * dfx + r10 * dfy + r20 * dfz
    fy += mg * r21 + r01 * dfx + r11 * dfy + r21 * dfz
    fz += mg * r22 + r02 * dfx + r12 * dfy + r22 * dfz

    return (
        vx, vy, vz,
        (r00 * fx + r01 * fy + r02 * fz) * inv_m,
        (r10 * fx + r11 * fy + r12 * fz) * inv_m,
        (r20 * fx + r21 * fy + r22 * fz) * inv_m,
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        (mx - (wy * jz * wz - wz * jy * wy)) / jx,
        (my - (wz * jx * wx - wx * jz * wz)) / jy,
        (mz - (wx * jy * wy - wy * jx * wx)) / jz,
    )


def reference_step(
    state: VehicleState,
    command,
    dt: float,
    params: VehicleParams,
    disturbance: DisturbanceSpec | None = None,
) -> VehicleState:
    """One fixed-step RK4 integration step of the full vehicle.

    Actuators are evaluated on their exact exponential response to the
    (saturated) command at the substage times 0, dt/2, and dt, and the
    attitude quaternion is renormalised afterwards.

    Args:
        state: state at the start of the step.
        command: actuator command held constant over the step (any object
            with the four actuator fields).
        dt: step size, s; must satisfy ``0 < dt <= 2e-3``.
        params: vehicle constants.
        disturbance: optional constant force/torque offsets.

    Raises:
        DomainError: on an invalid step size.
        SimulationDivergedError: if any state component leaves the
            finite range.
    """
    if not (0.0 < dt <= MAX_PHYSICS_DT):
        raise DomainError(f"physics step must satisfy 0 < dt <= {MAX_PHYSICS_DT}, got {dt!r}")
    if disturbance is None:
        dist_f = (0.0, 0.0, 0.0)
        dist_m = (0.0, 0.0, 0.0)
    else:
        dist_f = disturbance.force_offset_world.tolist()
        dist_m = disturbance.torque_offset_body.tolist()

    y0 = state.y

    # exact actuator trajectories across the step
    a0 = state.act
    e_m2 = math.exp(-0.5 * dt / params.tau_motor)
    e_s2 = math.exp(-0.5 * dt / params.tau_servo)
    c_wl, c_wr = command.omega_left, command.omega_right
    c_dl, c_dr = command.delta_left, command.delta_right
    act0 = (a0.omega_left, a0.omega_right, a0.delta_left, a0.delta_right)
    act_half = (
        c_wl + (a0.omega_left - c_wl) * e_m2,
        c_wr + (a0.omega_right - c_wr) * e_m2,
        c_dl + (a0.delta_left - c_dl) * e_s2,
        c_dr + (a0.delta_right - c_dr) * e_s2,
    )
    act_full = (
        c_wl + (act_half[0] - c_wl) * e_m2,
        c_wr + (act_half[1] - c_wr) * e_m2,
        c_dl + (act_half[2] - c_dl) * e_s2,
        c_dr + (act_half[3] - c_dr) * e_s2,
    )

    half = 0.5 * dt
    consts = _consts(params)
    k1 = _rhs(y0, act0, consts, dist_f, dist_m)
    k2 = _rhs([a + half * b for a, b in zip(y0, k1)], act_half, consts, dist_f, dist_m)
    k3 = _rhs([a + half * b for a, b in zip(y0, k2)], act_half, consts, dist_f, dist_m)
    k4 = _rhs([a + dt * b for a, b in zip(y0, k3)], act_full, consts, dist_f, dist_m)

    sixth = dt / 6.0
    y1 = [
        a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
        for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)
    ]
    if not math.isfinite(sum(y1)):
        raise SimulationDivergedError("non-finite state after integration step")

    qw, qx, qy, qz = y1[6:10]
    inv_n = 1.0 / math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    y1[6:10] = qw * inv_n, qx * inv_n, qy * inv_n, qz * inv_n
    # bypass validation: q is unit by construction here
    out = object.__new__(VehicleState)
    out.y = tuple(y1)
    out.act = ActuatorState(
        _clip(act_full[0], 0.0, params.omega_max),
        _clip(act_full[1], 0.0, params.omega_max),
        _clip(act_full[2], -params.delta_max, params.delta_max),
        _clip(act_full[3], -params.delta_max, params.delta_max),
    )
    return out


# ---------------------------------------------------------------------------
# The saturation, setpoint and trajectory lookup as first written on Python
# floats: builtin min/max per field, and a leg-start list rebuilt on every
# lookup.  The package's versions use chained comparisons and the scenario's
# precomputed starts; the tests require bit-identical results.


def reference_clamp_command(
    cmd: ActuatorCommand, params: VehicleParams
) -> tuple[ActuatorCommand, bool]:
    """Saturate a command to actuator limits; flags whether anything clipped."""
    w_l = min(max(cmd.omega_left, 0.0), params.omega_max)
    w_r = min(max(cmd.omega_right, 0.0), params.omega_max)
    d_l = min(max(cmd.delta_left, -params.delta_max), params.delta_max)
    d_r = min(max(cmd.delta_right, -params.delta_max), params.delta_max)
    clamped = ActuatorCommand(w_l, w_r, d_l, d_r)
    saturated = (
        w_l != cmd.omega_left
        or w_r != cmd.omega_right
        or d_l != cmd.delta_left
        or d_r != cmd.delta_right
    )
    return clamped, saturated


@dataclass
class Setpoint:
    """Trajectory sample handed to the controller.

    Any 3-sequences of reals are accepted for the position and velocity;
    each component is unpacked and converted with ``float`` and they are
    stored as tuples of Python floats.  Finiteness is tested once, on the
    sum of ``x - x`` over the seven components: that is 0.0 for every
    finite ``x`` and nan otherwise, so the test cannot overflow and
    rejects exactly the non-finite setpoints.
    """

    p_des: tuple                      # desired position, world frame, m
    v_des: tuple                      # desired velocity, world frame, m/s
    psi_des: float = 0.0              # desired heading, rad, wrapped to (-pi, pi]

    def __post_init__(self) -> None:
        try:
            (px, py, pz), (vx, vy, vz) = self.p_des, self.v_des
            px, py, pz = float(px), float(py), float(pz)
            vx, vy, vz = float(vx), float(vy), float(vz)
            psi = float(self.psi_des)
        except (TypeError, ValueError):
            raise DomainError("setpoint position/velocity must be 3-vectors of reals") from None
        # x - x is 0.0 for every finite x and nan otherwise, and cannot overflow
        if ((px - px) + (py - py) + (pz - pz) + (vx - vx) + (vy - vy) + (vz - vz)
                + (psi - psi) != 0.0):
            raise DomainError("setpoint must be finite")
        self.p_des, self.v_des = (px, py, pz), (vx, vy, vz)
        self.psi_des = wrap_angle(psi)


def reference_setpoint_at(t: float, scenario: Scenario) -> Setpoint:
    """Reference setpoint at time ``t``.

    Raises:
        DomainError: if ``t`` lies outside [0, duration].
    """
    if not -1e-9 <= t <= scenario.duration_s + 1e-9:
        raise DomainError(
            f"reference time {t!r} outside [0, {scenario.duration_s}]"
        )
    yaw = scenario.yaw_fixed_rad
    if scenario.kind == "hover":
        return Setpoint(scenario.hover_pos, (0.0, 0.0, 0.0), yaw)
    if scenario.kind == "circle":
        theta = scenario.circle_rate * t
        r = scenario.circle_radius
        c, s = math.cos(theta), math.sin(theta)
        cx, cy, cz = scenario.circle_center.tolist()
        speed = scenario.circle_rate * r
        if scenario.yaw_mode == "tangent":
            yaw = wrap_angle(theta + math.pi / 2.0)
        return Setpoint(
            (cx + r * c, cy + r * s, cz + 0.0), (-speed * s, speed * c, 0.0), yaw
        )

    # waypoint / star: locate the active leg
    legs = scenario.legs
    starts = [leg.t0 for leg in legs]
    i = bisect_right(starts, t) - 1
    i = max(i, 0)
    leg = legs[i]
    (ax, ay, az), (ux, uy, uz) = leg.p0, leg.u
    if t >= leg.t0 + leg.duration and i == len(legs) - 1:
        dist = leg.length
        v = (0.0, 0.0, 0.0)
    else:
        dist, speed = leg.sample(t - leg.t0)
        v = (speed * ux, speed * uy, speed * uz)
    if scenario.yaw_mode == "tangent":
        yaw = _leg_yaw(leg, scenario.yaw_fixed_rad)
    return Setpoint((ax + dist * ux, ay + dist * uy, az + dist * uz), v, yaw)


def setpoint_position_control(setpoint: Setpoint, p_est, v_est, gains: ControllerGains,
                              params: VehicleParams) -> tuple:
    """The position law reading its reference from a :class:`Setpoint`."""
    px, py, pz = p_est
    vx, vy, vz = v_est
    rx, ry, rz = setpoint.p_des
    ux, uy, uz = setpoint.v_des
    k_xy, k_z = 1.0 / gains.tau_p_xy**2, 1.0 / gains.tau_p_z**2
    d_xy = 2.0 * gains.zeta_p_xy / gains.tau_p_xy
    d_z = 2.0 * gains.zeta_p_z / gains.tau_p_z
    m = params.m
    return (
        m * (k_xy * (rx - px) + d_xy * (ux - vx)),
        m * (k_xy * (ry - py) + d_xy * (uy - vy)),
        m * (params.g_mag + k_z * (rz - pz) + d_z * (uz - vz)),
    )


class ObjectCascade(CascadeController):
    """The cascade as it was written on objects.

    :meth:`update` takes a :class:`StateEstimate` and a :class:`Setpoint`
    and returns the clamped command as an :class:`ActuatorCommand`: the
    model-inverse command is mutated for the rotor-lag inversion and
    clamped into a second one, kept as ``command``.  The attitude, rate
    and model-inverse stages are the package's.
    """

    def reset(self) -> None:
        super().reset()
        self.command = ActuatorCommand()

    def update(self, estimate: StateEstimate, setpoint: Setpoint) -> ActuatorCommand:
        tick = self._tick
        self._tick = tick + 1
        if tick % self._position_every == 0:
            self.f_des = setpoint_position_control(
                setpoint, estimate.p, estimate.v, self.gains, self.params
            )

        if tick % self._attitude_every == 0:
            self.q_des, self.f_a = control.attitude_setpoint(
                self.f_des, setpoint.psi_des, self.params
            )
            self.omega_des = control.attitude_control(estimate.q, self.q_des, self.gains)

        m_des = control.rate_control(
            estimate.omega, self.omega_des, self.integral, self.gains, self.params
        )
        self.roll_clamped = False
        roll_limit = (1.0 - control.ROLL_CLAMP_MARGIN) * 2.0 * self.f_a * self.params.l
        if abs(m_des[0]) > roll_limit:
            m_des = (math.copysign(roll_limit, m_des[0]), m_des[1], m_des[2])
            self.roll_clamped = True
        self.m_des = m_des
        raw = control.model_inverse(m_des, self.f_a, self.params)
        lag, lead, settle = self._lag, self._lead, self._settle
        hat_l, hat_r = self.omega_hat
        raw.omega_left = (raw.omega_left - lag * hat_l) * lead
        raw.omega_right = (raw.omega_right - lag * hat_r) * lead
        self.command, self.saturated = reference_clamp_command(raw, self.params)
        self.omega_hat = (
            lag * hat_l + settle * self.command.omega_left,
            lag * hat_r + settle * self.command.omega_right,
        )
        if not self.saturated:
            rate = self.rates.rate_rate
            ix, iy, iz = self.integral
            dx, dy, dz = self.omega_des
            wx, wy, wz = estimate.omega
            self.integral = (ix + (dx - wx) / rate, iy + (dy - wy) / rate, iz + (dz - wz) / rate)
        return self.command


def reference_to_csv(log: ScenarioLog) -> str:
    """The log as CSV: floats round-trip exactly (``%.17g``), flags as ints.

    Rows are converted one at a time, so the text is the only large
    allocation.
    """
    template = ",".join(
        "%d" if name in _FLAG_COLUMNS else "%.17g" for name in LOG_COLUMNS
    )
    lines = [",".join(LOG_COLUMNS)]
    for row in log.data[: len(log)]:
        lines.append(template % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


# one CSV row; rows are formatted from lists of this many at a time
_ROW = ", ".join(["%.17g"] * 8) + "\n"
_ROWS_PER_WRITE = 4096


def reference_write_records_csv(path, records: BenchRecords) -> None:
    """Write bench records with the canonical header, one ``%.17g`` row each."""
    table = np.column_stack((records.omega, records.delta, records.force, records.torque))
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(table), _ROWS_PER_WRITE):
            fh.writelines(
                _ROW % tuple(row) for row in table[start:start + _ROWS_PER_WRITE].tolist()
            )


def reference_read_records_csv(path) -> BenchRecords:
    """Read bench records; the header must match the canonical schema.

    Blank lines are skipped.  A malformed or invalid row is reported with
    its line number.
    """
    values = array("d")
    line_numbers = array("q")
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != [
            c.strip() for c in CSV_HEADER.split(",")
        ]:
            raise DomainError(
                f"unexpected CSV header {header!r}; expected {CSV_HEADER!r}"
            )
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise DomainError(f"line {line_no}: expected 8 columns, got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise DomainError(f"line {line_no}: {exc}") from exc
            line_numbers.append(line_no)
    table = np.frombuffer(values, dtype=float).reshape(-1, 8)
    try:
        return BenchRecords(table[:, 0], table[:, 1], table[:, 2:5], table[:, 5:])
    except _InvalidRecord as exc:
        raise DomainError(f"line {line_numbers[exc.row]}: {exc.reason}") from None
