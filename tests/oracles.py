"""Vector-algebra reference models that the tests check the package against.

These are written independently of the package's fast paths: the wrench
is assembled per side from :func:`prop_wrench` and :func:`aero_wrench`
with explicit lever-arm cross products, the rigid-body derivative uses
matrix algebra, the actuator lag is a one-shot exponential step, and the
sensing-and-fusion path (quaternion helpers, low-pass filter,
complementary estimator, accelerometer formula) works on numpy arrays.
Synthetic bench records are built one record at a time from the same
per-side wrenches.  The attitude loop is the rotation-matrix version:
Rodrigues tilt times heading times hover flip, and Z-Y-X Euler angles
read from the error matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tailsim.control import FORCE_FLOOR, ControllerGains, StateEstimate
from tailsim.errors import DegenerateThrustError, DomainError
from tailsim.model import ActuatorState, VehicleParams, Wrench, aero_wrench, prop_wrench
from tailsim.rotations import quat_to_matrix
from tailsim.sim import SensorSample, VehicleState


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


def array_sense(state, true_wrench, params, disturbance, rng, t=0.0, with_pose=False):
    """IMU (and optional pose) sample drawn channel by channel on arrays."""
    R_wb = quat_to_matrix(state.q).T
    weight_body = R_wb @ (params.m * np.array([0.0, 0.0, -params.g_mag]))
    specific_force = (true_wrench.force - weight_body) / params.m
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
