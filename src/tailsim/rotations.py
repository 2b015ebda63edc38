"""Quaternion and rotation helpers.

Conventions used throughout the package:

* Quaternions are scalar-first arrays ``(w, x, y, z)`` of unit norm using
  the Hamilton product.
* ``quat_to_matrix(q)`` returns the body-to-world direction cosine matrix:
  ``v_world = R @ v_body``.  Its transpose transforms world vectors into
  the body frame.
* Body-rate kinematics: ``q_dot = 0.5 * q * (0, omega_body)``, so a body
  turning at constant rate integrates as a right multiplication.

Quaternion multiply, conjugate, normalise, integrate, rotation vector
to quaternion and back, and quaternion to matrix each exist once, as a
core on tuples of Python floats (the ``*_f`` functions).  Python-float
arithmetic is the same IEEE double arithmetic as numpy's elementwise
operations but costs a fraction of it on 3- and 4-element values, so
the 1 kHz sensing and estimation path calls the cores directly; the
array functions of the same names without ``_f`` are one-line wrappers
over them.
"""

from __future__ import annotations

import math

import numpy as np

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quat_multiply_f(a, b) -> tuple:
    """Hamilton product a * b of two scalar-first quaternions, as floats."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conjugate_f(q) -> tuple:
    """Conjugate (inverse of a unit quaternion), as floats."""
    w, x, y, z = q
    return (w, -x, -y, -z)


def quat_normalize_f(q) -> tuple:
    """``q / |q|`` as floats."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return (w / n, x / n, y / n, z / n)


def quat_from_rotvec_f(r) -> tuple:
    """Unit quaternion of a rotation vector (axis * angle), as floats."""
    rx, ry, rz = r
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < 1e-12:
        # first-order expansion keeps the map smooth through zero
        return quat_normalize_f((1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz))
    s = math.sin(0.5 * angle) / angle
    return (math.cos(0.5 * angle), rx * s, ry * s, rz * s)


def quat_to_rotvec_f(q) -> tuple:
    """Rotation vector (angle in [0, pi]) of a unit quaternion, as floats."""
    w, x, y, z = q
    if w < 0.0:  # keep the short way around
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    f = 2.0 * math.atan2(s, w) / s
    return (x * f, y * f, z * f)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    return np.array(quat_multiply_f(a, b))


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array(quat_conjugate_f(q))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return np.array(quat_normalize_f(q))


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` (rad) about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    s = math.sin(half) / n
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_rotvec(r: np.ndarray) -> np.ndarray:
    """Unit quaternion for a rotation vector (axis * angle)."""
    return np.array(quat_from_rotvec_f(r))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle, angle in [0, pi]) of a unit quaternion."""
    return np.array(quat_to_rotvec_f(q))


def quat_to_matrix_f(q) -> tuple:
    """Body-to-world rotation matrix of a unit quaternion, 9 floats row by row."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Body-to-world rotation matrix of a unit quaternion."""
    return np.array(quat_to_matrix_f(np.asarray(q, dtype=float).tolist())).reshape(3, 3)


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


def quat_integrate_f(q, omega_body, dt: float) -> tuple:
    """Attitude advanced by a body rate held constant over ``dt``, as floats."""
    wx, wy, wz = omega_body
    return quat_normalize_f(quat_multiply_f(q, quat_from_rotvec_f((wx * dt, wy * dt, wz * dt))))


def quat_integrate(q: np.ndarray, omega_body: np.ndarray, dt: float) -> np.ndarray:
    """Advance attitude by body rate held constant over ``dt`` (exact map)."""
    return np.array(quat_integrate_f(q, omega_body, dt))


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


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(a, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w
