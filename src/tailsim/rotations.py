"""Quaternion helpers: the package's one rotation type.

Conventions used throughout the package:

* Quaternions are scalar-first ``(w, x, y, z)`` of unit norm using the
  Hamilton product, rotating body vectors into the world frame.
* Body-rate kinematics: ``q_dot = 0.5 * q * (0, omega_body)``, so a body
  turning at constant rate integrates as a right multiplication.

Quaternion multiply, conjugate, normalise, integrate, rotation vector
to quaternion and back, and quaternion to matrix each exist once, on
Python floats: each takes any 3- or 4-element sequence and returns a
tuple of floats.  Python-float arithmetic is the same IEEE double
arithmetic as numpy's elementwise operations but costs a fraction of it
on 3- and 4-element values, which matters on the 1 kHz sensing and
estimation path and in the attitude loop.

Rotation matrices are an output only: ``quat_to_matrix_f(q)`` gives the
body-to-world direction cosine matrix as 9 floats row by row
(``v_world = R @ v_body``; its transpose maps world vectors into the body
frame), and nothing converts a matrix back.  The module imports no
numpy.  Every rotation that reaches the run log is computed from
quaternion components with explicit float arithmetic, never by a BLAS
matrix product, so the log does not depend on which BLAS kernel loads.
"""

from __future__ import annotations

import math


def quat_multiply(a, b) -> tuple:
    """Hamilton product a * b of two scalar-first quaternions, as floats."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conjugate(q) -> tuple:
    """Conjugate (inverse of a unit quaternion), as floats."""
    w, x, y, z = q
    return (w, -x, -y, -z)


def quat_normalize(q) -> tuple:
    """``q / |q|`` as floats."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return (w / n, x / n, y / n, z / n)


def quat_from_rotvec(r) -> tuple:
    """Unit quaternion of a rotation vector (axis * angle), as floats."""
    rx, ry, rz = r
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle < 1e-12:
        # first-order expansion keeps the map smooth through zero
        return quat_normalize((1.0, 0.5 * rx, 0.5 * ry, 0.5 * rz))
    s = math.sin(0.5 * angle) / angle
    return (math.cos(0.5 * angle), rx * s, ry * s, rz * s)


def quat_to_rotvec(q) -> tuple:
    """Rotation vector (angle in [0, pi]) of a unit quaternion, as floats."""
    w, x, y, z = q
    if w < 0.0:  # keep the short way around
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    f = 2.0 * math.atan2(s, w) / s
    return (x * f, y * f, z * f)


def quat_integrate(q, omega_body, dt: float) -> tuple:
    """Attitude advanced by a body rate held constant over ``dt``, as floats."""
    wx, wy, wz = omega_body
    return quat_normalize(quat_multiply(q, quat_from_rotvec((wx * dt, wy * dt, wz * dt))))


def quat_to_matrix_f(q) -> tuple:
    """Body-to-world rotation matrix of a unit quaternion, 9 floats row by row."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(a, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w
