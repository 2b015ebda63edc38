"""Quaternion utilities and the quaternion-to-matrix output."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailsim.rotations import (
    quat_conjugate,
    quat_from_rotvec,
    quat_integrate,
    quat_multiply,
    quat_normalize,
    quat_to_rotvec,
    wrap_angle,
)

import oracles
from oracles import quat_to_matrix

unit_floats = st.floats(-1.0, 1.0, allow_nan=False)

IDENTITY = (1.0, 0.0, 0.0, 0.0)


def random_quats(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def test_identity_is_noop():
    v = np.array([0.3, -1.2, 2.0])
    assert np.allclose(quat_to_matrix(IDENTITY) @ v, v)
    assert np.allclose(quat_multiply(IDENTITY, IDENTITY), IDENTITY)


def test_axis_angle_quarter_turn_about_z():
    q = quat_from_rotvec(np.array([0.0, 0.0, math.pi / 2]))
    R = quat_to_matrix(q)
    assert np.allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_multiply_matches_matrix_product():
    qa, qb = random_quats(2, seed=3)
    assert np.allclose(
        quat_to_matrix(quat_multiply(qa, qb)),
        quat_to_matrix(qa) @ quat_to_matrix(qb),
        atol=1e-13,
    )


def test_conjugate_inverts_unit_quaternion():
    (q,) = random_quats(1, seed=4)
    qq = quat_multiply(q, quat_conjugate(q))
    assert np.allclose(qq, IDENTITY, atol=1e-14)


def test_rotvec_round_trip_and_canonical_angle():
    for q in random_quats(100, seed=5):
        phi = quat_to_rotvec(q)
        angle = np.linalg.norm(phi)
        assert angle <= math.pi + 1e-12
        q2 = quat_from_rotvec(phi)
        assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9


def test_rotvec_small_angle():
    phi = np.array([1e-14, -2e-14, 1e-14])
    q = quat_from_rotvec(phi)
    assert np.allclose(quat_to_rotvec(q), phi, rtol=1e-6)


def test_integrate_constant_rate_matches_axis_angle():
    omega = np.array([0.3, -0.2, 0.5])
    dt = 0.05
    q = IDENTITY
    for _ in range(40):
        q = quat_integrate(q, omega, dt)
    q, expected = np.array(q), np.array(quat_from_rotvec(omega * 2.0))   # body-frame rate
    assert min(np.linalg.norm(q - expected), np.linalg.norm(q + expected)) < 1e-12


def test_derivative_points_along_multiplication():
    (q,) = random_quats(1, seed=7)
    omega = np.array([0.1, 0.2, -0.3])
    dq = oracles.quat_derivative(q, omega)
    h = 1e-8
    q2 = quat_normalize(q + dq * h)
    q_ref = quat_integrate(q, omega, h)
    assert np.allclose(q2, q_ref, atol=1e-12)


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.25) == pytest.approx(0.25)
    for x in np.linspace(-20, 20, 401):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi + 1e-15
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(unit_floats, min_size=4, max_size=4))
def test_normalize_produces_unit_quaternion(parts):
    q = np.array(parts)
    if np.linalg.norm(q) < 1e-3:
        return
    qn = quat_normalize(q)
    assert np.linalg.norm(qn) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(unit_floats, min_size=3, max_size=3),
    st.lists(unit_floats, min_size=3, max_size=3),
)
def test_rotation_preserves_lengths_and_composition(a, b):
    rv_a, rv_b = np.array(a), np.array(b)
    qa, qb = quat_from_rotvec(rv_a), quat_from_rotvec(rv_b)
    v = np.array([0.3, 0.1, -0.7])
    Ra, Rb = quat_to_matrix(qa), quat_to_matrix(qb)
    assert np.linalg.norm(Ra @ v) == pytest.approx(np.linalg.norm(v), abs=1e-12)
    assert np.allclose(
        quat_to_matrix(quat_multiply(qa, qb)) @ v, Ra @ (Rb @ v), atol=1e-12
    )


def test_float_cores_match_array_helpers_bit_for_bit():
    # the package's quaternion functions run on Python floats; the array
    # versions in the oracles module must give the very same bits
    qs = random_quats(200, seed=3)
    rng = np.random.default_rng(4)
    rotvecs = list(rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-14, 0.5, (200, 1)))
    rotvecs += [np.zeros(3), np.array([3e-13, 0.0, -1e-13])]   # first-order branch
    qs = list(qs) + [np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 1e-13, 0.0, 0.0])]
    for a, b, r in zip(qs, qs[::-1], rotvecs):
        fa, fb, fr = a.tolist(), b.tolist(), r.tolist()
        assert np.array_equal(quat_multiply(fa, fb), oracles.quat_multiply(a, b))
        assert np.array_equal(quat_normalize((3.0 * a).tolist()), oracles.quat_normalize(3.0 * a))
        assert np.array_equal(quat_from_rotvec(fr), oracles.quat_from_rotvec(r))
        assert np.array_equal(quat_to_rotvec(fa), oracles.quat_to_rotvec(a))
        assert np.array_equal(quat_integrate(fa, fr, 1e-3), oracles.quat_integrate(a, r, 1e-3))
