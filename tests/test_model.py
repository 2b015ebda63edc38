"""Propeller/flap wrench model and vehicle parameters.

Expected numbers below were computed independently from the closed-form
force and moment expressions (thrust k_t*omega^2, rotor drag torque
k_m*omega^2, flap lift k_l*omega^2*delta, flap drag k_d*omega^2*delta^2,
flap pitch moment k_p*omega^2*delta) and frozen as literals.
"""

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailsim.control
import tailsim.model
import tailsim.rotations
from tailsim.errors import DomainError
from tailsim.model import ActuatorState, VehicleParams, actuator_wrench, total_wrench
from tailsim.scenarios import hover_attitude
from tailsim.sysid import generate_synthetic

from oracles import quat_to_matrix

PARAMS = VehicleParams()
COEFFS = (PARAMS.k_t, PARAMS.k_m, PARAMS.k_l, PARAMS.k_d, PARAMS.k_p, PARAMS.l)

omegas = st.floats(0.0, 790.0, allow_nan=False)
deltas = st.floats(-0.785, 0.785, allow_nan=False)


def test_default_parameters():
    p = PARAMS
    assert p.m == 0.65
    assert p.l == 0.2
    assert p.b == 0.64
    assert (p.j_xx, p.j_yy, p.j_zz) == (0.014, 0.0064, 0.018)
    assert p.k_t == 7.86e-6
    assert p.k_m == 1.8e-7
    assert p.k_l == 3.48e-6
    assert p.k_d == 1.75e-6
    assert p.k_p == 3.44e-7
    assert p.omega_max == 790.0
    assert p.delta_max == 0.785
    assert p.g_mag == 9.81


def test_parameter_validation_rejects_nonpositive():
    with pytest.raises(DomainError):
        VehicleParams(m=0.0)
    with pytest.raises(DomainError):
        VehicleParams(k_t=-1e-6)
    with pytest.raises(DomainError):
        VehicleParams(omega_max=0.0)


def test_hover_rotor_speed_balances_weight():
    # equilibrium rotor speed sqrt(m*g / (2*k_t))
    w = PARAMS.hover_rotor_speed()
    assert w == pytest.approx(636.8907056884772, rel=1e-15)
    assert 2.0 * PARAMS.k_t * w * w == pytest.approx(PARAMS.m * PARAMS.g_mag, rel=1e-15)


def one_side(omega, delta=0.0, side="left"):
    """One side's wrench about the centre of mass, the other rotor at rest."""
    sides = (omega, 0.0, delta, 0.0) if side == "left" else (0.0, omega, 0.0, delta)
    return actuator_wrench(*sides, *COEFFS)


def bench(omega, delta=0.0):
    """The left unit's (force, torque) about its own hub, from the bench model."""
    records = generate_synthetic(PARAMS, [omega], [delta])
    return tuple(records.force[0].tolist()), tuple(records.torque[0].tolist())


def test_prop_thrust_magnitude_and_direction():
    force, _ = bench(636.9)
    # thrust along -z in the body frame
    assert force[2] == pytest.approx(-3.1883430546, rel=1e-12)
    assert force[0] == 0.0 and force[1] == 0.0


def test_prop_thrust_at_max_speed():
    assert one_side(790.0, side="right")[2] == pytest.approx(-4.905426, rel=1e-12)


def test_prop_reaction_torques_are_opposite():
    _, left = bench(636.9)
    right = one_side(636.9, side="right")[3:]
    # counter-rotating pair: equal magnitude, opposite sign about the thrust axis
    assert left[2] == pytest.approx(0.0730154898, rel=1e-12)
    assert right[2] == pytest.approx(-0.0730154898, rel=1e-12)
    # no roll/pitch torque about the hub itself
    assert left[0] == 0.0 and left[1] == 0.0


def test_flap_lift_drag_and_pitch_moment():
    force, torque = bench(636.9, 0.1)
    # lift k_l*omega^2*delta acts along -x for positive deflection
    assert force[0] == pytest.approx(-0.14116328028, rel=1e-12)
    # drag k_d*omega^2*delta^2 opposes the slipstream, i.e. +z component
    assert force[2] - bench(636.9)[0][2] == pytest.approx(0.007098728175, rel=1e-12)
    assert force[1] == 0.0
    # pitch moment -k_p*omega^2*delta about y
    assert torque[1] == pytest.approx(-0.013954071384, rel=1e-12)


def test_flap_zero_deflection_is_inert():
    # the propeller alone: no lift, no drag, no pitch moment
    w2 = 700.0 * 700.0
    assert bench(700.0) == ((0.0, 0.0, -PARAMS.k_t * w2), (0.0, 0.0, PARAMS.k_m * w2))


@settings(max_examples=200, deadline=None)
@given(omegas, deltas)
def test_flap_lift_odd_drag_even_in_deflection(omega, delta):
    plus = one_side(omega, delta)
    minus = one_side(omega, -delta)
    assert plus[0] == pytest.approx(-minus[0], abs=1e-12)
    assert plus[4] == pytest.approx(-minus[4], abs=1e-12)
    assert plus[2] == pytest.approx(minus[2], abs=1e-12)
    assert plus[2] >= one_side(omega)[2]


@settings(max_examples=200, deadline=None)
@given(omegas, deltas)
def test_wrench_scales_with_speed_squared(omega, delta):
    one = one_side(omega, delta)
    two = one_side(2.0 * omega, delta)
    assert np.allclose(two, 4.0 * np.array(one), rtol=1e-12, atol=1e-12)


def test_total_wrench_hover_cancels_gravity():
    w_h = PARAMS.hover_rotor_speed()
    act = ActuatorState(omega_left=w_h, omega_right=w_h, delta_left=0.0, delta_right=0.0)
    R_wb = quat_to_matrix(hover_attitude(0.0)).T
    total = total_wrench(act, R_wb, PARAMS)
    # world-frame force balances weight exactly; torques cancel pairwise
    assert np.allclose(total[:3], [0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(total[3:], [0.0, 0.0, 0.0], atol=1e-12)


def test_total_wrench_differential_speed_yields_roll_and_yaw():
    act = ActuatorState(omega_left=660.0, omega_right=610.0, delta_left=0.0, delta_right=0.0)
    R_wb = quat_to_matrix(hover_attitude(0.0)).T
    total = total_wrench(act, R_wb, PARAMS)
    # faster left rotor rolls positive about x (thrust arm l) and yaws
    # positive about z (left reaction torque is +z); no pitch coupling
    assert total[3] == pytest.approx(
        PARAMS.l * PARAMS.k_t * (660.0**2 - 610.0**2), rel=1e-12
    )
    assert total[5] == pytest.approx(
        PARAMS.k_m * (660.0**2 - 610.0**2), rel=1e-12
    )
    assert total[4] == pytest.approx(0.0, abs=1e-12)
    assert total[0] == pytest.approx(0.0, abs=1e-12)
    assert total[1] == pytest.approx(0.0, abs=1e-12)


def test_total_wrench_zero_actuation_is_weight_alone():
    act = ActuatorState(omega_left=0.0, omega_right=0.0, delta_left=0.0, delta_right=0.0)
    R_wb = np.eye(3)
    total = total_wrench(act, R_wb, PARAMS)
    assert np.allclose(total[:3], [0.0, 0.0, -PARAMS.m * PARAMS.g_mag])
    assert total[3:] == (0.0, 0.0, 0.0)


def test_total_wrench_differential_deflection_yields_yaw():
    w_h = PARAMS.hover_rotor_speed()
    act = ActuatorState(omega_left=w_h, omega_right=w_h, delta_left=0.1, delta_right=-0.1)
    R_wb = quat_to_matrix(hover_attitude(0.0)).T
    total = total_wrench(act, R_wb, PARAMS)
    # opposite lift at opposite lateral arms couples into yaw:
    # left lift -k_l w^2 d at (0,-l,0) gives torque z = l * (-k_l w^2 d)
    lift = PARAMS.k_l * w_h * w_h * 0.1
    assert total[5] == pytest.approx(-2.0 * PARAMS.l * lift, rel=1e-12)
    # symmetric drag cancels laterally, pitch torques cancel
    assert total[4] == pytest.approx(0.0, abs=1e-12)
    assert total[3] == pytest.approx(0.0, abs=1e-12)
    assert total[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("module", [tailsim.control, tailsim.model, tailsim.rotations],
                         ids=lambda m: m.__name__)
def test_closed_loop_laws_import_no_numpy(module):
    # the control laws, the wrench model and the quaternion helpers run on Python floats
    tree = ast.parse(inspect.getsource(module))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
