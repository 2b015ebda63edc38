"""Cascaded controller stages: laws, model inverse, saturation, latching.

Expected numbers were computed independently from the stated control
laws (PD position law, per-axis first-order rate law with gyroscopic
feedforward, closed-form actuator inverse) and frozen as literals.  The
quaternion attitude loop is also checked against the rotation-matrix
version in the oracles module, and the float cascade, bit for bit,
against the cascade on ``StateEstimate``, ``Setpoint`` and
``ActuatorCommand`` objects that it replaced.  The setpoint tests check
the sample that ``scenarios.reference`` hands the cascade.
"""

import itertools
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailsim import control
from tailsim.config import Config, apply_overrides
from tailsim.control import (
    FORCE_FLOOR,
    ROLL_CLAMP_MARGIN,
    ActuatorCommand,
    CascadeController,
    ControllerGains,
    LoopRates,
    StateEstimate,
    attitude_control,
    attitude_setpoint,
    clamp_command,
    model_inverse,
    position_control,
    rate_control,
)
from tailsim.errors import DegenerateThrustError, DomainError, InfeasibleRollError
from tailsim.model import ActuatorState, VehicleParams
from tailsim.rotations import (
    quat_conjugate,
    quat_from_rotvec,
    quat_multiply,
    quat_to_rotvec,
    wrap_angle,
)
from tailsim.scenarios import Scenario, _Leg, hover_attitude, make_scenario, reference
from tailsim.sim import VehicleState, step

import oracles
from oracles import quat_to_matrix

PARAMS = VehicleParams()
GAINS = ControllerGains()


def hover_estimate(p=(0.0, 0.0, 1.5), yaw=0.0, omega=(0.0, 0.0, 0.0)):
    """Position, velocity, attitude and body rates at level hover, as
    :meth:`CascadeController.update` takes them."""
    return tuple(p), (0.0, 0.0, 0.0), tuple(hover_attitude(yaw).tolist()), tuple(omega)


def still_setpoint(p=(0.0, 0.0, 1.5), psi=0.0):
    """A reference sample at rest, as :func:`tailsim.scenarios.reference` returns one."""
    return tuple(p), (0.0, 0.0, 0.0), psi


# --------------------------------------------------------------------------
# position loop
# --------------------------------------------------------------------------

def test_position_control_zero_error_gives_hover_force():
    p_des, v_des, _ = still_setpoint()
    f = position_control(p_des, v_des, np.array([0.0, 0.0, 1.5]), np.zeros(3), GAINS, PARAMS)
    assert np.allclose(f, [0.0, 0.0, 0.65 * 9.81], rtol=1e-15)


def test_position_control_vertical_step():
    # 0.3 m below the setpoint: a_z = g + 0.3 / tau_z^2 = 9.81 + 3.3333...
    p_des, v_des, _ = still_setpoint()
    f = position_control(p_des, v_des, np.array([0.0, 0.0, 1.2]), np.zeros(3), GAINS, PARAMS)
    assert f[2] == pytest.approx(8.543166666666667, rel=1e-12)
    assert f[0] == 0.0 and f[1] == 0.0


def test_position_control_horizontal_gains():
    # 1 m position error: a = 1 / tau_xy^2 = 4; 1 m/s velocity error: a = 2 zeta / tau = 2.4
    f_p = position_control(
        (1.0, 0.0, 1.5), (0.0, 0.0, 0.0), np.array([0.0, 0.0, 1.5]), np.zeros(3), GAINS, PARAMS
    )
    assert f_p[0] == pytest.approx(0.65 * 4.0, rel=1e-12)
    f_v = position_control(
        (0.0, 0.0, 1.5), (1.0, 0.0, 0.0), np.array([0.0, 0.0, 1.5]), np.zeros(3), GAINS, PARAMS
    )
    assert f_v[0] == pytest.approx(0.65 * 2.4, rel=1e-12)


# --------------------------------------------------------------------------
# attitude setpoint and attitude loop
# --------------------------------------------------------------------------

def test_attitude_setpoint_hover():
    q_des, f_a = attitude_setpoint(np.array([0.0, 0.0, 6.3765]), 0.0, PARAMS)
    assert f_a == pytest.approx(3.18825, rel=1e-12)
    assert np.allclose(quat_to_matrix(q_des), np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_attitude_setpoint_heading_only():
    psi = 0.7
    q_des, _ = attitude_setpoint(np.array([0.0, 0.0, 6.3765]), psi, PARAMS)
    R_bw = quat_to_matrix(q_des)
    # thrust axis (body -z) still world-up; body x rotated to the heading
    assert np.allclose(R_bw @ [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(R_bw @ [1.0, 0.0, 0.0], [math.cos(psi), math.sin(psi), 0.0], atol=1e-14)


def test_attitude_setpoint_tilts_thrust_axis_onto_force():
    f_des = np.array([1.0, -0.5, 6.0])
    q_des, f_a = attitude_setpoint(f_des, 0.3, PARAMS)
    R_bw = quat_to_matrix(q_des)
    f_hat = f_des / np.linalg.norm(f_des)
    assert np.allclose(R_bw @ [0.0, 0.0, -1.0], f_hat, atol=1e-13)
    assert f_a == pytest.approx(0.5 * np.linalg.norm(f_des), rel=1e-14)
    assert np.allclose(R_bw @ R_bw.T, np.eye(3), atol=1e-13)
    assert np.linalg.det(R_bw) == pytest.approx(1.0, abs=1e-12)


def test_attitude_setpoint_straight_down_force_uses_fallback():
    q_des, _ = attitude_setpoint(np.array([0.0, 0.0, -2.0]), 0.0, PARAMS)
    assert np.allclose(quat_to_matrix(q_des) @ [0.0, 0.0, -1.0], [0.0, 0.0, -1.0], atol=1e-13)


def test_attitude_setpoint_rejects_tiny_force():
    with pytest.raises(DegenerateThrustError):
        attitude_setpoint(np.array([0.0, 0.0, 0.5 * FORCE_FLOOR]), 0.0, PARAMS)


def test_attitude_control_zero_error():
    q = hover_attitude(0.4)
    assert np.allclose(attitude_control(q, q, GAINS), np.zeros(3), atol=1e-14)


def test_attitude_control_yaw_error_rate():
    q_des = hover_attitude(0.0)
    q_est = hover_attitude(0.1)
    w = attitude_control(q_est, q_des, GAINS)
    # 0.1 rad heading error over tau_att = 0.2 s -> 0.5 rad/s about body z
    assert w[2] == pytest.approx(0.5, rel=1e-9)
    assert np.allclose(w[:2], 0.0, atol=1e-12)


def test_attitude_control_error_scales_inverse_tau():
    gains_fast = ControllerGains(tau_att=0.1)
    q_des = hover_attitude(0.0)
    q_est = hover_attitude(0.1)
    assert attitude_control(q_est, q_des, gains_fast)[2] == pytest.approx(1.0, rel=1e-9)


def test_attitude_control_recovers_euler_angles():
    # an error rotation Rz(yaw) Ry(pitch) Rx(roll) reads back as its angles
    roll, pitch, yaw = 0.2, -0.4, 1.1
    err = quat_multiply(
        quat_multiply(quat_from_rotvec([0.0, 0.0, yaw]), quat_from_rotvec([0.0, pitch, 0.0])),
        quat_from_rotvec([roll, 0.0, 0.0]),
    )
    q_est = hover_attitude(0.3)
    w = attitude_control(q_est, quat_multiply(q_est, err), GAINS)
    assert np.allclose(np.multiply(w, GAINS.tau_att), [roll, pitch, yaw], atol=1e-12)


def test_attitude_control_gimbal_lock_uses_rotation_vector():
    # pitch -pi/2 with roll and yaw: the Euler angles are undefined, so
    # the command follows the rotation vector of the error
    err = quat_multiply(
        quat_multiply(quat_from_rotvec([0.0, 0.0, 0.2]), quat_from_rotvec([0.0, -0.5 * math.pi, 0.0])),
        quat_from_rotvec([0.3, 0.0, 0.0]),
    )
    q_est = hover_attitude(-0.6)
    w = attitude_control(q_est, quat_multiply(q_est, err), GAINS)
    assert np.isfinite(w).all()
    assert np.allclose(np.multiply(w, GAINS.tau_att), quat_to_rotvec(err), atol=1e-12)


def _random_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def _assert_matches_matrix_oracle(f_des, psi, q_est):
    q_des, f_a = attitude_setpoint(f_des, psi, PARAMS)
    R_wb_des, f_a_oracle = oracles.attitude_setpoint(f_des, psi, PARAMS)
    assert f_a == pytest.approx(f_a_oracle, rel=1e-15)
    assert np.max(np.abs(quat_to_matrix(q_des) - R_wb_des.T)) <= 1e-14
    w = attitude_control(q_est, q_des, GAINS)
    w_oracle = oracles.attitude_control(quat_to_matrix(q_est).T, R_wb_des, GAINS)
    assert np.max(np.abs(w - w_oracle)) <= 1e-12 * np.max(np.abs(w_oracle))


def test_attitude_loop_matches_matrix_oracle_random():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        f_des = rng.standard_normal(3) * rng.uniform(0.1, 20.0)
        _assert_matches_matrix_oracle(f_des, rng.uniform(-math.pi, math.pi), _random_quat(rng))


def test_attitude_loop_matches_matrix_oracle_special_forces():
    rng = np.random.default_rng(22)
    hover = np.array([0.0, 0.0, PARAMS.m * PARAMS.g_mag])
    for psi in np.linspace(-math.pi, math.pi, 13)[1:]:
        a = rng.uniform(-math.pi, math.pi)
        nearly_down = np.array([1e-7 * math.cos(a), 1e-7 * math.sin(a), -1.0])
        for f_des in (hover, np.array([0.0, 0.0, -2.0]), nearly_down):
            _assert_matches_matrix_oracle(f_des, psi, _random_quat(rng))
        _assert_matches_matrix_oracle(hover, psi, hover_attitude(psi + 0.05))


def test_attitude_loop_matches_matrix_oracle_at_gimbal_lock():
    q_des, _ = attitude_setpoint(np.array([0.5, -0.2, 6.0]), 0.4, PARAMS)
    # the estimate sits so that the error q_est^-1 q_des is yaw 0.2 after pitch pi/2
    err = quat_multiply(quat_from_rotvec([0.0, 0.0, 0.2]), quat_from_rotvec([0.0, 0.5 * math.pi, 0.0]))
    q_est = quat_multiply(q_des, quat_conjugate(err))
    w = attitude_control(q_est, q_des, GAINS)
    assert np.allclose(np.multiply(w, GAINS.tau_att), quat_to_rotvec(err), atol=1e-12)
    _assert_matches_matrix_oracle(np.array([0.5, -0.2, 6.0]), 0.4, q_est)


# --------------------------------------------------------------------------
# rate loop
# --------------------------------------------------------------------------

def test_rate_control_proportional_term():
    m = rate_control(np.zeros(3), np.array([0.1, 0.0, 0.0]), np.zeros(3), GAINS, PARAMS)
    # J_xx * (0.1 / tau_omega_x) = 0.014 * 2.5
    assert m[0] == pytest.approx(0.035, rel=1e-12)
    assert m[1] == 0.0 and m[2] == 0.0


def test_rate_control_gyroscopic_feedforward():
    omega = np.array([1.0, 2.0, 3.0])
    m = rate_control(omega, omega, np.zeros(3), GAINS, PARAMS)
    J = np.diag([0.014, 0.0064, 0.018])
    assert np.allclose(m, np.cross(omega, J @ omega), rtol=1e-12)


def test_rate_control_integral_term():
    m = rate_control(np.zeros(3), np.zeros(3), np.array([0.01, 0.01, 0.01]), GAINS, PARAMS)
    assert m[0] == pytest.approx(0.014 * 20.0 * 0.01, rel=1e-12)
    assert m[1] == pytest.approx(0.0064 * 5.0 * 0.01, rel=1e-12)
    assert m[2] == 0.0  # yaw integral gain defaults to zero


# --------------------------------------------------------------------------
# model inverse
# --------------------------------------------------------------------------

def drag_free_wrench(cmd: ActuatorCommand, params: VehicleParams):
    """Forward force/moment map with slipstream drag omitted.

    Returns (total thrust N, body torque N m) assembled from first
    principles: thrust k_t w^2 per rotor at lateral arms +/- l, rotor
    reaction torque +/- k_m w^2, slipstream lift -k_l w^2 delta at the
    same arms, elevon pitch torque -k_p w^2 delta.
    """
    w2l, w2r = cmd.omega_left**2, cmd.omega_right**2
    thrust = params.k_t * (w2l + w2r)
    m_x = params.l * params.k_t * (w2l - w2r)
    m_y = -params.k_p * (w2l * cmd.delta_left + w2r * cmd.delta_right)
    m_z = params.k_m * (w2l - w2r) + params.l * params.k_l * (
        w2r * cmd.delta_right - w2l * cmd.delta_left
    )
    return thrust, np.array([m_x, m_y, m_z])


def test_model_inverse_pure_roll_rotor_speeds():
    cmd = model_inverse(np.array([0.1, 0.0, 0.0]), 3.188, PARAMS)
    assert cmd.omega_left == pytest.approx(661.3656932081311, rel=1e-12)
    assert cmd.omega_right == pytest.approx(611.3847794969294, rel=1e-12)


def test_model_inverse_zero_torque_is_hover():
    cmd = model_inverse(np.zeros(3), 0.5 * 0.65 * 9.81, PARAMS)
    assert cmd.omega_left == pytest.approx(636.8907056884772, rel=1e-12)
    assert cmd.omega_right == pytest.approx(cmd.omega_left, rel=1e-15)
    assert cmd.delta_left == pytest.approx(0.0, abs=1e-15)
    assert cmd.delta_right == pytest.approx(0.0, abs=1e-15)


def test_model_inverse_round_trip_specific_case():
    m_des = np.array([0.05, -0.02, 0.01])
    f_a = 3.0
    cmd = model_inverse(m_des, f_a, PARAMS)
    thrust, torque = drag_free_wrench(cmd, PARAMS)
    assert thrust == pytest.approx(2.0 * f_a, rel=1e-12)
    assert np.allclose(torque, m_des, rtol=1e-12, atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(-0.05, 0.05),
    st.floats(-0.05, 0.05),
    st.floats(1.0, 4.9),
)
def test_model_inverse_round_trip_property(m_x, m_y, m_z, f_a):
    m_des = np.array([m_x, m_y, m_z])
    if abs(m_x) >= 2.0 * f_a * PARAMS.l * 0.999:
        return
    cmd = model_inverse(m_des, f_a, PARAMS)
    thrust, torque = drag_free_wrench(cmd, PARAMS)
    assert thrust == pytest.approx(2.0 * f_a, rel=1e-9)
    assert np.allclose(torque, m_des, rtol=1e-9, atol=1e-12)


def test_model_inverse_roll_feasibility_boundary():
    f_a = 2.0
    lever = 2.0 * f_a * PARAMS.l
    with pytest.raises(InfeasibleRollError):
        model_inverse(np.array([lever, 0.0, 0.0]), f_a, PARAMS)
    with pytest.raises(InfeasibleRollError):
        model_inverse(np.array([-lever - 0.01, 0.0, 0.0]), f_a, PARAMS)
    # just inside the boundary still solves
    cmd = model_inverse(np.array([0.99 * lever, 0.0, 0.0]), f_a, PARAMS)
    assert cmd.omega_right > 0.0


def test_model_inverse_rejects_nonpositive_thrust():
    with pytest.raises(DomainError):
        model_inverse(np.zeros(3), 0.0, PARAMS)
    with pytest.raises(DomainError):
        model_inverse(np.zeros(3), -1.0, PARAMS)


# --------------------------------------------------------------------------
# saturation
# --------------------------------------------------------------------------

def test_clamp_command_passes_valid_through():
    *clamped, saturated = clamp_command(600.0, 650.0, 0.3, -0.3, PARAMS)
    assert not saturated
    assert clamped == [600.0, 650.0, 0.3, -0.3]


def test_clamp_command_clips_and_flags():
    *clamped, saturated = clamp_command(900.0, -5.0, 1.0, -1.0, PARAMS)
    assert saturated
    assert clamped == [790.0, 0.0, 0.785, -0.785]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_clamp_command_is_bit_identical_to_min_max_oracle():
    w_max, d_max = PARAMS.omega_max, PARAMS.delta_max
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf]
    rotor = edges + [w_max, math.nextafter(w_max, math.inf), math.nextafter(w_max, 0.0),
                     math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0), 400.0]
    elevon = edges + [d_max, -d_max, math.nextafter(d_max, math.inf),
                      math.nextafter(-d_max, -math.inf), math.nextafter(d_max, 0.0),
                      math.nextafter(-d_max, 0.0), 0.3]
    for w_l, w_r, d_l, d_r in itertools.product(rotor, rotor, elevon, elevon):
        *got, got_sat = clamp_command(w_l, w_r, d_l, d_r, PARAMS)
        want, want_sat = oracles.reference_clamp_command(
            ActuatorCommand(w_l, w_r, d_l, d_r), PARAMS)
        assert type(got_sat) is bool and got_sat == want_sat, (w_l, w_r, d_l, d_r)
        assert [_bits(x) for x in got] == [_bits(x) for x in astuple(want)], (w_l, w_r, d_l, d_r)


# --------------------------------------------------------------------------
# cascade wiring
# --------------------------------------------------------------------------

def test_cascade_hover_equilibrium_command():
    ctrl = CascadeController(PARAMS, GAINS)
    w_l, w_r, d_l, d_r = ctrl.update(*hover_estimate(), *still_setpoint())
    assert w_l == pytest.approx(636.8907056884772, rel=1e-9)
    assert w_r == pytest.approx(636.8907056884772, rel=1e-9)
    assert d_l == pytest.approx(0.0, abs=1e-9)
    assert d_r == pytest.approx(0.0, abs=1e-9)
    assert not ctrl.saturated and not ctrl.roll_clamped


def test_cascade_stage_latching():
    # one update per 500 Hz rate-loop tick: position fires every 5th tick
    # and attitude every 2nd, both from tick 0.  Their inputs change on
    # every tick, yet their outputs stay latched between firings.
    ctrl = CascadeController(PARAMS, GAINS)
    position_ticks, attitude_ticks = [], []
    for tick in range(11):
        f_des, omega_des = ctrl.f_des, ctrl.omega_des
        sp = still_setpoint(p=(0.1 * (tick + 1), 0.0, 1.5), psi=0.01 * (tick + 1))
        ctrl.update(*hover_estimate(), *sp)
        if not np.array_equal(ctrl.f_des, f_des):
            position_ticks.append(tick)
        if not np.array_equal(ctrl.omega_des, omega_des):
            attitude_ticks.append(tick)
    assert position_ticks == [0, 5, 10]
    assert attitude_ticks == [0, 2, 4, 6, 8, 10]


def test_cascade_rate_loop_cadence():
    ctrl = CascadeController(PARAMS, GAINS, LoopRates(100, 250, 500))
    sp = still_setpoint()
    changes = 0
    prev = ctrl.update(*hover_estimate(), *sp)
    for k in range(1, 20):
        est_k = hover_estimate(omega=(0.0, 0.01 * k, 0.0))  # fresh rate error every call
        cur = ctrl.update(*est_k, *sp)
        if cur != prev:
            changes += 1
        prev = cur
    # the rate loop fires on every update: 19 changes after the first
    assert changes == 19


def test_cascade_roll_clamp_keeps_command_feasible():
    ctrl = CascadeController(PARAMS, GAINS)
    est = hover_estimate(omega=(-40.0, 0.0, 0.0))  # violent roll rate error
    ctrl.update(*est, *still_setpoint())
    assert ctrl.roll_clamped
    limit = (1.0 - ROLL_CLAMP_MARGIN) * 2.0 * ctrl.f_a * PARAMS.l
    assert abs(ctrl.m_des[0]) == pytest.approx(limit, rel=1e-12)


def test_cascade_integral_freezes_while_saturated():
    ctrl = CascadeController(PARAMS, GAINS)
    est = hover_estimate(omega=(0.0, -80.0, 0.0))  # forces elevon saturation
    ctrl.update(*est, *still_setpoint())
    assert ctrl.saturated
    assert np.allclose(ctrl.integral, np.zeros(3))
    # once the error is sane again the integral accumulates
    ctrl2 = CascadeController(PARAMS, GAINS)
    est2 = hover_estimate(omega=(0.0, 0.1, 0.0))
    ctrl2.update(*est2, *still_setpoint())
    assert not ctrl2.saturated
    assert ctrl2.integral[1] == pytest.approx(-0.1 / 500.0, rel=1e-12)


def test_cascade_reset_restores_initial_latches():
    ctrl = CascadeController(PARAMS, GAINS)
    ctrl.update(*hover_estimate(p=(1.0, 2.0, 3.0)), *still_setpoint())
    ctrl.reset()
    assert np.allclose(ctrl.f_des, [0.0, 0.0, 0.65 * 9.81])
    assert np.allclose(ctrl.integral, np.zeros(3))
    # the next tick is a fresh controller's first
    est = hover_estimate(p=(0.1, 0.0, 1.4), omega=(0.01, 0.0, 0.0))
    fresh = CascadeController(PARAMS, GAINS)
    assert ctrl.update(*est, *still_setpoint()) == fresh.update(*est, *still_setpoint())


def _hold_over_one_tick(cmd):
    # one 500 Hz rate-loop tick is four 0.5 ms physics steps at 2 kHz
    omega_h = PARAMS.hover_rotor_speed()
    state = VehicleState(
        p=np.array([0.0, 0.0, 1.5]), v=np.zeros(3), q=hover_attitude(0.0),
        omega=np.zeros(3), act=ActuatorState(omega_h, omega_h, 0.0, 0.0),
    )
    for _ in range(4):
        state = step(state, cmd, 0.5e-3, PARAMS)
    return state.act


def test_cascade_rotor_lag_inversion_reaches_model_inverse_speeds():
    # from hover trim, a small climb demand plus a roll-rate error asks the
    # two rotors for different speeds; holding the returned command over
    # one tick must land each rotor on the uncompensated model inverse
    ctrl = CascadeController(PARAMS, GAINS)
    est = hover_estimate(omega=(0.02, 0.0, 0.0))
    cmd = ActuatorCommand(*ctrl.update(*est, *still_setpoint(p=(0.0, 0.0, 1.52))))
    assert not ctrl.saturated
    want = model_inverse(ctrl.m_des, ctrl.f_a, PARAMS)
    assert want.omega_left != pytest.approx(want.omega_right, rel=1e-6)
    act = _hold_over_one_tick(cmd)
    assert act.omega_left == pytest.approx(want.omega_left, rel=1e-9)
    assert act.omega_right == pytest.approx(want.omega_right, rel=1e-9)


def test_cascade_rotor_lag_inversion_clips_and_tracks_sent_command():
    # a 0.3 m climb demand asks for more than omega_max through the lead
    ctrl = CascadeController(PARAMS, GAINS)
    cmd = ActuatorCommand(*ctrl.update(*hover_estimate(p=(0.0, 0.0, 1.2)), *still_setpoint()))
    assert ctrl.saturated
    for w in (cmd.omega_left, cmd.omega_right):
        assert 0.0 <= w <= PARAMS.omega_max
    # the rotor model advances with the clamped command, as the plant does
    act = _hold_over_one_tick(cmd)
    assert act.omega_left == pytest.approx(ctrl.omega_hat[0], rel=1e-9)
    assert act.omega_right == pytest.approx(ctrl.omega_hat[1], rel=1e-9)


def test_gains_validation():
    with pytest.raises(DomainError):
        ControllerGains(tau_att=0.0)
    with pytest.raises(DomainError):
        ControllerGains(k_i_omega_x=-1.0)
    with pytest.raises(DomainError):
        LoopRates(position_rate=0)
    with pytest.raises(DomainError):
        LoopRates(position_rate=300)  # does not divide the 500 Hz rate loop


# --------------------------------------------------------------------------
# the setpoint that scenarios.reference hands the cascade
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", range(7))
def test_setpoint_rejects_each_non_finite_component(index, bad):
    # a hover point (index 0-2) and a leg direction (3-5, which also makes
    # that position component non-finite) reach reference's finiteness test;
    # a fixed heading (6) is checked when the scenario is built
    with pytest.raises(DomainError, match="must be finite"):
        if index < 3:
            hover = [0.0, 0.0, 1.5]
            hover[index] = bad
            s = Scenario("hover", duration_s=1.0, hover_pos=np.array(hover))
        elif index < 6:
            u = [0.0, 0.0, 0.0]
            u[index - 3] = bad
            leg = _Leg(0.0, 1.0, (0.0, 0.0, 1.5), tuple(u), 1.0, 2.0, 0.5, 1.0)
            s = Scenario("waypoint", duration_s=1.0, legs=(leg,))
        else:
            s = Scenario("hover", duration_s=1.0, yaw_fixed_rad=bad)
        reference(0.5, s)


def test_setpoint_stores_float_tuples():
    # reference hands out tuples of Python floats, whatever types the
    # scenario was built from
    scenarios = [
        Scenario("hover", duration_s=1.0, hover_pos=np.array([1.0, 2.0, 3.0]),
                 yaw_fixed_rad=np.float64(0.5)),
        Scenario("circle", duration_s=1.0, circle_center=np.array([1.0, 0.0, 2.0]),
                 circle_radius=np.float64(2.0), circle_rate=np.float64(0.5), yaw_mode="tangent"),
        make_scenario(apply_overrides(Config(), {"scenario": "star"})),
    ]
    for s in scenarios:
        p_des, v_des, psi_des = reference(0.5, s)
        assert type(p_des) is tuple and type(v_des) is tuple
        assert all(type(c) is float for c in (*p_des, *v_des, psi_des))
    assert reference(0.5, scenarios[0])[:2] == ((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", range(4))
def test_model_inverse_rejects_each_non_finite_input(index, bad):
    values = [0.01, -0.02, 0.005, 3.0]      # m_x, m_y, m_z, f_a
    values[index] = bad
    with pytest.raises(DomainError):
        model_inverse(tuple(values[:3]), values[3], PARAMS)


def test_setpoint_validation_and_heading_wrap():
    s = Scenario("hover", duration_s=1.0, yaw_fixed_rad=3.0 * math.pi)
    assert reference(0.0, s)[2] == pytest.approx(math.pi)
    # the tangent heading of a circle past a half turn comes back wrapped
    s = Scenario("circle", duration_s=10.0, circle_center=np.zeros(3), yaw_mode="tangent")
    assert reference(3.0, s)[2] == pytest.approx(3.0 + math.pi / 2.0 - 2.0 * math.pi)
    # huge finite entries are accepted: the finiteness test must not overflow
    # (a plain sum of these entries is inf)
    s = Scenario("hover", duration_s=1.0, hover_pos=np.array([1e308, 1e308, 1e308]),
                 yaw_fixed_rad=1e308)
    p_des, v_des, psi_des = reference(0.0, s)
    assert p_des == (1e308, 1e308, 1e308) and -math.pi < psi_des <= math.pi
    with pytest.raises(DomainError, match="outside"):
        reference(1.1, s)
    # headings are wrapped once per scenario, which is exact: wrapping is
    # idempotent on (-pi, pi], including its ends and the float next to them
    angles = np.random.default_rng(5).uniform(-1e3, 1e3, 10_000).tolist()
    angles += [math.pi, -math.pi, math.nextafter(-math.pi, 0.0), 1e308, -0.0, 5e-324]
    for a in angles:
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi and _bits(wrap_angle(w)) == _bits(w), a


# --------------------------------------------------------------------------
# the float cascade against the object cascade it replaced
# --------------------------------------------------------------------------

def _latches(ctrl) -> bytes:
    """Every latched float of a cascade, plus its flags, as bytes."""
    floats = (*ctrl.f_des, *ctrl.q_des, ctrl.f_a, *ctrl.omega_des, *ctrl.m_des,
              *ctrl.integral, *ctrl.omega_hat)
    return struct.pack(f"<{len(floats)}d??q", *floats, ctrl.saturated, ctrl.roll_clamped,
                       ctrl._tick)


def _tick_both(new, old, est, sp) -> str:
    """One tick of the float cascade and of the object oracle on the same
    inputs: the outcomes must match bit for bit, exceptions included.
    Returns the outcome's name."""
    try:
        got = new.update(*est, *sp)
    except Exception as exc:                       # noqa: BLE001 - compared below
        got = exc
    try:
        want = old.update(StateEstimate(*est), oracles.Setpoint(*sp))
    except Exception as exc:                       # noqa: BLE001
        want = exc
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        outcome = type(want).__name__
    else:
        assert struct.pack("<4d", *got) == struct.pack("<4d", *astuple(want))
        outcome = "roll_clamped" if old.roll_clamped else (
            "saturated" if old.saturated else "ok")
    assert _latches(new) == _latches(old)
    return outcome


def _random_tick(rng, k: int):
    """A fed-back state and a setpoint near hover; some ticks demand enough
    roll or pitch rate to clamp the roll or saturate, and a few are fed a
    non-finite estimate."""
    p_des = rng.normal(0.0, 2.0, 3).tolist()
    v_des = rng.normal(0.0, 1.0, 3).tolist()
    psi = float(rng.uniform(-math.pi, math.pi))
    p = (np.array(p_des) + rng.normal(0.0, 0.02 if k % 7 else 1.0, 3)).tolist()
    v = (np.array(v_des) + rng.normal(0.0, 0.05, 3)).tolist()
    tilt = quat_from_rotvec(tuple(rng.normal(0.0, 0.01, 3).tolist()))
    q = quat_multiply(tuple(hover_attitude(psi + float(rng.normal(0.0, 0.01))).tolist()), tilt)
    omega = rng.normal(0.0, 0.02, 3)
    kind = k % 11
    if kind == 3:
        omega[0] = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 60.0)   # roll clamp
    elif kind == 6:
        omega[1] = rng.choice([-1.0, 1.0]) * rng.uniform(40.0, 120.0)  # elevons clip
    omega = omega.tolist()
    if k % 997 == 500:
        omega[2] = math.nan              # model_inverse's DomainError
    if k % 1009 == 20:
        p[0] = math.inf                  # a non-finite f_des: DegenerateThrustError
    return (tuple(p), tuple(v), q, tuple(omega)), (tuple(p_des), tuple(v_des), psi)


def test_cascade_update_is_bit_identical_to_object_oracle():
    new = CascadeController(PARAMS, GAINS)
    old = oracles.ObjectCascade(PARAMS, GAINS)
    rng = np.random.default_rng(2023)
    seen = {}
    for k in range(12_000):
        est, sp = _random_tick(rng, k)
        outcome = _tick_both(new, old, est, sp)
        seen[outcome] = seen.get(outcome, 0) + 1
    assert seen["ok"] > 3000 and seen["roll_clamped"] > 500 and seen["saturated"] > 500
    assert seen["DomainError"] >= 5 and seen["DegenerateThrustError"] >= 5


def test_cascade_errors_match_object_oracle(monkeypatch):
    # a thrust demand that cancels gravity leaves no thrust direction
    new, old = CascadeController(PARAMS, GAINS), oracles.ObjectCascade(PARAMS, GAINS)
    sinking = hover_estimate(p=(0.0, 0.0, 1.5 + PARAMS.g_mag * GAINS.tau_p_z**2))
    assert _tick_both(new, old, sinking, still_setpoint()) == "DegenerateThrustError"
    # a non-finite rate estimate reaches the model inverse
    new, old = CascadeController(PARAMS, GAINS), oracles.ObjectCascade(PARAMS, GAINS)
    est = hover_estimate(omega=(0.0, math.inf, 0.0))
    assert _tick_both(new, old, est, still_setpoint()) == "DomainError"
    # with the margin negative, the roll clamp lets an infeasible roll through
    monkeypatch.setattr(control, "ROLL_CLAMP_MARGIN", -0.5)
    new, old = CascadeController(PARAMS, GAINS), oracles.ObjectCascade(PARAMS, GAINS)
    est = hover_estimate(omega=(-60.0, 0.0, 0.0))
    assert _tick_both(new, old, est, still_setpoint()) == "InfeasibleRollError"
