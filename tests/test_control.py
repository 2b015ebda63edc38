"""Cascaded controller stages: laws, model inverse, saturation, latching.

Expected numbers were computed independently from the stated control
laws (PD position law, per-axis first-order rate law with gyroscopic
feedforward, closed-form actuator inverse) and frozen as literals.  The
quaternion attitude loop is also checked against the rotation-matrix
version in the oracles module.
"""

import itertools
import math
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailsim.control import (
    FORCE_FLOOR,
    ROLL_CLAMP_MARGIN,
    ActuatorCommand,
    CascadeController,
    ControllerGains,
    LoopRates,
    Setpoint,
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
)
from tailsim.scenarios import hover_attitude
from tailsim.sim import VehicleState, step

import oracles
from oracles import quat_to_matrix

PARAMS = VehicleParams()
GAINS = ControllerGains()


def hover_estimate(p=(0.0, 0.0, 1.5), yaw=0.0):
    return StateEstimate(
        p=np.array(p, dtype=float),
        v=np.zeros(3),
        q=hover_attitude(yaw),
        omega=np.zeros(3),
    )


def still_setpoint(p=(0.0, 0.0, 1.5), psi=0.0):
    return Setpoint(p_des=np.array(p, dtype=float), v_des=np.zeros(3), psi_des=psi)


# --------------------------------------------------------------------------
# position loop
# --------------------------------------------------------------------------

def test_position_control_zero_error_gives_hover_force():
    f = position_control(still_setpoint(), np.array([0.0, 0.0, 1.5]), np.zeros(3), GAINS, PARAMS)
    assert np.allclose(f, [0.0, 0.0, 0.65 * 9.81], rtol=1e-15)


def test_position_control_vertical_step():
    # 0.3 m below the setpoint: a_z = g + 0.3 / tau_z^2 = 9.81 + 3.3333...
    f = position_control(still_setpoint(), np.array([0.0, 0.0, 1.2]), np.zeros(3), GAINS, PARAMS)
    assert f[2] == pytest.approx(8.543166666666667, rel=1e-12)
    assert f[0] == 0.0 and f[1] == 0.0


def test_position_control_horizontal_gains():
    # 1 m position error: a = 1 / tau_xy^2 = 4; 1 m/s velocity error: a = 2 zeta / tau = 2.4
    f_p = position_control(
        still_setpoint(p=(1.0, 0.0, 1.5)), np.array([0.0, 0.0, 1.5]), np.zeros(3), GAINS, PARAMS
    )
    assert f_p[0] == pytest.approx(0.65 * 4.0, rel=1e-12)
    sp = Setpoint(p_des=np.array([0.0, 0.0, 1.5]), v_des=np.array([1.0, 0.0, 0.0]))
    f_v = position_control(sp, np.array([0.0, 0.0, 1.5]), np.zeros(3), GAINS, PARAMS)
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
    cmd = ActuatorCommand(600.0, 650.0, 0.3, -0.3)
    clamped, saturated = clamp_command(cmd, PARAMS)
    assert not saturated
    assert astuple(clamped) == pytest.approx(astuple(cmd))


def test_clamp_command_clips_and_flags():
    cmd = ActuatorCommand(900.0, -5.0, 1.0, -1.0)
    clamped, saturated = clamp_command(cmd, PARAMS)
    assert saturated
    assert clamped.omega_left == 790.0
    assert clamped.omega_right == 0.0
    assert clamped.delta_left == 0.785
    assert clamped.delta_right == -0.785


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
        cmd = ActuatorCommand(w_l, w_r, d_l, d_r)
        got, got_sat = clamp_command(cmd, PARAMS)
        want, want_sat = oracles.reference_clamp_command(cmd, PARAMS)
        assert got_sat == want_sat, cmd
        assert [_bits(x) for x in astuple(got)] == [_bits(x) for x in astuple(want)], cmd


# --------------------------------------------------------------------------
# cascade wiring
# --------------------------------------------------------------------------

def test_cascade_hover_equilibrium_command():
    ctrl = CascadeController(PARAMS, GAINS)
    cmd = ctrl.update(hover_estimate(), still_setpoint())
    assert cmd.omega_left == pytest.approx(636.8907056884772, rel=1e-9)
    assert cmd.omega_right == pytest.approx(636.8907056884772, rel=1e-9)
    assert cmd.delta_left == pytest.approx(0.0, abs=1e-9)
    assert cmd.delta_right == pytest.approx(0.0, abs=1e-9)
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
        ctrl.update(hover_estimate(), sp)
        if not np.array_equal(ctrl.f_des, f_des):
            position_ticks.append(tick)
        if not np.array_equal(ctrl.omega_des, omega_des):
            attitude_ticks.append(tick)
    assert position_ticks == [0, 5, 10]
    assert attitude_ticks == [0, 2, 4, 6, 8, 10]


def test_cascade_rate_loop_cadence():
    ctrl = CascadeController(PARAMS, GAINS, LoopRates(100.0, 250.0, 500.0))
    sp = still_setpoint()
    changes = 0
    prev = astuple(ctrl.update(hover_estimate(), sp))
    for k in range(1, 20):
        est_k = hover_estimate()
        est_k.omega = np.array([0.0, 0.01 * k, 0.0])  # fresh rate error every call
        cur = astuple(ctrl.update(est_k, sp))
        if not np.array_equal(cur, prev):
            changes += 1
        prev = cur
    # the rate loop fires on every update: 19 changes after the first
    assert changes == 19


def test_cascade_roll_clamp_keeps_command_feasible():
    ctrl = CascadeController(PARAMS, GAINS)
    est = hover_estimate()
    est.omega = np.array([-40.0, 0.0, 0.0])  # violent roll rate error
    ctrl.update(est, still_setpoint())
    assert ctrl.roll_clamped
    limit = (1.0 - ROLL_CLAMP_MARGIN) * 2.0 * ctrl.f_a * PARAMS.l
    assert abs(ctrl.m_des[0]) == pytest.approx(limit, rel=1e-12)


def test_cascade_integral_freezes_while_saturated():
    ctrl = CascadeController(PARAMS, GAINS)
    est = hover_estimate()
    est.omega = np.array([0.0, -80.0, 0.0])  # forces elevon saturation
    ctrl.update(est, still_setpoint())
    assert ctrl.saturated
    assert np.allclose(ctrl.integral, np.zeros(3))
    # once the error is sane again the integral accumulates
    ctrl2 = CascadeController(PARAMS, GAINS)
    est2 = hover_estimate()
    est2.omega = np.array([0.0, 0.1, 0.0])
    ctrl2.update(est2, still_setpoint())
    assert not ctrl2.saturated
    assert ctrl2.integral[1] == pytest.approx(-0.1 / 500.0, rel=1e-12)


def test_cascade_reset_restores_initial_latches():
    ctrl = CascadeController(PARAMS, GAINS)
    ctrl.update(hover_estimate(p=(1.0, 2.0, 3.0)), still_setpoint())
    ctrl.reset()
    assert np.allclose(ctrl.f_des, [0.0, 0.0, 0.65 * 9.81])
    assert np.allclose(ctrl.integral, np.zeros(3))
    assert astuple(ctrl.command) == pytest.approx(np.zeros(4))


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
    est = hover_estimate()
    est.omega = np.array([0.02, 0.0, 0.0])
    cmd = ctrl.update(est, still_setpoint(p=(0.0, 0.0, 1.52)))
    assert not ctrl.saturated
    want = model_inverse(ctrl.m_des, ctrl.f_a, PARAMS)
    assert want.omega_left != pytest.approx(want.omega_right, rel=1e-6)
    act = _hold_over_one_tick(cmd)
    assert act.omega_left == pytest.approx(want.omega_left, rel=1e-9)
    assert act.omega_right == pytest.approx(want.omega_right, rel=1e-9)


def test_cascade_rotor_lag_inversion_clips_and_tracks_sent_command():
    # a 0.3 m climb demand asks for more than omega_max through the lead
    ctrl = CascadeController(PARAMS, GAINS)
    cmd = ctrl.update(hover_estimate(p=(0.0, 0.0, 1.2)), still_setpoint())
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
        LoopRates(position_rate=0.0)
    with pytest.raises(DomainError):
        LoopRates(position_rate=300.0)  # does not divide the 500 Hz rate loop


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", range(7))
def test_setpoint_rejects_each_non_finite_component(index, bad):
    values = [0.0, 0.0, 1.5, 0.1, -0.2, 0.0, 0.3]
    values[index] = bad
    with pytest.raises(DomainError):
        Setpoint(p_des=values[0:3], v_des=values[3:6], psi_des=values[6])


def test_setpoint_stores_float_tuples():
    sp = Setpoint(p_des=np.array([1.0, 2.0, 3.0]), v_des=[0, 1, 0], psi_des=np.float64(0.5))
    assert sp.p_des == (1.0, 2.0, 3.0) and sp.v_des == (0.0, 1.0, 0.0)
    assert all(type(c) is float for c in (*sp.p_des, *sp.v_des, sp.psi_des))
    with pytest.raises(DomainError):
        Setpoint(p_des=np.zeros((3, 3)), v_des=np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", range(4))
def test_model_inverse_rejects_each_non_finite_input(index, bad):
    values = [0.01, -0.02, 0.005, 3.0]      # m_x, m_y, m_z, f_a
    values[index] = bad
    with pytest.raises(DomainError):
        model_inverse(tuple(values[:3]), values[3], PARAMS)


def test_setpoint_validation_and_heading_wrap():
    with pytest.raises(DomainError):
        Setpoint(p_des=np.array([0.0, 0.0]), v_des=np.zeros(3))
    with pytest.raises(DomainError):
        Setpoint(p_des=np.array([0.0, 0.0, np.inf]), v_des=np.zeros(3))
    sp = Setpoint(p_des=np.zeros(3), v_des=np.zeros(3), psi_des=3.0 * math.pi)
    assert sp.psi_des == pytest.approx(math.pi)
    # huge finite entries are accepted: the finiteness test must not overflow
    sp = Setpoint(p_des=[1e308, 1e308, 1e308], v_des=[1e308, -1e308, 1e308], psi_des=1e308)
    assert sp.p_des == (1e308, 1e308, 1e308) and sp.v_des == (1e308, -1e308, 1e308)
    with pytest.raises(DomainError):
        Setpoint(p_des=[0.0, "x", 0.0], v_des=np.zeros(3))
    with pytest.raises(DomainError):
        Setpoint(p_des=np.zeros(3), v_des=np.array([0.0, 0.0]))


def test_setpoint_matches_map_all_oracle():
    cases = [
        ((0.0, -0.0, 1.5), (0.1, -0.2, 0.0), 0.3),
        (np.array([1.0, 2.0, 3.0]), [0, 1, 0], np.float64(7.0)),
        ([1e308, -1e308, 5e-324], (-5e-324, 1e308, 0.0), -1e308),
        (("1.5", 2, True), (0.0, 0.0, 0.0), "0.25"),
    ]
    for p, v, psi in cases:
        got, want = Setpoint(p, v, psi), oracles.ReferenceSetpoint(p, v, psi)
        for g, w in zip((*got.p_des, *got.v_des, got.psi_des),
                        (*want.p_des, *want.v_des, want.psi_des)):
            assert type(g) is float and _bits(g) == _bits(w)
    bad = [
        ((0.0, 0.0), (0.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0), "xyz", 0.0),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), None),
        (np.zeros((3, 3)), (0.0, 0.0, 0.0), 0.0),
    ]
    for p, v, psi in bad:
        with pytest.raises(DomainError):
            oracles.ReferenceSetpoint(p, v, psi)
        with pytest.raises(DomainError):
            Setpoint(p, v, psi)
