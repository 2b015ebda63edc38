"""Rigid-body integrator, actuator lags, sensors, and estimators.

Closed-form expected values (ballistic flight, exponential actuator
response, conserved angular momentum, first-order filter gains) were
derived independently and frozen as literals.
"""

import math
import struct
from dataclasses import astuple

import numpy as np
import pytest

from tailsim import scenarios, sim
from tailsim.config import Config, apply_overrides
from tailsim.control import ActuatorCommand, StateEstimate
from tailsim.errors import DomainError, SimulationDivergedError
from tailsim.model import ActuatorState, VehicleParams, total_wrench
from tailsim.rotations import quat_to_rotvec, quat_multiply, quat_conjugate
from tailsim.scenarios import hover_attitude
from tailsim.sim import (
    MAX_PHYSICS_DT,
    NOISE_BLOCK,
    ComplementaryEstimator,
    DisturbanceSpec,
    LowPass,
    Normals,
    SensorSample,
    VehicleState,
    sense,
    step,
)

from oracles import (
    ArrayComplementaryEstimator,
    ArrayLowPass,
    actuator_step,
    array_sense,
    derivative,
    quat_to_matrix,
    reference_clamp_command,
    reference_step,
    reference_wrench,
)

PARAMS = VehicleParams()
HOVER_W = PARAMS.hover_rotor_speed()


def hover_state(z=1.5):
    return VehicleState(
        p=np.array([0.0, 0.0, z]),
        v=np.zeros(3),
        q=hover_attitude(0.0),
        omega=np.zeros(3),
        act=ActuatorState(HOVER_W, HOVER_W, 0.0, 0.0),
    )


def hover_command():
    return ActuatorCommand(HOVER_W, HOVER_W, 0.0, 0.0)


def zero_command():
    return ActuatorCommand(0.0, 0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# integrator
# --------------------------------------------------------------------------

def test_max_physics_dt_and_validation():
    assert MAX_PHYSICS_DT == 2e-3
    st = hover_state()
    with pytest.raises(DomainError):
        step(st, hover_command(), 0.0, PARAMS)
    with pytest.raises(DomainError):
        step(st, hover_command(), 3e-3, PARAMS)


def test_hover_is_a_fixed_point():
    st = hover_state()
    for _ in range(500):  # 1 s
        st = step(st, hover_command(), 2e-3, PARAMS)
    assert np.allclose(st.p, [0.0, 0.0, 1.5], atol=1e-12)
    assert np.allclose(st.v, np.zeros(3), atol=1e-12)
    assert np.allclose(st.omega, np.zeros(3), atol=1e-12)
    assert abs(abs(st.q @ hover_attitude(0.0)) - 1.0) < 1e-12


def test_ballistic_flight_matches_closed_form():
    st = VehicleState(
        p=np.array([0.0, 0.0, 10.0]),
        v=np.array([1.0, 2.0, 3.0]),
        q=np.array([1.0, 0.0, 0.0, 0.0]),
        omega=np.zeros(3),
        act=ActuatorState(),
    )
    dt, n = 2e-3, 250
    for _ in range(n):
        st = step(st, zero_command(), dt, PARAMS)
    t = dt * n
    # RK4 integrates the quadratic free-fall trajectory exactly
    assert st.p[0] == pytest.approx(1.0 * t, rel=1e-12)
    assert st.p[1] == pytest.approx(2.0 * t, rel=1e-12)
    assert st.p[2] == pytest.approx(10.0 + 3.0 * t - 0.5 * 9.81 * t * t, rel=1e-12)
    assert st.v[2] == pytest.approx(3.0 - 9.81 * t, rel=1e-12)
    assert np.allclose(st.omega, np.zeros(3), atol=1e-15)


def test_convergence_order_is_fourth():
    def run(dt, T=0.2):
        st = VehicleState(
            p=np.array([0.0, 0.0, 1.5]),
            v=np.array([0.1, -0.2, 0.05]),
            q=hover_attitude(0.3),
            omega=np.array([0.3, 0.4, -0.2]),
            act=ActuatorState(630.0, 640.0, 0.02, -0.03),
        )
        cmd = ActuatorCommand(650.0, 620.0, 0.10, -0.05)
        for _ in range(round(T / dt)):
            st = step(st, cmd, dt, PARAMS)
        return np.concatenate([st.p, st.v, st.q, st.omega])

    ref = run(1.25e-4)
    err_coarse = np.linalg.norm(run(2e-3) - ref)
    err_fine = np.linalg.norm(run(1e-3) - ref)
    order = math.log2(err_coarse / err_fine)
    assert order >= 3.8


def test_convergence_order_is_fourth_on_the_python_kernel(python_kernel):
    test_convergence_order_is_fourth()


def test_quaternion_stays_unit_norm():
    st = VehicleState(
        p=np.zeros(3),
        v=np.zeros(3),
        q=hover_attitude(0.0),
        omega=np.array([2.0, -1.5, 3.0]),
        act=ActuatorState(500.0, 520.0, 0.1, -0.1),
    )
    cmd = ActuatorCommand(510.0, 505.0, 0.05, 0.0)
    worst = 0.0
    for _ in range(2000):
        st = step(st, cmd, 2e-3, PARAMS)
        worst = max(worst, abs(float(np.linalg.norm(st.q)) - 1.0))
    assert worst < 1e-12


def test_torque_free_angular_momentum_conserved():
    st = VehicleState(
        p=np.zeros(3),
        v=np.zeros(3),
        q=hover_attitude(0.0),
        omega=np.array([0.5, -0.3, 0.8]),
        act=ActuatorState(),  # no actuation -> no torque; gravity has no moment
    )
    J = np.array([PARAMS.j_xx, PARAMS.j_yy, PARAMS.j_zz])
    L0 = quat_to_matrix(st.q) @ (J * st.omega)
    E0 = float(st.omega @ (J * st.omega))
    for _ in range(250):  # 0.5 s
        st = step(st, zero_command(), 2e-3, PARAMS)
    L1 = quat_to_matrix(st.q) @ (J * st.omega)
    E1 = float(st.omega @ (J * st.omega))
    assert np.allclose(L1, L0, rtol=1e-9)
    assert E1 == pytest.approx(E0, rel=1e-9)


def test_constant_force_offset_accelerates():
    dist = DisturbanceSpec.none()
    dist.force_offset_world = np.array([0.0, 0.0, 0.065])  # 0.1 m/s^2 up
    st = hover_state()
    for _ in range(500):  # 1 s
        st = step(st, hover_command(), 2e-3, PARAMS, dist)
    assert st.v[2] == pytest.approx(0.1, rel=1e-9)
    assert st.p[2] == pytest.approx(1.5 + 0.05, rel=1e-9)


def test_constant_torque_offset_spins_up():
    dist = DisturbanceSpec.none()
    dist.torque_offset_body = np.array([0.0, 6.4e-4, 0.0])  # 0.1 rad/s^2 pitch
    st = hover_state()
    st.act = ActuatorState()  # no actuation: pure torque response
    for _ in range(100):  # 0.2 s
        st = step(st, zero_command(), 2e-3, PARAMS, dist)
    assert st.omega[1] == pytest.approx(0.02, rel=1e-6)


def test_step_raises_on_divergence():
    st = hover_state()
    st.omega = np.array([1e160, 1e160, 1e160])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDivergedError):
            step(st, hover_command(), 2e-3, PARAMS)


def test_fast_path_matches_reference_dynamics():
    # the integrator's scalar right-hand side and total_wrench must agree
    # with the per-side vector-algebra model (reference_wrench + derivative)
    from tailsim.model import actuator_wrench
    from tailsim.sim import _rhs

    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        st = VehicleState(
            p=rng.standard_normal(3),
            v=rng.standard_normal(3),
            q=q,
            omega=rng.standard_normal(3),
            act=ActuatorState(
                float(rng.uniform(0, 790)), float(rng.uniform(0, 790)),
                float(rng.uniform(-0.785, 0.785)), float(rng.uniform(-0.785, 0.785)),
            ),
        )
        R_wb = quat_to_matrix(st.q).T
        wrench = reference_wrench(st.act, R_wb, PARAMS)
        total = total_wrench(st.act, R_wb, PARAMS)
        assert np.allclose(total[:3], wrench.force, rtol=1e-11, atol=1e-12)
        assert np.allclose(total[3:], wrench.torque, rtol=1e-11, atol=1e-12)
        ref = derivative(st, wrench, PARAMS)
        y = (*st.p, *st.v, *st.q, *st.omega)
        act = (st.act.omega_left, st.act.omega_right, st.act.delta_left, st.act.delta_right)
        w = actuator_wrench(*act, PARAMS.k_t, PARAMS.k_m, PARAMS.k_l, PARAMS.k_d, PARAMS.k_p, PARAMS.l)
        got = np.array(_rhs(y, None, 0.0, *w, -PARAMS.m * PARAMS.g_mag, 1.0 / PARAMS.m,
                            PARAMS.j_xx, PARAMS.j_yy, PARAMS.j_zz, 0.0, 0.0, 0.0))
        expect = np.concatenate([ref.p_dot, ref.v_dot, ref.q_dot, ref.omega_dot])
        assert np.allclose(got, expect, rtol=1e-11, atol=1e-12)


def bits(values) -> bytes:
    """The IEEE bit patterns of a float sequence (tells -0.0 from +0.0)."""
    return struct.pack(f"{len(values)}d", *values)


def oracle_cases(rng):
    """(state, command) pairs: signed-zero states, then random ones with
    rotor commands at 0, at and above omega_max or negative, and elevon
    commands at +/- delta_max or inside the range."""
    w_max, d_max = PARAMS.omega_max, PARAMS.delta_max
    for q in ([-0.0, 1.0, 0.0, 0.0], [-0.0, -0.0, 1.0, -0.0], [1.0, -0.0, -0.0, -0.0]):
        for z in (0.0, -0.0):
            yield (VehicleState(p=[z] * 3, v=[z] * 3, q=q, omega=[-0.0] * 3),
                   ActuatorCommand(0.0, 0.0, z, z))
    for i in range(60):
        q = rng.standard_normal(4)
        state = VehicleState(
            p=rng.standard_normal(3), v=rng.standard_normal(3), q=q / np.linalg.norm(q),
            omega=rng.standard_normal(3),
            act=ActuatorState(*rng.uniform(0.0, w_max, 2), *rng.uniform(-d_max, d_max, 2)),
        )
        rotors = (0.0, w_max, 1.25 * w_max, -100.0, float(rng.uniform(0.0, w_max)))
        elevons = (-d_max, d_max, float(rng.uniform(-d_max, d_max)))
        yield state, ActuatorCommand(
            rotors[i % 5], rotors[(i + 2) % 5], elevons[i % 3], elevons[(i + 1 + i // 3) % 3],
        )


@pytest.mark.parametrize("dt", [5e-4, 1e-3, 2e-3])
@pytest.mark.parametrize("disturbed", [False, True], ids=["plain", "disturbed"])
def test_step_is_bit_identical_to_list_oracle(dt, disturbed):
    # the shared half-step wrench and the stage states formed inside _rhs
    # must reproduce the per-stage list formulation bit for bit; step
    # saturates its command, the oracle is handed the saturated one
    rng = np.random.default_rng(11)
    dist = DisturbanceSpec() if disturbed else None
    for state, command in oracle_cases(rng):
        got = step(state, command, dt, PARAMS, dist)
        want = reference_step(state, reference_clamp_command(command, PARAMS)[0], dt, PARAMS, dist)
        assert got.y == want.y and bits(got.y) == bits(want.y)
        assert got.act == want.act and bits(astuple(got.act)) == bits(astuple(want.act))


def test_step_saturates_its_command():
    # a command past the actuator limits drives every substage as the
    # saturated command does, not just the returned actuator state
    rng = np.random.default_rng(12)
    w_max, d_max = PARAMS.omega_max, PARAMS.delta_max
    commands = (
        ActuatorCommand(1.25 * w_max, -100.0, 1.5 * d_max, -3.0),
        ActuatorCommand(-1e-9, w_max + 1e-9, -d_max - 1e-9, d_max),
    )
    for state, _ in list(oracle_cases(rng))[6:26]:
        for raw in commands:
            saturated, clipped = reference_clamp_command(raw, PARAMS)
            assert clipped
            got = step(state, raw, 2e-3, PARAMS, DisturbanceSpec())
            want = step(state, saturated, 2e-3, PARAMS, DisturbanceSpec())
            assert got.y == want.y and bits(got.y) == bits(want.y)
            assert bits(astuple(got.act)) == bits(astuple(want.act))


def test_vehicle_state_rejects_non_unit_quaternion():
    with pytest.raises(DomainError):
        VehicleState(
            p=np.zeros(3), v=np.zeros(3),
            q=np.array([1.0, 0.5, 0.0, 0.0]), omega=np.zeros(3),
        )


def test_vehicle_state_setters_round_trip_through_y():
    st = hover_state()
    values = {
        "p": np.array([1.0, -2.0, 3.0]),
        "v": np.array([0.25, 0.5, -0.75]),
        "q": np.array([0.5, -0.5, 0.5, 0.5]),
        "omega": np.array([0.1, -0.2, 0.3]),
    }
    for name, value in values.items():
        setattr(st, name, value)
    for name, value in values.items():
        got = getattr(st, name)
        assert isinstance(got, np.ndarray) and np.array_equal(got, value)
    assert st.y == (1.0, -2.0, 3.0, 0.25, 0.5, -0.75, 0.5, -0.5, 0.5, 0.5, 0.1, -0.2, 0.3)
    assert all(type(c) is float for c in st.y)
    # the arrays handed out are copies: writing into one leaves the state alone
    st.p[0] = 99.0
    assert st.y[0] == 1.0


def test_vehicle_state_setters_validate():
    st = hover_state()
    with pytest.raises(DomainError):
        st.q = np.array([1.0, 0.5, 0.0, 0.0])
    with pytest.raises(DomainError):
        st.p = np.zeros(2)
    with pytest.raises(DomainError):
        VehicleState(p=np.zeros(3), v=np.zeros(4), q=hover_attitude(0.0), omega=np.zeros(3))
    assert np.array_equal(st.q, hover_attitude(0.0))      # rejected values leave no trace


NON_FINITE = (math.nan, math.inf, -math.inf)
PART_SIZES = {"p": 3, "v": 3, "q": 4, "omega": 3}


MISSHAPEN = {
    "column": lambda n: np.zeros((n, 1)),
    "nested": lambda n: [[0.0]] * n,
    "short": lambda n: (0.0,) * (n - 1),
    "long": lambda n: (0.0,) * (n + 1),
    "scalar": lambda n: 0.0,
}


@pytest.mark.parametrize("shape", MISSHAPEN)
@pytest.mark.parametrize("name", PART_SIZES)
def test_a_misshapen_state_or_estimate_vector_is_a_domain_error_naming_it(name, shape):
    # a (3, 1) array or nested list used to be flattened into a state, and the
    # estimator took a vector of any length, to fail later in update
    parts = {"p": (0.0, 0.0, 1.5), "v": (0.0,) * 3, "q": hover_attitude(0.0), "omega": (0.0,) * 3}
    parts[name] = MISSHAPEN[shape](PART_SIZES[name])
    with pytest.raises(DomainError, match=rf"^VehicleState\.{name} must be "):
        VehicleState(**parts)
    with pytest.raises(DomainError, match=rf"^StateEstimate\.{name} must be "):
        ComplementaryEstimator(StateEstimate(**parts))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", PART_SIZES)
def test_vehicle_state_constructor_rejects_non_finite_entries(name, bad):
    for i in range(PART_SIZES[name]):
        parts = {"p": np.zeros(3), "v": np.zeros(3), "q": hover_attitude(0.0), "omega": np.zeros(3)}
        parts[name][i] = bad
        with pytest.raises(DomainError, match="finite"):
            VehicleState(**parts)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("name", PART_SIZES)
def test_vehicle_state_setters_reject_non_finite_entries(name, bad):
    st = hover_state()
    y = st.y
    for i in range(PART_SIZES[name]):
        value = getattr(st, name)
        value[i] = bad
        with pytest.raises(DomainError, match="finite"):
            setattr(st, name, value)
        assert st.y == y                                  # rejected values leave no trace


def test_step_leaves_its_input_state_unchanged():
    st = hover_state()
    st.v = np.array([0.3, -0.1, 0.2])
    st.omega = np.array([0.2, -0.4, 0.1])
    y, act = st.y, (st.act.omega_left, st.act.omega_right, st.act.delta_left, st.act.delta_right)
    out = step(st, ActuatorCommand(700.0, 500.0, 0.3, -0.2), 2e-3, PARAMS, DisturbanceSpec())
    assert st.y == y
    assert (st.act.omega_left, st.act.omega_right, st.act.delta_left, st.act.delta_right) == act
    assert out is not st and out.act is not st.act and out.y != y
    assert len(out.y) == 13 and all(type(c) is float for c in out.y)


def test_step_keeps_python_floats_from_numpy_actuator_fields():
    act = ActuatorState(*np.array([600.0, 600.0, 0.0, 0.0]))
    st = VehicleState(np.array([0.0, 0.0, 1.5]), np.zeros(3), hover_attitude(0.0), np.zeros(3),
                      act=act)
    out = step(st, hover_command(), 2e-3, PARAMS)
    assert all(type(c) is float for c in out.y)
    assert all(type(c) is float for c in astuple(out.act))
    assert astuple(st.act) == (600.0, 600.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# actuator lag
# --------------------------------------------------------------------------

def assert_step_follows_actuator_lag(act, cmd):
    # step's actuator update over one physics step must match the oracle
    # driven by the saturated command
    st = hover_state()
    st.act = act
    got = astuple(step(st, cmd, 2e-3, PARAMS).act)
    want = actuator_step(act, reference_clamp_command(cmd, PARAMS)[0], 2e-3, PARAMS)
    assert got == pytest.approx(astuple(want), rel=1e-12)


def test_actuator_step_exact_exponential():
    act = ActuatorState()
    out = actuator_step(act, hover_command(), 0.025, PARAMS)
    # one motor time constant: 1 - 1/e of the way to the command
    assert out.omega_left == pytest.approx(402.5917087925146, rel=1e-12)
    assert out.omega_right == pytest.approx(402.5917087925146, rel=1e-12)
    assert_step_follows_actuator_lag(act, hover_command())
    assert_step_follows_actuator_lag(ActuatorState(700.0, 500.0, 0.0, 0.0), hover_command())


def test_actuator_step_servo_time_constant():
    act = ActuatorState()
    cmd = ActuatorCommand(0.0, 0.0, 0.4, -0.4)
    out = actuator_step(act, cmd, 0.020, PARAMS)
    assert out.delta_left == pytest.approx(0.4 * (1.0 - math.exp(-1.0)), rel=1e-12)
    assert out.delta_right == pytest.approx(-0.4 * (1.0 - math.exp(-1.0)), rel=1e-12)
    assert_step_follows_actuator_lag(ActuatorState(HOVER_W, HOVER_W, 0.0, 0.0),
                                     ActuatorCommand(HOVER_W, HOVER_W, 0.4, -0.4))


def test_actuator_step_composition_equals_one_big_step():
    act = ActuatorState(100.0, 200.0, 0.1, -0.2)
    cmd = ActuatorCommand(600.0, 500.0, -0.3, 0.3)
    two_small = actuator_step(actuator_step(act, cmd, 1e-3, PARAMS), cmd, 1e-3, PARAMS)
    one_big = actuator_step(act, cmd, 2e-3, PARAMS)
    assert np.allclose(astuple(two_small), astuple(one_big), rtol=1e-14)


def test_actuator_step_clips_to_limits():
    act = ActuatorState(780.0, 780.0, 0.7, 0.7)
    cmd = ActuatorCommand(10000.0, -50.0, 5.0, -5.0)
    out = actuator_step(act, cmd, 2e-3, PARAMS)
    assert 0.0 <= out.omega_left <= 790.0
    assert 0.0 <= out.omega_right <= 790.0
    assert abs(out.delta_left) <= 0.785
    assert abs(out.delta_right) <= 0.785
    assert (out.omega_left, out.delta_left) == (790.0, 0.785)
    assert_step_follows_actuator_lag(act, cmd)


def test_step_actuator_state_follows_motor_lag():
    st = hover_state()
    st.act = ActuatorState(0.0, 0.0, 0.0, 0.0)
    st = step(st, hover_command(), 2e-3, PARAMS)
    expect = HOVER_W * (1.0 - math.exp(-2e-3 / 0.025))
    assert st.act.omega_left == pytest.approx(expect, rel=1e-12)


# --------------------------------------------------------------------------
# sensing
# --------------------------------------------------------------------------

def draws(rng, with_pose):
    """One sample's standard normals drawn by themselves: 6, or 12 with a pose."""
    return rng.standard_normal(12 if with_pose else 6).tolist()


def test_sense_noiseless_hover_reads_gravity_on_thrust_axis():
    st = hover_state()
    force = total_wrench(st.act, quat_to_matrix(st.q).T, PARAMS)[:3]
    sample = sense(st.y, force, PARAMS, DisturbanceSpec.none(),
                   draws(np.random.default_rng(0), False))
    assert np.allclose(sample.gyro, np.zeros(3), atol=1e-15)
    # specific force: thrust only, along body -z at 1 g
    assert np.allclose(sample.accel, [0.0, 0.0, -9.81], atol=1e-12)
    assert sample.pose_p is None and sample.pose_q is None


def test_sense_noiseless_pose_is_exact():
    st = hover_state()
    st.p = np.array([1.0, -2.0, 3.0])
    force = total_wrench(st.act, quat_to_matrix(st.q).T, PARAMS)[:3]
    sample = sense(
        st.y, force, PARAMS, DisturbanceSpec.none(), draws(np.random.default_rng(0), True),
        t=0.25, with_pose=True,
    )
    assert sample.t == 0.25
    assert np.allclose(sample.pose_p, st.p)
    assert np.allclose(sample.pose_q, st.q)


def test_sense_is_reproducible_for_equal_seeds():
    st = hover_state()
    force = total_wrench(st.act, quat_to_matrix(st.q).T, PARAMS)[:3]
    dist = DisturbanceSpec()
    out = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        s1 = sense(st.y, force, PARAMS, dist, draws(rng, True), with_pose=True)
        s2 = sense(st.y, force, PARAMS, dist, draws(rng, False), with_pose=False)
        out.append((s1, s2))
    (a1, a2), (b1, b2) = out
    assert np.array_equal(a1.gyro, b1.gyro)
    assert np.array_equal(a1.accel, b1.accel)
    assert np.array_equal(a1.pose_p, b1.pose_p)
    assert np.array_equal(a1.pose_q, b1.pose_q)
    assert np.array_equal(a2.gyro, b2.gyro)


def test_sense_matches_array_formulas():
    # gyro and pose bit for bit (the same normals, drawn per sample against
    # the oracle's per channel, and the same operations); the accel's weight
    # term is m g times R's third row instead of a matmul
    st = hover_state()
    st.q = quat_multiply(st.q, np.array([math.cos(0.2), 0.3 * math.sin(0.2),
                                         -0.4 * math.sin(0.2), math.sqrt(0.75) * math.sin(0.2)]))
    st.omega = np.array([0.3, -0.2, 0.1])
    force = total_wrench(st.act, quat_to_matrix(st.q).T, PARAMS)[:3]
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    for with_pose in (True, False, True):
        new = sense(st.y, force, PARAMS, DisturbanceSpec(), draws(rng_new, with_pose),
                    with_pose=with_pose)
        old = array_sense(st, force, PARAMS, DisturbanceSpec(), rng_old, with_pose=with_pose)
        assert np.array_equal(new.gyro, old.gyro)
        assert np.allclose(new.accel, old.accel, rtol=1e-12, atol=0.0)
        if with_pose:
            assert np.array_equal(new.pose_p, old.pose_p)
            assert np.array_equal(new.pose_q, old.pose_q)
        else:
            assert new.pose_p is None and new.pose_q is None
    assert rng_new.random() == rng_old.random()  # same number of draws


class PerSampleNormals:
    """The noise source runs had before block draws: one call per sample."""

    def __init__(self, rng):
        self.rng = rng

    def take(self, n):
        return self.rng.standard_normal(n).tolist()


@pytest.mark.parametrize("block", [NOISE_BLOCK, 100, 18])
def test_block_drawn_noise_equals_per_sample_draws_bit_for_bit(block, monkeypatch):
    # first a pose sample that straddles the run's first block end (199 x 6 =
    # 1194), then the run's pattern: a pose fix every 10th sample
    monkeypatch.setattr(sim, "NOISE_BLOCK", block)
    sizes = [6] * 199 + [12] + [12 if k % 10 == 0 else 6 for k in range(600)]
    normals = Normals(np.random.default_rng(7))
    per_sample = np.random.default_rng(7)
    refills = straddles = 0
    for n in sizes:
        left = len(normals._buf) - normals._i
        refills += left < n
        straddles += 0 < left < n
        got = normals.take(n)
        assert struct.pack(f"{n}d", *got) == struct.pack(f"{n}d", *per_sample.standard_normal(n))
        # what is held: a block and the rest of the one before, less than a take
        assert len(normals._buf) < block + 12
    assert refills >= 3 and straddles >= 1


def test_a_take_of_more_than_a_block_raises_and_draws_nothing():
    # one refill could not supply it: a fresh instance returned 1200 floats
    normals = Normals(np.random.default_rng(7))
    per_sample = np.random.default_rng(7)
    for first in (True, False):
        with pytest.raises(DomainError, match=f"at most {NOISE_BLOCK} normals, asked for 1201"):
            normals.take(NOISE_BLOCK + 1)
        n = NOISE_BLOCK if first else 7
        assert normals.take(n) == per_sample.standard_normal(n).tolist()


def test_a_run_with_block_drawn_noise_logs_the_per_sample_draws(monkeypatch):
    # the run's log bytes with the noise drawn per sample, as runs drew it
    # before block draws: the golden digests pin the same on 6 s runs
    cfg = apply_overrides(Config(), {"estimator": "complementary", "scenario": "star",
                                     "duration_s": "2", "transient_window_s": "0.5"})
    blocks = scenarios.run_scenario(cfg)[0].to_csv()
    monkeypatch.setattr(scenarios, "Normals", PerSampleNormals)
    assert scenarios.run_scenario(cfg)[0].to_csv() == blocks


def test_disturbance_defaults_and_validation():
    d = DisturbanceSpec()
    assert d.force_offset_world == (0.10, 0.02, 0.03)
    assert d.torque_offset_body == (5e-4, 2e-3, 5e-4)
    assert (d.gyro_noise_std, d.accel_noise_std) == (0.005, 0.05)
    assert (d.pose_pos_noise_std, d.pose_att_noise_std) == (0.001, 0.00175)
    assert d.seed == 0
    z = DisturbanceSpec.none()
    assert z.force_offset_world == (0.0, 0.0, 0.0) and z.gyro_noise_std == 0.0
    with pytest.raises(DomainError):
        DisturbanceSpec(gyro_noise_std=-1.0)
    with pytest.raises(DomainError):
        DisturbanceSpec(force_offset_world=np.zeros(2))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            DisturbanceSpec(gyro_noise_std=bad)
        with pytest.raises(DomainError):
            DisturbanceSpec(accel_noise_std=bad)
        with pytest.raises(DomainError):
            DisturbanceSpec(force_offset_world=np.array([bad, 0.0, 0.0]))
        with pytest.raises(DomainError):
            DisturbanceSpec(torque_offset_body=np.array([0.0, 0.0, -bad]))


@pytest.mark.parametrize("name", ["force_offset_world", "torque_offset_body"])
def test_disturbance_offsets_are_validated_on_assignment(name):
    d = DisturbanceSpec()
    for bad in ([0.0, 0.0, math.nan], np.array([0.0, math.inf, 0.0]), [0.0, 0.0],
                np.zeros((3, 1)), ["x", 0.0, 0.0], {0.0, 1.0, 2.0}, np.float64(1.0)):
        with pytest.raises(DomainError):
            setattr(d, name, bad)
    for good in ([1, 2, 3], np.array([1.0, 2.0, 3.0]), (np.float64(1.0), 2, 3.0)):
        setattr(d, name, good)
        value = getattr(d, name)
        assert value == (1.0, 2.0, 3.0) and all(type(c) is float for c in value)
    step(VehicleState(np.zeros(3), np.zeros(3), hover_attitude(0.0), np.zeros(3)),
         ActuatorCommand(), 1e-3, PARAMS, d)


# --------------------------------------------------------------------------
# low-pass filter
# --------------------------------------------------------------------------

def test_lowpass_unit_dc_gain():
    lp = LowPass(20.0)
    y = None
    for _ in range(2000):
        y = lp.advance((3.0, -2.0, 0.5), 1e-3)
    assert y == pytest.approx((3.0, -2.0, 0.5), rel=1e-9)


def test_lowpass_first_sample_initialises_output():
    lp = LowPass(20.0)
    assert lp.advance((5.0, -1.0, 2.0), 1e-3) == (5.0, -1.0, 2.0)


def _sine_gain(f_sig, fc=20.0, dt=1e-5, t_total=0.5):
    # the same sine on all three channels, which must come out identical
    lp = LowPass(fc, initial=[0.0, 0.0, 0.0])
    n = round(t_total / dt)
    t = np.arange(n) * dt
    y = np.empty(n)
    for k in range(n):
        x = math.sin(2.0 * math.pi * f_sig * t[k])
        y0, y1, y2 = lp.advance((x, x, x), dt)
        assert y0 == y1 == y2
        y[k] = y0
    m = t >= t_total / 2.0  # discard the settling transient
    a = 2.0 * np.mean(y[m] * np.sin(2.0 * np.pi * f_sig * t[m]))
    b = 2.0 * np.mean(y[m] * np.cos(2.0 * np.pi * f_sig * t[m]))
    return math.hypot(a, b)


def test_lowpass_gain_at_cutoff():
    assert _sine_gain(20.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)


def test_lowpass_gain_a_decade_above_cutoff():
    assert _sine_gain(200.0) == pytest.approx(1.0 / math.sqrt(101.0), rel=1e-3)


def test_lowpass_matches_array_filter_bit_for_bit():
    rng = np.random.default_rng(2)
    lp, ref = LowPass(20.0, initial=[0.1, -0.2, 0.3]), ArrayLowPass(20.0, initial=[0.1, -0.2, 0.3])
    uninitialised, uninitialised_ref = LowPass(5.0), ArrayLowPass(5.0)
    for dt in (1e-3, 1e-3, 5e-4, 2e-3, 1e-3):
        x = rng.standard_normal(3)
        assert np.array_equal(lp.advance(x.tolist(), dt), ref.step(x, dt))
        assert np.array_equal(uninitialised.advance(x.tolist(), dt), uninitialised_ref.step(x, dt))


def test_lowpass_validation():
    with pytest.raises(DomainError):
        LowPass(0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            LowPass(bad)
    lp = LowPass(20.0)
    with pytest.raises(DomainError):
        lp.advance((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        LowPass(20.0, initial=[0.0, 0.0])


@pytest.mark.parametrize("initial", [None, (0.1, -0.2, 0.3)], ids=["uninitialised", "initial"])
def test_lowpass_rejects_an_input_that_is_not_three_floats_on_every_call(initial):
    # a 2-float input used to shrink the state on the general path, and to
    # raise a bare ValueError on the short one
    lp = LowPass(20.0, initial=initial)
    for dt in (1e-3, 1e-3, 2e-3):
        for bad in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (), 5.0):
            with pytest.raises(DomainError, match="low-pass input must be 3 floats"):
                lp.advance(bad, dt)
        lp.advance((1.0, 2.0, 3.0), dt)
    assert len(lp.y) == 3


# --------------------------------------------------------------------------
# estimators
# --------------------------------------------------------------------------

def perfect_estimate(state):
    """The state repackaged as a (perfect) estimate of float tuples."""
    y = state.y
    return StateEstimate(y[0:3], y[3:6], y[6:10], y[10:13])


def complementary_from(truth, **kwargs):
    return ComplementaryEstimator(perfect_estimate(truth), **kwargs)


def imu_sample(truth, force, dist, normals, k, t):
    """Sample ``k`` of an IMU with a pose fix every 10th, its noise taken as a run takes it."""
    with_pose = k % 10 == 0
    return sense(truth.y, force, PARAMS, dist, normals.take(12 if with_pose else 6), t, with_pose)


def test_complementary_estimator_stationary_lock():
    truth = hover_state()
    force = total_wrench(truth.act, quat_to_matrix(truth.q).T, PARAMS)[:3]
    est = complementary_from(truth)
    normals = Normals(np.random.default_rng(0))
    dist = DisturbanceSpec.none()
    for k in range(1000):  # 1 s of 1 kHz IMU, 100 Hz pose
        sample = imu_sample(truth, force, dist, normals, k, k * 1e-3)
        est.update(sample, 1e-3)
    assert np.allclose(est.p, truth.p, atol=1e-12)
    assert np.allclose(est.v, truth.v, atol=1e-12)
    assert abs(abs(est.q @ truth.q) - 1.0) < 1e-12


def test_complementary_estimator_position_offset_converges():
    truth = hover_state()
    force = total_wrench(truth.act, quat_to_matrix(truth.q).T, PARAMS)[:3]
    start = perfect_estimate(truth)
    start.p = start.p + np.array([0.1, 0.0, 0.0])
    est = ComplementaryEstimator(start)
    normals = Normals(np.random.default_rng(0))
    dist = DisturbanceSpec.none()
    for k in range(2000):  # 2 s
        sample = imu_sample(truth, force, dist, normals, k, k * 1e-3)
        est.update(sample, 1e-3)
    assert np.linalg.norm(est.p - truth.p) < 1e-6
    assert np.linalg.norm(est.v) < 1e-5


def test_complementary_estimator_attitude_offset_converges():
    truth = hover_state()
    force = total_wrench(truth.act, quat_to_matrix(truth.q).T, PARAMS)[:3]
    start = perfect_estimate(truth)
    start.q = quat_multiply(start.q, np.array([math.cos(0.05), math.sin(0.05), 0.0, 0.0]))
    est = ComplementaryEstimator(start)
    normals = Normals(np.random.default_rng(0))
    dist = DisturbanceSpec.none()
    for k in range(2000):
        sample = imu_sample(truth, force, dist, normals, k, k * 1e-3)
        est.update(sample, 1e-3)
    err = quat_to_rotvec(quat_multiply(quat_conjugate(est.q), truth.q))
    assert np.linalg.norm(err) < 1e-6


def test_complementary_estimator_integrates_gyro_between_fixes():
    truth = hover_state()
    # wide-open filter so the commanded rate passes through unattenuated
    est = complementary_from(truth, cutoff_hz=1e6)
    rate = (0.0, 0.0, 1.0)
    for k in range(1000):  # 1 s of gyro-only dead reckoning
        sample = SensorSample(t=k * 1e-3, gyro=rate, accel=(0.0, 0.0, 0.0))
        est.update(sample, 1e-3)
    spin = quat_to_rotvec(quat_multiply(quat_conjugate(hover_attitude(0.0)), est.q))
    assert np.linalg.norm(spin) == pytest.approx(1.0, rel=1e-6)


def test_complementary_estimator_validation():
    truth = hover_state()
    with pytest.raises(DomainError):
        complementary_from(truth, attitude_blend=0.0)
    with pytest.raises(DomainError):
        complementary_from(truth, pos_alpha=1.5)
    with pytest.raises(DomainError):
        complementary_from(truth, cutoff_hz=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            complementary_from(truth, cutoff_hz=bad)


def test_complementary_estimator_matches_array_estimator_bit_for_bit():
    # a tumbling truth with default noise, and a start 0.1 m and 0.3 rad off
    # with w < 0 (exercises quat_to_rotvec's short-way branch)
    truth = hover_state()
    truth.omega = np.array([0.4, -0.3, 0.2])
    start = perfect_estimate(truth)
    start.p = start.p + np.array([0.1, 0.0, 0.0])
    tilt = np.array([math.cos(0.15), math.sin(0.15), 0.0, 0.0])   # 0.3 rad about x
    start.q = quat_multiply(start.q, tilt)
    assert start.q[0] < 0.0
    est = ComplementaryEstimator(start, cutoff_hz=35.0)
    ref = ArrayComplementaryEstimator(start, cutoff_hz=35.0)
    dist = DisturbanceSpec(seed=11)
    normals = Normals(np.random.default_rng(dist.seed))
    command = ActuatorCommand(1.01 * HOVER_W, 0.99 * HOVER_W, 0.04, -0.03)
    t = 0.0
    # 2 s of IMU at 1 kHz, 2 kHz for samples 700-1299 and 1 kHz again, pose
    # every 10th sample: the gyro filter's gain is recomputed at each change
    for k in range(2400):
        dt = 5e-4 if 700 <= k < 1300 else 1e-3
        force = total_wrench(truth.act, quat_to_matrix(truth.q).T, PARAMS)[:3]
        sample = imu_sample(truth, force, dist, normals, k, t)
        est.update(sample, dt)
        ref.update(sample, dt)
        want = ref.estimate()
        for name in ("p", "v", "q", "omega"):
            assert np.array_equal(getattr(est, name), getattr(want, name)), (k, name)
        for _ in range(round(dt / 5e-4)):
            truth = step(truth, command, 5e-4, PARAMS, dist)
        t += dt
    assert np.linalg.norm(est.p - truth.p) < 0.05
