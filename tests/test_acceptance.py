"""End-to-end acceptance gate.

Each test exercises one headline requirement of the package at its stated
tolerance and reports a single PASS/FAIL line through the shared
``record_criterion`` helper (printed live and again in the terminal
summary).  The expected responses used as references here were computed
with independent closed-form oracles and frozen as literals; the tests
never consult the code under test to produce its own expected values.

The result line is recorded *before* the asserts so that a failing
criterion still shows up, honestly marked FAIL, in the summary.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import record_criterion
from tailsim.config import Config, apply_overrides
from tailsim.control import model_inverse
from tailsim.model import ActuatorState, VehicleParams
from tailsim.rotations import quat_from_rotvec, quat_normalize, wrap_angle
from tailsim.scenarios import run_scenario
from tailsim.sim import VehicleState, step
from tailsim.sysid import fit_params, generate_synthetic

from oracles import quat_to_matrix


def cfg_with(**overrides) -> Config:
    return apply_overrides(Config(), {k: str(v) for k, v in overrides.items()})


# Overrides that silence every disturbance and noise source.
QUIET = dict(
    dist_force_x=0.0, dist_force_y=0.0, dist_force_z=0.0,
    dist_torque_x=0.0, dist_torque_y=0.0, dist_torque_z=0.0,
    noise_gyro=0.0, noise_accel=0.0, noise_pose_pos=0.0, noise_pose_att=0.0,
)


def body_yaw(qw: float, qx: float, qy: float, qz: float) -> float:
    """Heading of the body x-axis projected onto the world x-y plane."""
    rot = quat_to_matrix(np.array([qw, qx, qy, qz]))
    return math.atan2(rot[1, 0], rot[0, 0])


def interp_crossing(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """First time ``y`` reaches ``level``, linearly interpolated."""
    idx = int(np.argmax(y >= level))
    if idx == 0:
        return float(t[0])
    t1, t2, y1, y2 = t[idx - 1], t[idx], y[idx - 1], y[idx]
    return float(t1 + (level - y1) * (t2 - t1) / (y2 - y1))


def test_criterion_1_allocation_round_trip() -> None:
    """The allocator is an exact right-inverse of the static wrench map.

    10 000 random (per-rotor force, torque) demands are inverted to rotor
    speeds and flap deflections; pushing those through the rotor-squared
    force/moment equations must reproduce the demand to 1e-9 relative,
    with the whole loop finishing in under a second.  Demands may map
    outside the actuator limits: saturation is handled by a separate
    stage and the identity must hold regardless.
    """
    params = VehicleParams()
    rng = np.random.default_rng(12345)
    n = 10_000
    started = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        f_axial = rng.uniform(2.0, 4.5)
        roll_limit = 2.0 * f_axial * params.l
        demand = np.array([
            rng.uniform(-0.7, 0.7) * roll_limit,
            rng.uniform(-0.1, 0.1),
            rng.uniform(-0.15, 0.15),
        ])
        cmd = model_inverse(demand, f_axial, params)
        sq_l, sq_r = cmd.omega_left ** 2, cmd.omega_right ** 2
        force_rt = params.k_t * (sq_l + sq_r)
        torque_rt = np.array([
            params.l * params.k_t * (sq_l - sq_r),
            -params.k_p * (sq_l * cmd.delta_left + sq_r * cmd.delta_right),
            params.k_m * (sq_l - sq_r)
            + params.l * params.k_l * (sq_r * cmd.delta_right - sq_l * cmd.delta_left),
        ])
        scale = max(2.0 * f_axial, float(np.max(np.abs(demand))), 1.0)
        err = max(abs(force_rt - 2.0 * f_axial), float(np.max(np.abs(torque_rt - demand)))) / scale
        worst = max(worst, err)
    wall = time.perf_counter() - started

    ok = worst <= 1e-9 and wall < 1.0
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-1: allocation round trip, {n} samples, "
        f"worst relative error {worst:.2e} (limit 1e-9), wall {wall:.2f} s (limit 1 s)"
    )
    assert worst <= 1e-9
    assert wall < 1.0


def test_criterion_2_quiet_hover_is_exact_and_fast() -> None:
    """60 s hover with no disturbances holds position to sub-millimetre RMS.

    The vehicle starts at the hover trim, so the expected RMS error is
    zero; rotor speeds must sit at the trim speed sqrt(m*g / (2*k_t)) =
    636.8907056884772 rad/s with flaps centred, and the full run must
    simulate in under 10 s of wall time.
    """
    started = time.perf_counter()
    log, metrics = run_scenario(cfg_with(scenario="hover", duration_s=60.0, **QUIET))
    wall = time.perf_counter() - started

    stats = metrics.to_dict()
    rms = max(stats["rms_x_m"], stats["rms_y_m"], stats["rms_z_m"])
    trim_speed = 636.8907056884772
    speed_err = max(
        abs(log.column("act_omega_left")[-1] - trim_speed),
        abs(log.column("act_omega_right")[-1] - trim_speed),
    )
    flap_peak = max(
        float(np.max(np.abs(log.column("act_delta_left")))),
        float(np.max(np.abs(log.column("act_delta_right")))),
    )

    ok = rms < 1e-3 and speed_err < 0.1 and flap_peak < 1e-6 and wall < 10.0
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-2: quiet hover 60 s, worst-axis RMS "
        f"{rms:.2e} m (limit 1e-3), rotor speed off trim by {speed_err:.2e} rad/s, "
        f"peak flap {flap_peak:.2e} rad, wall {wall:.1f} s (limit 10 s)"
    )
    assert rms < 1e-3
    assert speed_err < 0.1
    assert flap_peak < 1e-6
    assert wall < 10.0


def test_criterion_3_noisy_hover_error_is_largest_along_body_drag_axis() -> None:
    """Default disturbances push hardest along world x.

    With the default force offset (0.10, 0.02, 0.03) N, sensor noise, and
    the complementary estimator, the hover RMS error must be anisotropic:
    x above y and x above z, because the x force offset dominates and the
    flap drag that opposes it is weak.
    """
    log, metrics = run_scenario(cfg_with(scenario="hover", estimator="complementary"))
    stats = metrics.to_dict()
    rms_x, rms_y, rms_z = stats["rms_x_m"], stats["rms_y_m"], stats["rms_z_m"]

    ok = rms_x > rms_y and rms_x > rms_z
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-3: noisy hover RMS anisotropy, "
        f"x {rms_x * 100:.2f} cm vs y {rms_y * 100:.2f} cm vs z {rms_z * 100:.2f} cm "
        f"(require x > y and x > z)"
    )
    assert rms_x > rms_y
    assert rms_x > rms_z


def test_criterion_4_altitude_step_matches_second_order_design() -> None:
    """A 0.3 m climb should follow the designed second-order response.

    The altitude loop is designed as a unit-DC-gain second-order system
    with time constant 0.3 s and damping 0.83.  For that model
    (no feedforward zero, step driven through the error path only) the
    oracle values are a 10-90 % rise time of 0.775370 s and an overshoot
    of 0.932589 % (exp(-pi*zeta/sqrt(1-zeta^2))).  The observed rise time
    must match within 5 % relative, the observed overshoot within 5
    percentage points of step amplitude.

    Expected to FAIL on the rise-time check: motor lag (25 ms) plus the
    100 Hz zero-order hold speed up the 10-90 % transition by about 6 %,
    which is outside the 5 % band.  Recorded honestly rather than tuned
    away; see the analysis notes accompanying the build.
    """
    log, _ = run_scenario(
        cfg_with(scenario="hover", duration_s=10.0, start_offset_z=-0.3, **QUIET)
    )
    t = log.column("t")
    normalized = (log.column("pz") - 1.2) / 0.3
    rise = interp_crossing(t, normalized, 0.9) - interp_crossing(t, normalized, 0.1)
    overshoot_pct = (float(np.max(normalized)) - 1.0) * 100.0

    oracle_rise_s = 0.775370
    oracle_overshoot_pct = 0.932589
    rise_rel = rise / oracle_rise_s - 1.0
    os_diff = abs(overshoot_pct - oracle_overshoot_pct)
    rise_ok = abs(rise_rel) <= 0.05
    os_ok = os_diff <= 5.0

    record_criterion(
        f"{'PASS' if (rise_ok and os_ok) else 'FAIL'} criterion-4: 0.3 m climb, rise "
        f"{rise:.4f} s vs {oracle_rise_s:.4f} s ({rise_rel * 100:+.1f} %, limit 5 %), "
        f"overshoot {overshoot_pct:.3f} % vs {oracle_overshoot_pct:.3f} % "
        f"(diff {os_diff:.2f} pts, limit 5 pts)"
    )
    assert os_ok
    assert rise_ok  # known-red: actuator lag shifts rise time -6 %, outside the 5 % band


def test_criterion_5_circle_tracks_with_designed_frequency_response() -> None:
    """1.5 m radius circle at 1.5 m/s: bounded error, heading lock, loop gain.

    Three sub-checks on a quiet 60 s orbit (rate 1 rad/s):
    - planar tracking error stays bounded well below the radius;
    - the projected body-x heading follows the tangent yaw profile, with
      at most the rate-loop lag of about rate * attitude-time-constant =
      0.2 rad;
    - per axis, the complex response ratio at the orbit frequency matches
      the designed closed position loop H(s) = (2.4 s + 4)/(s^2 + 2.4 s + 4)
      at s = 1j (velocity feedforward adds the zero) to within 20 % of
      |H|.
    """
    log, _ = run_scenario(cfg_with(scenario="circle", duration_s=60.0, **QUIET))
    t = log.column("t")
    settled = t >= 5.0

    planar_err = np.hypot(
        log.column("ref_px") - log.column("px"),
        log.column("ref_py") - log.column("py"),
    )
    max_err = float(np.max(planar_err[settled]))

    quat_cols = [log.column(k) for k in ("qw", "qx", "qy", "qz")]
    heading = np.array([body_yaw(*row) for row in zip(*quat_cols)])
    heading_err = np.array(
        [wrap_angle(e) for e in (log.column("ref_psi") - heading)[settled]]
    )
    max_heading_err = float(np.max(np.abs(heading_err)))

    # Complex response at the orbit rate over an integer number of periods.
    orbit_rate = 1.0
    period = 2.0 * math.pi / orbit_rate
    n_periods = int((t[-1] - 5.0) // period)
    window = (t >= 5.0) & (t < 5.0 + n_periods * period)
    phasor = np.exp(-1j * orbit_rate * t[window])
    designed = (4.0 + 2.4j) / (3.0 + 2.4j)
    response_errs = []
    for axis in ("x", "y"):
        ref = log.column(f"ref_p{axis}")[window]
        pos = log.column(f"p{axis}")[window]
        measured = np.sum((pos - pos.mean()) * phasor) / np.sum((ref - ref.mean()) * phasor)
        response_errs.append(abs(measured - designed))
    worst_response = max(response_errs)
    response_limit = 0.20 * abs(designed)

    err_ok = max_err < 0.5
    heading_ok = max_heading_err <= 0.35
    response_ok = worst_response <= response_limit
    ok = err_ok and heading_ok and response_ok
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-5: circle r=1.5 at 1.5 m/s, max planar "
        f"err {max_err:.3f} m (limit 0.5), max heading err {max_heading_err:.3f} rad "
        f"(limit 0.35), worst |H_meas - H_design| {worst_response:.3f} "
        f"(limit {response_limit:.3f})"
    )
    assert err_ok
    assert heading_ok
    assert response_ok


def test_criterion_6_waypoint_speed_never_exceeds_cap() -> None:
    """Waypoint reference obeys the 1.25 m/s cap; the vehicle nearly does.

    The trapezoidal reference must never command more than the configured
    1.25 m/s; the achieved inertial speed may transiently overshoot
    during the acceleration ramps but must stay within 10 % (1.375 m/s).
    """
    log, _ = run_scenario(cfg_with(scenario="waypoint", duration_s=40.0, **QUIET))
    ref_speed = np.sqrt(
        log.column("ref_vx") ** 2 + log.column("ref_vy") ** 2 + log.column("ref_vz") ** 2
    )
    achieved = np.sqrt(
        log.column("vx") ** 2 + log.column("vy") ** 2 + log.column("vz") ** 2
    )
    ref_peak = float(np.max(ref_speed))
    achieved_peak = float(np.max(achieved))

    ok = ref_peak <= 1.25 + 1e-12 and achieved_peak <= 1.375
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-6: waypoint speeds, commanded peak "
        f"{ref_peak:.4f} m/s (cap 1.25), achieved peak {achieved_peak:.4f} m/s "
        f"(limit 1.375)"
    )
    assert ref_peak <= 1.25 + 1e-12
    assert achieved_peak <= 1.375


def test_criterion_7_static_fit_recovers_coefficients() -> None:
    """Bench-fit recovers all five aero coefficients.

    Noise-free sweep: every coefficient to 1e-9 relative.  With 5 %
    multiplicative measurement noise on a dense fixed-seed sweep
    (60 speeds x 121 deflections, seed 0) every coefficient must land
    within 5 % of truth.
    """
    params = VehicleParams()
    names = ("k_t", "k_m", "k_l", "k_d", "k_p")

    clean = fit_params(
        generate_synthetic(params, np.linspace(200.0, 780.0, 12), np.linspace(-0.7, 0.7, 13))
    )
    worst_clean = max(abs(clean.values[k] / getattr(params, k) - 1.0) for k in names)

    noisy = fit_params(
        generate_synthetic(
            params,
            np.linspace(150.0, 790.0, 60),
            np.linspace(-0.785, 0.785, 121),
            relative_noise=0.05,
            seed=0,
        )
    )
    worst_noisy = max(abs(noisy.values[k] / getattr(params, k) - 1.0) for k in names)

    ok = worst_clean <= 1e-9 and worst_noisy <= 0.05
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-7: static fit, noise-free worst error "
        f"{worst_clean:.2e} (limit 1e-9), 5 %-noise worst error {worst_noisy * 100:.2f} % "
        f"(limit 5 %)"
    )
    assert worst_clean <= 1e-9
    assert worst_noisy <= 0.05


def test_criterion_8_integrator_order_and_quaternion_norm() -> None:
    """The propagator converges at 4th order and keeps quaternions unit.

    Richardson study on a tumbling, actuator-transient trajectory: the
    error ratio between dt = 2 ms and dt = 1 ms against a dt = 0.125 ms
    reference must give order >= 3.8.  Across 2000 consecutive steps the
    quaternion norm must stay within 1e-9 of unity at every step.
    """
    params = VehicleParams()
    start = VehicleState(
        p=np.array([0.0, 0.0, 1.5]),
        v=np.array([0.1, -0.2, 0.05]),
        q=quat_normalize(quat_from_rotvec(np.array([0.05, 0.3, -0.1]))),
        omega=np.array([0.3, 0.4, -0.2]),
        act=ActuatorState(630.0, 640.0, 0.02, -0.03),
    )
    command = ActuatorState(650.0, 620.0, 0.10, -0.05)
    horizon = 0.2

    def propagate(dt: float) -> VehicleState:
        state = start
        for _ in range(round(horizon / dt)):
            state = step(state, command, dt, params)
        return state

    reference = propagate(1.25e-4)

    def error_at(dt: float) -> float:
        state = propagate(dt)
        return max(
            float(np.linalg.norm(state.p - reference.p)),
            float(np.linalg.norm(state.v - reference.v)),
            float(np.linalg.norm(state.omega - reference.omega)),
        )

    order = math.log2(error_at(2e-3) / error_at(1e-3))

    state = start
    worst_norm_drift = 0.0
    for _ in range(2000):
        state = step(state, command, 2e-3, params)
        worst_norm_drift = max(worst_norm_drift, abs(float(np.linalg.norm(state.q)) - 1.0))

    ok = order >= 3.8 and worst_norm_drift < 1e-9
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-8: integrator order {order:.3f} "
        f"(require >= 3.8), worst per-step quaternion norm drift {worst_norm_drift:.2e} "
        f"(limit 1e-9)"
    )
    assert order >= 3.8
    assert worst_norm_drift < 1e-9


def test_criterion_9_repeated_runs_are_byte_identical() -> None:
    """Same configuration, same seed: the CSV log reproduces byte for byte.

    Two independent noisy runs (complementary estimator, default
    disturbances, seed 7) must serialize to identical CSV text; changing
    the seed must change it.
    """
    base = dict(scenario="hover", duration_s=10.0, estimator="complementary", seed=7)
    log_a, _ = run_scenario(cfg_with(**base))
    log_b, _ = run_scenario(cfg_with(**base))
    log_c, _ = run_scenario(cfg_with(**{**base, "seed": 8}))

    csv_a, csv_b, csv_c = log_a.to_csv(), log_b.to_csv(), log_c.to_csv()
    ok = csv_a == csv_b and csv_a != csv_c
    record_criterion(
        f"{'PASS' if ok else 'FAIL'} criterion-9: determinism, repeated seed-7 logs "
        f"{'identical' if csv_a == csv_b else 'DIFFER'} "
        f"({len(csv_a.encode())} bytes), seed-8 log "
        f"{'differs' if csv_a != csv_c else 'IDENTICAL (suspicious)'}"
    )
    assert csv_a == csv_b
    assert csv_a != csv_c
