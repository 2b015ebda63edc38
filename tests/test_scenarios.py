"""Reference trajectories, tracking metrics, and the closed-loop harness."""

import json
import math
import mmap
import os
import re
import struct
import subprocess
import sys
import threading
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np
import pytest

import tailsim
from tailsim import control, scenarios
from tailsim.config import Config, apply_overrides
from tailsim.control import ActuatorCommand
from tailsim.errors import ConfigError, DomainError, MetricsWindowError, SimulationDivergedError
from tailsim.model import ActuatorState
from tailsim.scenarios import (
    _CSV_BLOCK,
    LOG_COLUMNS,
    Metrics,
    Scenario,
    ScenarioLog,
    hover_attitude,
    initial_state,
    make_scenario,
    metrics,
    reference,
    run_scenario,
)
from tailsim.sim import VehicleState, advance_into, step

import oracles
from forks import assert_no_child_left, failing_in, record_exits, use_cpus
from oracles import quat_to_matrix

IDX = {name: i for i, name in enumerate(LOG_COLUMNS)}


def cfg_with(**overrides):
    return apply_overrides(Config(), {k: str(v) for k, v in overrides.items()})


def sample_speeds(scenario, t_values):
    return np.array([np.linalg.norm(reference(t, scenario)[1]) for t in t_values])


# --------------------------------------------------------------------------
# reference trajectories
# --------------------------------------------------------------------------

def test_hover_reference_is_constant():
    s = make_scenario(cfg_with(hover_x=1.0, hover_y=-2.0, hover_z=2.5))
    for t in (0.0, 7.3, 60.0):
        p_des, v_des, psi_des = reference(t, s)
        assert p_des == (1.0, -2.0, 2.5)
        assert v_des == (0.0, 0.0, 0.0)
        assert psi_des == 0.0


def test_fixed_yaw_mode():
    s = make_scenario(cfg_with(yaw_mode="fixed", yaw_fixed_rad=0.7))
    assert reference(12.0, s)[2] == pytest.approx(0.7)


def test_circle_reference_geometry():
    s = make_scenario(cfg_with(scenario="circle", duration_s=30))
    assert s.circle_rate == pytest.approx(1.0)  # 1.5 m/s on a 1.5 m radius
    p_des, v_des, psi_des = reference(0.0, s)
    assert np.allclose(p_des, [1.5, 0.0, 1.5])
    assert np.allclose(v_des, [0.0, 1.5, 0.0], atol=1e-12)
    assert psi_des == pytest.approx(math.pi / 2.0)
    p_des, _, psi_des = reference(math.pi / 2.0, s)  # quarter period at 1 rad/s
    assert np.allclose(p_des, [0.0, 1.5, 1.5], atol=1e-12)
    assert psi_des == pytest.approx(math.pi)
    for t in np.linspace(0.0, 29.0, 40):
        p_des, v_des, _ = reference(t, s)
        assert np.linalg.norm(v_des) == pytest.approx(1.5, rel=1e-12)
        assert p_des[2] == 1.5
        assert np.linalg.norm(p_des[:2]) == pytest.approx(1.5, rel=1e-12)


def test_circle_rate_scales_with_speed_and_radius():
    s = make_scenario(cfg_with(scenario="circle", circle_radius_m=2.0, circle_speed_mps=1.0))
    assert s.circle_rate == pytest.approx(0.5)


def test_waypoint_trapezoid_touches_speed_cap():
    # 2.5 m leg, 0.625 m/s^2: the triangular profile peaks exactly at the cap
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 2.5,0,1.5",
        waypoint_speed_mps=1.25, waypoint_accel_mps2=0.625,
        waypoint_dwell_s=0, duration_s=10,
    ))
    (leg,) = s.legs
    assert leg.duration == pytest.approx(4.0)
    speeds = sample_speeds(s, np.linspace(0.0, 10.0, 2001))
    assert np.max(speeds) == pytest.approx(1.25, rel=1e-12)
    assert np.all(speeds <= 1.25 + 1e-12)
    assert np.linalg.norm(reference(2.0, s)[1]) == pytest.approx(1.25, rel=1e-12)


def test_waypoint_sustained_cruise_at_cap():
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 2.5,0,1.5",
        waypoint_speed_mps=1.25, waypoint_accel_mps2=1.0,
        waypoint_dwell_s=0, duration_s=10,
    ))
    # accel phase 1.25 s and 0.78125 m per side leaves a 0.9375 m cruise
    for t in (1.3, 1.6, 1.9):
        assert np.linalg.norm(reference(t, s)[1]) == pytest.approx(1.25, rel=1e-12)
    assert np.allclose(reference(3.25, s)[0], [2.5, 0.0, 1.5], atol=1e-9)


def test_waypoint_short_leg_falls_back_to_triangle():
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 0.5,0,1.5",
        waypoint_speed_mps=1.25, waypoint_accel_mps2=0.2,
        waypoint_dwell_s=0, duration_s=10,
    ))
    v_peak = math.sqrt(0.2 * 0.5)  # sqrt(a L): the leg never reaches the cap
    (leg,) = s.legs
    assert leg.v_peak == pytest.approx(v_peak, rel=1e-12)
    # apex at t = sqrt(L / a), and no sample anywhere exceeds it
    t_apex = math.sqrt(0.5 / 0.2)
    assert np.linalg.norm(reference(t_apex, s)[1]) == pytest.approx(v_peak, rel=1e-12)
    speeds = sample_speeds(s, np.linspace(0.0, 10.0, 2001))
    assert np.max(speeds) <= v_peak + 1e-12
    assert np.max(speeds) < 1.25


def test_waypoint_dwell_holds_vertex():
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 2.5,0,1.5; 2.5,2.5,1.5",
        waypoint_speed_mps=1.25, waypoint_accel_mps2=0.625,
        waypoint_dwell_s=3, duration_s=20,
    ))
    leg0 = s.legs[0]
    t_hold = leg0.t0 + leg0.duration + 1.5  # mid-dwell
    p_des, v_des, _ = reference(t_hold, s)
    assert np.allclose(p_des, [2.5, 0.0, 1.5], atol=1e-9)
    assert v_des == (0.0, 0.0, 0.0)
    assert s.legs[1].t0 == pytest.approx(leg0.t0 + leg0.duration + 3.0)


def test_waypoint_final_hold_and_domain():
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 2.5,0,1.5",
        waypoint_dwell_s=0, duration_s=10,
    ))
    p_des, v_des, _ = reference(10.0, s)
    assert np.allclose(p_des, [2.5, 0.0, 1.5], atol=1e-9)
    assert v_des == (0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        reference(-0.1, s)
    with pytest.raises(DomainError):
        reference(10.1, s)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="duration"):
            Scenario("hover", duration_s=bad)


def test_waypoint_tangent_yaw_points_along_leg():
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 0,5,1.5",
        waypoint_dwell_s=0, duration_s=20,
    ))
    assert reference(1.0, s)[2] == pytest.approx(math.pi / 2.0)


def test_waypoint_reference_is_continuous_with_bounded_speed():
    s = make_scenario(cfg_with(
        scenario="waypoint", waypoints="0,0,1.5; 4,0,1.5; 4,4,2.0; 0,0,1.5",
        waypoint_speed_mps=1.25, waypoint_accel_mps2=0.5,
        waypoint_dwell_s=1, duration_s=40,
    ))
    ts = np.linspace(0.0, 40.0, 8001)
    prev = reference(ts[0], s)[0]
    dt = ts[1] - ts[0]
    for t in ts[1:]:
        p_des, v_des, _ = reference(t, s)
        assert np.linalg.norm(v_des) <= 1.25 + 1e-12
        assert np.linalg.norm(np.subtract(p_des, prev)) <= 1.25 * dt + 1e-9
        prev = p_des


def _sample_bits(p_des, v_des, psi_des) -> bytes:
    return struct.pack("<7d", *p_des, *v_des, psi_des)


def _reference_outcome(t, s):
    """reference(t, s) and the Setpoint oracle's sample, as bytes or as the
    exception's type and message; the two must be the same."""
    outcomes = []
    for lookup in (reference, oracles.reference_setpoint_at):
        try:
            sample = lookup(t, s)
        except Exception as exc:                   # noqa: BLE001 - compared by the caller
            outcomes.append((type(exc), str(exc)))
            continue
        if isinstance(sample, tuple):
            assert all(type(c) is float for c in (*sample[0], *sample[1], sample[2]))
        else:
            sample = (sample.p_des, sample.v_des, sample.psi_des)
        outcomes.append(_sample_bits(*sample))
    return outcomes


@pytest.mark.parametrize("yaw_mode", ["tangent", "fixed"])
@pytest.mark.parametrize("kind", ["waypoint", "star", "hover", "circle"])
def test_reference_is_bit_identical_to_list_oracle(kind, yaw_mode):
    # every control tick of a 75 s run (with the loop's k * dt bits), each
    # leg's start and end, mid-dwell, and past the end of the path
    s = make_scenario(cfg_with(scenario=kind, yaw_mode=yaw_mode, duration_s=75.0,
                               yaw_fixed_rad=2.5))
    assert s.leg_starts == tuple(leg.t0 for leg in s.legs)
    dt = 1.0 / 2000
    times = [k * dt for k in range(0, 150_000 + 1, 4)]
    for leg, nxt in zip(s.legs, s.legs[1:] + (None,)):
        end = leg.t0 + leg.duration
        times += [leg.t0, end]
        if nxt is not None:
            times.append(0.5 * (end + nxt.t0))    # mid-dwell
    if s.legs:
        assert s.legs[-1].t0 + s.legs[-1].duration < 70.0     # ticks past the path
    for t in times:
        t = min(t, s.duration_s)
        got, want = _reference_outcome(t, s)
        assert got == want, t


def test_reference_errors_match_setpoint_oracle():
    # a circle rate that overflows: nan at t = 0 (the finiteness test),
    # cos(inf) after it, and a time outside the run; validation rejects this
    # orbit, so it is set on a validated config
    cfg = cfg_with(scenario="circle", duration_s=6.0)
    cfg.harness.circle_speed_mps, cfg.harness.circle_radius_m = 1e308, 1e-300
    s = make_scenario(cfg)
    assert s.circle_rate == math.inf
    cases = {0.0: DomainError, 1.0: ValueError, 6.5: DomainError, -1.0: DomainError}
    for t, error in cases.items():
        got, want = _reference_outcome(t, s)
        assert got == want and got[0] is error, t
    assert _reference_outcome(0.0, s)[0][1] == "setpoint must be finite"


@pytest.mark.parametrize("kwargs, name", [
    ({"kind": "circle"}, "circle_center"),
    ({"kind": "hover", "hover_pos": [1.0, 2.0]}, "hover_pos"),
    ({"kind": "hover", "hover_pos": None}, "hover_pos"),
], ids=["circle-without-centre", "two-floats", "None"])
def test_a_malformed_scenario_vector_is_a_domain_error_naming_it(kwargs, name):
    # these raised AttributeError (the centre's default is None), ValueError
    # and TypeError
    with pytest.raises(DomainError, match=f"Scenario.{name} must be 3 real numbers"):
        Scenario(duration_s=1.0, **kwargs)


def test_scenario_stores_its_vectors_as_float_tuples():
    s = Scenario("circle", duration_s=1.0, hover_pos=np.array([1, 2, 3]),
                 circle_center=[np.float64(0.5), 0, 1])
    assert s.hover_pos == (1.0, 2.0, 3.0) and s.circle_center == (0.5, 0.0, 1.0)
    assert all(type(c) is float for c in (*s.hover_pos, *s.circle_center))


@pytest.mark.parametrize("kind", ["waypoint", "star", "hover", "circle"])
def test_every_scenario_kind_converts_to_a_dict(kind):
    # the per-kind constants reference reads have defaults, so a scenario
    # of any kind has every field set
    s = make_scenario(cfg_with(scenario=kind))
    d = asdict(s)
    assert d["kind"] == kind and d["leg_starts"] == s.leg_starts


def test_star_reference_is_a_pentagram():
    s = make_scenario(cfg_with(scenario="star", duration_s=120))
    assert len(s.legs) == 5
    for leg in s.legs:
        assert leg.length == pytest.approx(2.8531695488854605, rel=1e-12)
    # collect the distinct vertices; all lie on the 1.5 m circle and hit
    # the every-second-point angles of a five-point star
    vertices = [s.legs[0].p0] + [np.add(leg.p0, np.multiply(leg.u, leg.length)) for leg in s.legs]
    angles = []
    for v in vertices:
        assert np.linalg.norm(v[:2]) == pytest.approx(1.5, rel=1e-9)
        assert v[2] == pytest.approx(1.5)
        angles.append(math.atan2(v[1], v[0]))
    expected = [(math.pi / 2.0 + k * 4.0 * math.pi / 5.0) for k in range(6)]
    for got, want in zip(angles, expected):
        assert math.isclose(
            math.cos(got), math.cos(want), abs_tol=1e-9
        ) and math.isclose(math.sin(got), math.sin(want), abs_tol=1e-9)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def synth_log(t, **columns):
    """Log with the named columns set and hover attitude everywhere."""
    log = ScenarioLog(len(t))
    for i in range(len(t)):
        row = [0.0] * len(LOG_COLUMNS)
        row[IDX["t"]] = t[i]
        row[IDX["qx"]] = 1.0  # hover attitude: zero tilt
        for name, values in columns.items():
            row[IDX[name]] = values[i]
        log.append(row)
    return log


def test_metrics_constant_error():
    t = np.arange(0.0, 10.0, 0.01)
    log = synth_log(t, ref_px=np.full_like(t, 1.0), px=np.full_like(t, 0.99))
    m = metrics(log)
    assert m.rms_m[0] == pytest.approx(0.01, rel=1e-12)
    assert m.peak_m[0] == pytest.approx(0.01, rel=1e-12)
    assert m.rms_m[1] == 0.0 and m.rms_m[2] == 0.0
    assert m.peak_pitch_rad == 0.0
    assert m.latency_s == 0.0  # constant reference: no axis qualifies


def test_metrics_sinusoid_rms():
    t = np.arange(0.0, 10.0, 0.01)
    log = synth_log(t, px=0.25 * np.sin(2.0 * math.pi * 1.0 * t))
    m = metrics(log)
    assert m.rms_m[0] == pytest.approx(0.25 / math.sqrt(2.0), abs=1e-6)
    assert m.peak_m[0] == pytest.approx(0.25, rel=1e-12)


def test_metrics_latency_of_shifted_response():
    t = np.arange(0.0, 10.0, 0.01)
    ref = np.sin(2.0 * math.pi * 0.2 * t)
    resp = np.sin(2.0 * math.pi * 0.2 * (t - 0.2))
    m = metrics(synth_log(t, ref_px=ref, px=resp))
    assert m.latency_s == pytest.approx(0.2, abs=0.011)  # one logging tick


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


def lag_matches_oracle(ref, resp, dt):
    return same_float(
        scenarios._correlation_lag(ref, resp, dt), oracles.reference_correlation_lag(ref, resp, dt)
    )


# n below one sample block, across a block boundary, clipped to max_lag = n - 1
# (up to 2 s / 10 ms = 200 lags), and long enough for 2000 lags at 1 ms
SEEDED_LAG_SIZES = [2, 7, 31, 33, 150, 417, 2500]


def seeded_lag_cases(n):
    """``(name, dt, reference, response)`` for a seeded walk of ``n`` samples."""
    rng = np.random.default_rng(2800 + n)
    walk = rng.standard_normal(n).cumsum()
    shift = int(rng.integers(1, n))
    shifted = np.concatenate((np.full(shift, walk[0]), walk[:-shift]))
    responses = {
        "noise": rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3),
        "noisy copy": walk + 0.1 * rng.standard_normal(n),
        "shifted copy": shifted,
        "identical": walk,
        # the correlation is then even in the lag: its peak is a tie of two
        # lags whose products are summed with different block boundaries
        "negated": -walk,
        "zero": np.zeros(n),  # every lag ties
    }
    for dt in (0.001, 0.0037, 0.01):
        for name, resp in responses.items():
            yield name, dt, walk, resp


@pytest.mark.parametrize("n", SEEDED_LAG_SIZES)
def test_correlation_lag_is_bit_identical_to_every_lag_oracle(n):
    for name, dt, walk, resp in seeded_lag_cases(n):
        assert lag_matches_oracle(walk, resp, dt), (name, dt)


def test_correlation_lag_is_bit_identical_to_oracle_on_a_star_log():
    log, _ = run_scenario(cfg_with(scenario="star", logging_rate_hz=1000, duration_s=10))
    i0 = 5000  # the default 5 s transient window
    for ref_name, name in (("ref_px", "px"), ("ref_py", "py")):
        assert lag_matches_oracle(log.column(ref_name)[i0:], log.column(name)[i0:], 0.001), name


def screen_error(ref, resp, dt):
    """The FFT screen's largest error at any lag, and its ``slack``.

    The true sums are taken as long double ones, each within ``n eps B0``
    of the true sum for long double's ``eps`` (``B0 = n max|r| max|y|``);
    that bound is added to the error.
    """
    r, y = ref - ref.mean(), resp - resp.mean()
    n = len(r)
    pad = np.zeros(min(n - 1, int(round(2.0 / dt))))
    padded = np.concatenate((pad, y, pad))
    screen, slack = scenarios._screen(r, padded)
    sums = np.correlate(padded.astype(np.longdouble), r.astype(np.longdouble), "valid")
    long_error = n * float(np.finfo(np.longdouble).eps) * n * np.max(np.abs(r)) * np.max(np.abs(y))
    return float(np.max(np.abs(screen - sums))) + long_error, slack


@pytest.mark.parametrize("n", SEEDED_LAG_SIZES)
def test_latency_screen_error_is_far_inside_its_slack(n):
    # 2**10 below slack: a change that eats most of the margin fails here
    for name, dt, walk, resp in seeded_lag_cases(n):
        error, slack = screen_error(walk, resp, dt)
        assert error <= slack / 2**10, (name, dt, error, slack)


def test_latency_screen_error_is_far_inside_its_slack_on_a_star_log():
    log, _ = run_scenario(cfg_with(scenario="star", logging_rate_hz=1000, duration_s=10))
    i0 = 5000  # the default 5 s transient window
    for ref_name, name in (("ref_px", "px"), ("ref_py", "py")):
        error, slack = screen_error(log.column(ref_name)[i0:], log.column(name)[i0:], 0.001)
        assert error <= slack / 2**10, (name, error, slack)


def test_correlation_lag_is_bit_identical_to_oracle_on_overflowing_input():
    rng = np.random.default_rng(2801)
    walk = rng.standard_normal(700).cumsum()
    nan_at = walk.copy()
    nan_at[300] = math.nan
    cases = [
        (walk * 1e300, walk * 1e10),  # the products overflow
        (walk * 1e306, -walk),  # the reference's mean is not finite
        (walk * 1e152, walk * 1e152),  # the sums overflow, each product does not
        (walk, np.where(walk > 0.0, math.inf, walk)),
        (walk, nan_at),
        (walk * 1e-160, walk * 1e-160),  # the products underflow
    ]
    with np.errstate(all="ignore"):
        for i, (ref, resp) in enumerate(cases):
            assert lag_matches_oracle(ref, resp, 0.001), i


def test_metrics_peak_pitch_from_tilted_attitude():
    # Ry(tilt) diag(1, -1, -1): the zero-heading hover attitude pitched
    # by tilt about world y
    tilt = 0.3
    q = np.array([0.0, math.cos(0.5 * tilt), 0.0, -math.sin(0.5 * tilt)])
    t = np.arange(0.0, 10.0, 0.01)
    log = synth_log(t, qw=np.full_like(t, q[0]), qx=np.full_like(t, q[1]),
                    qy=np.full_like(t, q[2]), qz=np.full_like(t, q[3]))
    assert metrics(log).peak_pitch_rad == pytest.approx(tilt, abs=1e-12)


def test_metrics_peak_speed():
    t = np.arange(0.0, 10.0, 0.01)
    log = synth_log(t, vx=np.linspace(0.0, 3.0, len(t)), vy=np.full_like(t, 4.0))
    assert metrics(log).peak_speed_mps == pytest.approx(5.0, rel=1e-12)


def test_metrics_window_errors():
    with pytest.raises(MetricsWindowError):
        metrics(synth_log(np.array([0.0])))
    t = np.arange(0.0, 4.0, 0.01)  # ends inside the 5 s transient window
    with pytest.raises(MetricsWindowError):
        metrics(synth_log(t))
    # a custom, shorter window makes the same log usable
    m = metrics(synth_log(t), transient_window_s=1.0)
    assert m.rms_m[0] == 0.0


def test_metrics_validation_and_serialisation(tmp_path):
    with pytest.raises(DomainError):
        Metrics(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 0.0, 0.0, 0.0)
    m = Metrics(np.array([0.01, 0.02, 0.03]), np.array([0.1, 0.2, 0.3]), 0.4, 1.5, 0.05)
    d = m.to_dict()
    assert list(d) == [
        "rms_x_m", "rms_y_m", "rms_z_m",
        "peak_x_m", "peak_y_m", "peak_z_m",
        "peak_pitch_rad", "peak_speed_mps", "latency_s",
    ]
    path = tmp_path / "metrics.json"
    m.write_json(path)
    assert json.loads(path.read_text()) == d


def test_log_csv_layout(tmp_path):
    t = np.arange(0.0, 0.05, 0.01)
    log = synth_log(t, px=np.full_like(t, 1.0 / 3.0))
    log.data[0, IDX["saturated"]] = 1.0
    text = log.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(LOG_COLUMNS)
    assert len(lines) == 1 + len(t)
    first = lines[1].split(",")
    assert first[IDX["saturated"]] == "1"      # flags serialise as integers
    assert first[IDX["roll_clamped"]] == "0"
    assert first[IDX["px"]] == "0.33333333333333331"  # full float precision
    path = tmp_path / "log.csv"
    log.write_csv(path)
    assert path.read_text() == text


ROW = [0.25] * len(LOG_COLUMNS)


@pytest.mark.parametrize("row", [
    [None] + ROW[1:],
    ROW[:-1] + ["1.5"],
    ROW[:-1],
    ROW + [0.0],
    [],
    None,
], ids=["none", "string", "short", "long", "empty", "not-a-row"])
def test_append_rejects_a_row_that_is_not_53_floats(row):
    log = ScenarioLog(3)
    log.append(ROW)
    with pytest.raises(DomainError, match=f"{len(LOG_COLUMNS)} float values") as excinfo:
        log.append(row)
    assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__
    assert len(log) == 1
    # a row packed up to its bad value is cleared again
    assert log.data[1:].tolist() == [[0.0] * len(LOG_COLUMNS)] * 2
    log.append(ROW)
    assert log.columns("t", "roll_clamped").tolist() == [[0.25, 0.25]] * 2


@pytest.mark.parametrize("capacity", [0, 2])
def test_append_past_the_last_row_raises_domain_error(capacity):
    log = ScenarioLog(capacity)
    for _ in range(capacity):
        log.append(ROW)
    with pytest.raises(DomainError, match=f"{capacity} rows of {len(LOG_COLUMNS)} float values"):
        log.append(ROW)
    assert len(log) == capacity


def test_append_stores_each_value_as_its_float():
    # the bits a float(value) of each holds: -0.0, a nan payload, ints and bools
    row = [-0.0, _bits_to_float(0x7FF8000000000001), 3, True, np.float64(0.1),
           np.int64(-7)] + ROW[6:]
    log = ScenarioLog(1)
    log.append(row)
    assert [_float_to_bits(v) for v in log.data[0].tolist()] == [
        _float_to_bits(float(v)) for v in row
    ]


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _float_to_bits(value):
    return struct.unpack("<q", struct.pack("<d", value))[0]


# 0.0 beside -0.0, two NaN payloads, +-inf, subnormals, +-1e308 and 1/3
CSV_SPECIALS = (
    0.0, -0.0, _bits_to_float(0x7FF8000000000000), _bits_to_float(0x7FF8000000000001),
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    1e308, -1e308, 1.0 / 3.0,
)
CSV_FLAG_VALUES = (0.0, 1.0, -0.0)


# values that compare equal as floats or print alike, but differ in their bits
CSV_TWINS = {
    _float_to_bits(a): b for a, b in [
        (0.0, -0.0), (-0.0, 0.0),
        (CSV_SPECIALS[2], CSV_SPECIALS[3]), (CSV_SPECIALS[3], CSV_SPECIALS[2]),
    ]
}
REF = slice(IDX["ref_px"], IDX["ref_psi"] + 1)
STATE = slice(IDX["px"], IDX["wz"] + 1)
EST = slice(IDX["est_px"], IDX["est_wz"] + 1)
# each column group's columns but the flags'
FLOAT_GROUPS = [slice(a, b) for a, b in zip(scenarios._GROUP_STARTS,
                                            scenarios._GROUP_STARTS[1:-1])]


def repetitive_log(n_rows, capacity):
    """A log whose values repeat within blocks, across block edges and
    across columns.  The second row of each block holds all the special
    values side by side.  Every third row repeats the row above but for
    ``t``, which changes on every row but the first of each later block (so
    the next block's first row repeats the text above it).
    The other rows are drawn from the specials and normals with the est_*
    columns a copy of the state, and in turn:
    - the repeated row after one turns a value into its twin (0.0 and -0.0,
      or two nan payloads), so its group differs only in that bit;
    - one column group is held from the row above while the others change;
    - est_* equals the state but for one column, which holds its twin.
    The blocks then take three turns:
    - ref_* keeps the block's first row's values through the block;
    - est_* does, and the block's first row gets a new state with est_* set
      to it;
    - but for the second row, every row gets a new state, and est_* differs
      from it and is held from the row above on every even row, as the
      complementary filter's output is when the IMU runs at half the
      logging rate."""
    rng = np.random.default_rng(n_rows)
    pool = list(CSV_SPECIALS) + rng.normal(size=6).tolist()
    twins = [0.0, CSV_SPECIALS[2]]
    log = ScenarioLog(capacity)
    row = None
    for i in range(n_rows):
        turn = i // 6
        if i % _CSV_BLOCK == 1:
            row = [pool[(k + i) % len(pool)] for k in range(len(LOG_COLUMNS))]
        elif i % 3 == 1 or (i and i % _CSV_BLOCK == 0):
            row = list(row)
            c = turn % IDX["saturated"]
            if i % 6 == 4 and _float_to_bits(row[c]) in CSV_TWINS:
                row[c] = CSV_TWINS[_float_to_bits(row[c])]
        else:
            above = row
            row = [pool[k] for k in rng.integers(len(pool), size=len(LOG_COLUMNS))]
            row[EST] = row[STATE]
            if i % 6 == 3:      # the next row turns this value into its twin
                row[turn % IDX["saturated"]] = twins[turn % 2]
            elif i % 6 == 5:
                group = FLOAT_GROUPS[turn % len(FLOAT_GROUPS)]
                row[group] = above[group]
            elif i % 6 == 2:
                c = turn % (STATE.stop - STATE.start)
                row[STATE.start + c] = twins[turn % 2]
                row[EST.start + c] = CSV_TWINS[_float_to_bits(twins[turn % 2])]
        turn_of_block = i // _CSV_BLOCK % 3
        if turn_of_block == 2:
            if i % _CSV_BLOCK != 1:
                row[STATE] = [pool[k] for k in rng.integers(len(pool), size=STATE.stop - STATE.start)]
                row[EST] = (log.data[i - 1, EST] if i % 2 == 0 else
                            [pool[k] for k in rng.integers(len(pool), size=EST.stop - EST.start)])
        elif i % _CSV_BLOCK == 0:
            hold = (REF, EST)[turn_of_block]
            if hold == EST:
                row[STATE] = [pool[k] for k in rng.integers(len(pool), size=STATE.stop - STATE.start)]
                row[EST] = row[STATE]
            held = row[hold]
        if turn_of_block < 2:
            row[hold] = held
        if i % _CSV_BLOCK:
            row[IDX["t"]] = i / 4
        row[IDX["saturated"]] = CSV_FLAG_VALUES[i % len(CSV_FLAG_VALUES)]
        row[IDX["roll_clamped"]] = CSV_FLAG_VALUES[(i + 1) % len(CSV_FLAG_VALUES)]
        log.append(row)
    return log


@pytest.mark.parametrize("n_rows, capacity", [
    (0, 0),
    (_CSV_BLOCK - 1, _CSV_BLOCK - 1),
    (_CSV_BLOCK, _CSV_BLOCK),
    (_CSV_BLOCK + 1, _CSV_BLOCK + 1),
    (3 * _CSV_BLOCK - 5, 3 * _CSV_BLOCK),
], ids=["empty", "block-1", "block", "block+1", "below-capacity"])
def test_to_csv_is_byte_identical_to_row_template_oracle(n_rows, capacity):
    log = repetitive_log(n_rows, capacity)
    log.data[n_rows:] = 1.0 / 3.0  # capacity past the last row is not written
    for start in range(0, n_rows - 1, _CSV_BLOCK):
        bits = log.data[start : min(start + _CSV_BLOCK, n_rows)].view(np.int64)
        assert all((bits == _float_to_bits(value)).any() for value in CSV_SPECIALS)
    text = log.to_csv()
    assert text == oracles.reference_to_csv(log)
    assert text.count("\n") == n_rows + 1


def test_the_csv_column_groups_follow_the_column_names():
    names = [LOG_COLUMNS[cols] for cols, _ in scenarios._GROUPS]
    assert sum(names, ()) == LOG_COLUMNS
    assert names[scenarios._EST_GROUP] == tuple(
        "est_" + name for name in names[scenarios._STATE_GROUP])
    assert [group[0] for group in names] == [
        "t", "ref_px", "px", "est_px", "fdes_x", "act_omega_left", "saturated"]
    assert names[-1] == scenarios._FLAG_COLUMNS


# From two chunks of _ROWS_PER_WRITE rows on, write_csv hands the second half
# of the rows to a forked helper.  These tests pin it to the same oracle as
# to_csv, on small logs with the chunk patched down and on one real run log at
# the real threshold; reporting a single usable CPU runs the one-process path.
# test_cli.py writes a real run log through ``tailsim run --out-log``.
SMALL_ROWS_PER_WRITE = 40   # under one block: each chunk's first row has no row above
SMALL_SPLIT_ROWS = 2 * SMALL_ROWS_PER_WRITE
SPLIT_ROWS = 2 * scenarios._ROWS_PER_WRITE


def small_split(monkeypatch) -> None:
    monkeypatch.setattr(scenarios, "_ROWS_PER_WRITE", SMALL_ROWS_PER_WRITE)


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("n_rows", [SMALL_SPLIT_ROWS - 1, SMALL_SPLIT_ROWS,
                                    SMALL_SPLIT_ROWS + 1, 5 * SMALL_SPLIT_ROWS + 7])
def test_write_csv_matches_oracle_across_the_split(tmp_path, monkeypatch, n_rows, cpus):
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, cpus)
    log = repetitive_log(n_rows, n_rows + 3)
    log.write_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == oracles.reference_to_csv(log).encode()
    assert len(forks) == (cpus == 2 and n_rows >= SMALL_SPLIT_ROWS)
    assert_no_child_left()


@pytest.mark.parametrize("held", [False, True], ids=["changing-flags", "held-flags"])
@pytest.mark.parametrize("row", [7, 2 * SMALL_SPLIT_ROWS + 1], ids=["first-half", "second-half"])
@pytest.mark.parametrize("flag, value", [
    ("saturated", math.nan), ("roll_clamped", math.inf), ("saturated", -math.inf),
])
def test_a_flag_that_is_not_finite_fails_the_csv_naming_its_column(
    tmp_path, monkeypatch, flag, value, row, held
):
    # %d has no text for it: a bare ValueError (nan) or OverflowError (inf) before
    small_split(monkeypatch)
    log = repetitive_log(3 * SMALL_SPLIT_ROWS, 3 * SMALL_SPLIT_ROWS)
    if held:
        log.data[:, IDX["saturated"]:] = 0.0
    log.data[row, IDX[flag]] = value
    message = re.escape(f"log row {row}: {flag} = {value!r}; a flag must be 0 or 1")
    with pytest.raises(DomainError, match=message):
        log.to_csv()
    for cpus in (1, 2):
        forks = use_cpus(monkeypatch, cpus)
        with pytest.raises(DomainError, match=message):
            log.write_csv(tmp_path / "log.csv")
        assert len(forks) == cpus - 1
        assert_no_child_left()


@pytest.mark.parametrize("row", [7, 2 * SMALL_SPLIT_ROWS + 1], ids=["first-half", "second-half"])
@pytest.mark.parametrize("flag, value", [
    ("saturated", 0.5), ("roll_clamped", 2.0), ("roll_clamped", -1.0),
])
def test_a_flag_other_than_0_or_1_fails_the_csv_naming_its_column(
    tmp_path, monkeypatch, flag, value, row
):
    # %d would print 0.5 as 0 and 2.0 as 2
    test_a_flag_that_is_not_finite_fails_the_csv_naming_its_column(
        tmp_path, monkeypatch, flag, value, row, held=False)


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_log_write_keeps_the_destination_and_leaves_no_temporary_file(
    tmp_path, monkeypatch, cpus, exists
):
    forks = use_cpus(monkeypatch, cpus)
    log = ScenarioLog(3000)
    for i in range(3000):
        log.append([i / 1000] + [0.0] * (len(LOG_COLUMNS) - 1))
    log.data[2500, IDX["saturated"]] = math.nan
    path = tmp_path / "log.csv"
    if exists:
        path.write_bytes(b"an earlier log\n")
    with pytest.raises(DomainError, match="log row 2500: saturated = nan"):
        log.write_csv(path)
    assert list(tmp_path.iterdir()) == ([path] if exists else [])
    if exists:
        assert path.read_bytes() == b"an earlier log\n"
    assert len(forks) == cpus - 1     # 3000 rows: from 2 * 1024 on, a helper formats half
    assert_no_child_left()


def test_a_log_write_replaces_a_file_keeping_its_mode_and_writes_through_a_link(tmp_path):
    log = repetitive_log(50, 50)
    want = oracles.reference_to_csv(log).encode()
    path = tmp_path / "log.csv"
    path.write_bytes(b"an earlier log\n")
    path.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    log.write_csv(link)
    assert link.is_symlink() and path.read_bytes() == want
    assert path.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [link, path]


def test_write_csv_splits_a_star_log_at_the_real_threshold(tmp_path, monkeypatch):
    forks = use_cpus(monkeypatch, 2)
    rate = 1000
    log, _ = run_scenario(cfg_with(
        scenario="star", logging_rate_hz=rate, transient_window_s=1,
        duration_s=SPLIT_ROWS / rate,
    ))
    assert len(log) == SPLIT_ROWS
    log.write_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == oracles.reference_to_csv(log).encode()
    assert len(forks) == 1
    assert_no_child_left()


def test_a_log_whose_estimate_is_held_between_imu_samples_matches_the_oracle(
    tmp_path, monkeypatch
):
    # at 500 Hz the filter's output is held on every second 1 kHz row and never
    # equals the true state, which changes on every row
    rate = 1000
    log, _ = run_scenario(cfg_with(
        scenario="circle", estimator="complementary", imu_rate_hz=500,
        logging_rate_hz=rate, transient_window_s=1, duration_s=SPLIT_ROWS / rate,
    ))
    est = log.data[: len(log), EST]
    assert (est[1:] != est[:-1]).any(axis=1).mean() == pytest.approx(0.5, abs=0.01)
    assert (est != log.data[: len(log), STATE]).any(axis=1).all()
    want = oracles.reference_to_csv(log)
    assert log.to_csv() == want
    for cpus in (2, 1):
        forks = use_cpus(monkeypatch, cpus)
        log.write_csv(tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_bytes() == want.encode()
        assert len(forks) == cpus - 1
        assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, SystemExit])
def test_a_failing_log_helper_leaves_through_os_exit_and_its_half_is_redone(
    tmp_path, monkeypatch, error
):
    parent = os.getpid()
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    exits = tmp_path / "exits"
    real_exit = record_exits(monkeypatch, exits)
    in_child = lambda pid: pid != parent  # noqa: E731
    monkeypatch.setattr(ScenarioLog, "_rows_csv",
                        failing_in(in_child, ScenarioLog._rows_csv, error))
    log = repetitive_log(3 * SMALL_SPLIT_ROWS, 3 * SMALL_SPLIT_ROWS)
    try:
        log.write_csv(tmp_path / "log.csv")
    finally:
        if os.getpid() != parent:
            # a child came back into the caller: leave before pytest runs on in it
            (tmp_path / "returned").touch()
            real_exit(0)
    assert not (tmp_path / "returned").exists()
    assert (tmp_path / "log.csv").read_bytes() == oracles.reference_to_csv(log).encode()
    assert len(forks) == 1
    assert [p.read_text() for p in exits.iterdir()] == ["1"]
    assert_no_child_left()


def test_the_log_writer_reaps_its_helper_when_its_own_part_fails(tmp_path, monkeypatch):
    parent = os.getpid()
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    in_parent = lambda pid: pid == parent  # noqa: E731
    monkeypatch.setattr(ScenarioLog, "_rows_csv",
                        failing_in(in_parent, ScenarioLog._rows_csv, OSError))
    log = repetitive_log(3 * SMALL_SPLIT_ROWS, 3 * SMALL_SPLIT_ROWS)
    with pytest.raises(OSError, match="injected failure"):
        log.write_csv(tmp_path / "log.csv")
    assert len(forks) == 1
    assert_no_child_left()


def test_no_log_helper_is_forked_beside_another_thread_without_fork_or_into_a_fifo(
    tmp_path, monkeypatch
):
    small_split(monkeypatch)
    forks = use_cpus(monkeypatch, 2)
    log = repetitive_log(3 * SMALL_SPLIT_ROWS, 3 * SMALL_SPLIT_ROWS)
    want = oracles.reference_to_csv(log).encode()
    path = tmp_path / "log.csv"
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        log.write_csv(path)
    finally:
        release.set()
        other.join()
    assert path.read_bytes() == want
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(fifo.read_bytes()))
    reader.start()
    with monkeypatch.context() as m:
        # the thread reading the FIFO also rules out a fork; take it out of the count
        m.setattr(threading, "active_count", lambda: 1)
        log.write_csv(fifo)
    reader.join()
    assert chunks == [want]
    assert forks == []
    monkeypatch.delattr(os, "fork")
    log.write_csv(path)
    assert path.read_bytes() == want


def test_a_run_without_a_log_destination_maps_and_forks_nothing(monkeypatch):
    forks = use_cpus(monkeypatch, 2)
    maps = []
    monkeypatch.setattr(mmap, "mmap", lambda *args: maps.append(args))
    log, _ = run_scenario(cfg_with(
        scenario="star", logging_rate_hz=1000, transient_window_s=1,
        duration_s=SPLIT_ROWS / 1000,
    ))
    assert len(log) == SPLIT_ROWS and maps == [] and forks == []


# Real star runs written to their destination as `tailsim run --out-log` does:
# the run first, then write_csv.  The "streamed" names are kept from when the
# log was written during the loop; the cases and the oracle are the same.
STREAM_ROWS_PER_WRITE = 48  # under one block, as SMALL_ROWS_PER_WRITE
STREAM_SPLIT_ROWS = 2 * STREAM_ROWS_PER_WRITE


def star_run_of(n_rows):
    """A perfect-estimator star run that logs ``n_rows`` rows at 1 kHz."""
    return cfg_with(scenario="star", logging_rate_hz=1000, duration_s=n_rows / 1000,
                    transient_window_s=min(1, n_rows / 2000))


def run_to(cfg, path):
    """Run ``cfg`` and write its log to ``path``; the log's oracle text."""
    log, _ = run_scenario(cfg)
    log.write_csv(path)
    return oracles.reference_to_csv(log).encode()


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("n_rows", [STREAM_SPLIT_ROWS - 1, STREAM_SPLIT_ROWS,
                                    STREAM_SPLIT_ROWS + 1, 5 * STREAM_SPLIT_ROWS + 7])
def test_streamed_log_matches_oracle_across_the_threshold(tmp_path, monkeypatch, n_rows, cpus):
    monkeypatch.setattr(scenarios, "_ROWS_PER_WRITE", STREAM_ROWS_PER_WRITE)
    forks = use_cpus(monkeypatch, cpus)
    path = tmp_path / "log.csv"
    want = run_to(star_run_of(n_rows), path)
    assert want.count(b"\n") == n_rows + 1
    assert path.read_bytes() == want
    assert len(forks) == (cpus == 2 and n_rows >= STREAM_SPLIT_ROWS)
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, SystemExit])
def test_a_failing_stream_helper_leaves_through_os_exit_and_its_rows_are_redone(
    tmp_path, monkeypatch, error
):
    parent = os.getpid()
    monkeypatch.setattr(scenarios, "_ROWS_PER_WRITE", STREAM_ROWS_PER_WRITE)
    forks = use_cpus(monkeypatch, 2)
    exits = tmp_path / "exits"
    real_exit = record_exits(monkeypatch, exits)
    in_child = lambda pid: pid != parent  # noqa: E731
    monkeypatch.setattr(ScenarioLog, "_rows_csv",
                        failing_in(in_child, ScenarioLog._rows_csv, error))
    path = tmp_path / "log.csv"
    try:
        want = run_to(star_run_of(3 * STREAM_SPLIT_ROWS), path)
    finally:
        if os.getpid() != parent:
            # a child came back into the caller: leave before pytest runs on in it
            (tmp_path / "returned").touch()
            real_exit(0)
    assert not (tmp_path / "returned").exists()
    assert path.read_bytes() == want
    assert len(forks) == 1
    assert [p.read_text() for p in exits.iterdir()] == ["1"]
    assert_no_child_left()


# --------------------------------------------------------------------------
# closed-loop harness
# --------------------------------------------------------------------------

def quiet_hover(**extra):
    base = dict(
        scenario="hover", duration_s=6,
        dist_force_x=0, dist_force_y=0, dist_force_z=0,
        dist_torque_x=0, dist_torque_y=0, dist_torque_z=0,
        noise_gyro=0, noise_accel=0, noise_pose_pos=0, noise_pose_att=0,
    )
    base.update(extra)
    return cfg_with(**base)


def test_hover_attitude_matrix():
    for yaw in (0.0, 0.8, -2.0):
        R = quat_to_matrix(hover_attitude(yaw))
        c, s = math.cos(yaw), math.sin(yaw)
        expect = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.diag([1.0, -1.0, -1.0])
        assert np.allclose(R, expect, atol=1e-14)
        assert np.linalg.norm(hover_attitude(yaw)) == pytest.approx(1.0, abs=1e-15)


def test_hover_attitude_sign_matches_matrix_conversion():
    # the quaternion of Rz(yaw) diag(1, -1, -1) has two signs; hover_attitude
    # returns the one Shepperd's matrix-to-quaternion method returns
    flip = np.diag([1.0, -1.0, -1.0])
    for yaw in np.linspace(-math.pi, math.pi, 721)[1:]:
        c, s = math.cos(yaw), math.sin(yaw)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ flip
        assert np.allclose(hover_attitude(yaw), oracles.matrix_to_quat(R), rtol=0.0, atol=1e-15)


def test_initial_state_starts_on_reference():
    cfg = cfg_with(scenario="circle", start_offset_x=0.1, start_offset_z=-0.3)
    s = make_scenario(cfg)
    st = initial_state(cfg, s)
    assert np.allclose(st.p, [1.6, 0.0, 1.2])          # reference + offset
    assert np.allclose(st.v, [0.0, 1.5, 0.0])          # reference velocity
    assert abs(abs(st.q @ hover_attitude(math.pi / 2.0)) - 1.0) < 1e-12
    assert st.act.omega_left == pytest.approx(cfg.params.hover_rotor_speed())
    assert st.act.delta_left == 0.0


def test_perfect_quiet_hover_run():
    log, m = run_scenario(quiet_hover())
    assert len(log) == 600                              # 6 s at 100 Hz
    t = log.column("t")
    assert np.allclose(np.diff(t), 0.01, atol=1e-12)
    assert t[0] == 0.0
    assert np.all(m.rms_m < 1e-12)
    assert np.all(m.peak_m < 1e-12)
    assert m.peak_pitch_rad < 1e-9
    assert np.all(log.column("saturated") == 0.0)
    # trimmed actuators stay at the hover working point
    assert log.column("act_omega_left")[-1] == pytest.approx(
        Config().params.hover_rotor_speed(), rel=1e-9
    )
    # perfect estimator logs truth verbatim
    assert np.array_equal(log.column("est_px"), log.column("px"))


def test_noisy_complementary_hover_run_is_deterministic():
    cfg = cfg_with(scenario="hover", duration_s=8, estimator="complementary")
    log_a, m_a = run_scenario(cfg)
    log_b, m_b = run_scenario(cfg)
    assert log_a.to_csv() == log_b.to_csv()
    assert m_a.to_dict() == m_b.to_dict()
    # estimation error is visible but bounded
    assert not np.array_equal(log_a.column("est_px"), log_a.column("px"))
    assert np.all(m_a.rms_m < 0.10)

    log_c, _ = run_scenario(cfg_with(scenario="hover", duration_s=8,
                                     estimator="complementary", seed=1))
    assert log_c.to_csv() != log_a.to_csv()



def test_accelerometer_noise_changes_no_log_or_metrics_byte():
    # noise_accel perturbs only SensorSample.accel, which nothing reads: the
    # normals are drawn whatever its level, so the gyro and pose noise match
    outputs = set()
    for level in (0, 0.05, 5):
        log, m = run_scenario(cfg_with(scenario="hover", estimator="complementary",
                                       duration_s=2, transient_window_s=0.5, noise_accel=level))
        outputs.add((log.to_csv(), m.to_json()))
    assert len(outputs) == 1

def test_log_state_columns_equal_state_y_at_logged_ticks(monkeypatch):
    # the run steps the state it has just logged, so the input state floats
    # of every kernel call are recorded and compared with its tick's log row
    seen = []

    def recording_step(consts, s, *args):
        seen.append(tuple(s[:13]))
        return advance_into(consts, s, *args)

    monkeypatch.setattr(scenarios, "step", recording_step)
    cfg = cfg_with(scenario="circle", estimator="complementary", duration_s=1,
                   transient_window_s=0.5)
    log, _ = run_scenario(cfg)
    every = cfg.harness.physics_rate_hz // cfg.harness.logging_rate_hz
    cols = log.columns("px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz",
                       "wx", "wy", "wz")
    assert len(cols) == 100 and len(seen) == 100 * every
    for row, y in zip(cols, seen[::every]):
        assert tuple(row.tolist()) == y


def test_plant_constants_are_bound_per_run_not_cached():
    # a run builds its kernel constants from the config it is given, so a
    # change made in place between two runs reaches the second one
    short = dict(scenario="circle", duration_s=1, transient_window_s=0.5, logging_rate_hz=2000)
    cfg = cfg_with(**short)
    first, _ = run_scenario(cfg)
    cfg.params.m = 0.7
    cfg.disturbance.force_offset_world = (0.3, 0.02, 0.03)
    second, _ = run_scenario(cfg)
    fresh, _ = run_scenario(cfg_with(m=0.7, dist_force_x=0.3, **short))
    assert second.to_csv() == fresh.to_csv()
    assert second.to_csv() != first.to_csv()
    # and against step, which builds its constants on every call: each
    # logged physics tick steps to the next one
    state = ["px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz", "wx", "wy", "wz"]
    act = ["act_omega_left", "act_omega_right", "act_delta_left", "act_delta_right"]
    rows = second.columns(*state, *act, "cmd_omega_left", "cmd_omega_right",
                          "cmd_delta_left", "cmd_delta_right").tolist()
    for now, after in zip(rows, rows[1:]):
        y = now[:13]
        start = VehicleState(y[0:3], y[3:6], y[6:10], y[10:13], ActuatorState(*now[13:17]))
        out = step(start, ActuatorCommand(*now[17:]), 1 / 2000, cfg.params, cfg.disturbance)
        assert out.y + astuple(out.act) == tuple(after[:17])


@pytest.mark.parametrize("estimator", ["perfect", "complementary"])
def test_non_integer_seed_is_a_config_error_under_both_estimators(estimator):
    # a perfect run makes no generator, so validation must catch the seed
    cfg = cfg_with(scenario="hover", duration_s=2, transient_window_s=1,
                   estimator=estimator)
    cfg.disturbance.seed = 1.5
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert excinfo.value.category == "config-invalid"
    assert "seed: must be an integer, got 1.5" in str(excinfo.value)


@pytest.mark.parametrize("estimator", ["perfect", "complementary"])
@pytest.mark.parametrize("duration, window", [(2, 2), (1, 0.995), (1, 0.99)])
def test_unreachable_metrics_window_fails_before_the_first_step(
    monkeypatch, estimator, duration, window
):
    calls = []

    def counting_step(*args):
        calls.append(1)
        return advance_into(*args)

    monkeypatch.setattr(scenarios, "step", counting_step)
    cfg = cfg_with(scenario="hover", estimator=estimator, duration_s=duration,
                   transient_window_s=window)
    with pytest.raises(MetricsWindowError) as excinfo:
        run_scenario(cfg)
    assert calls == []
    # the message the metrics of the full log would have given
    h = cfg.harness
    every = h.physics_rate_hz // h.logging_rate_hz
    rows = int(round(duration * h.logging_rate_hz))
    log = synth_log(np.arange(rows) * every * (1.0 / h.physics_rate_hz))
    with pytest.raises(MetricsWindowError) as want:
        metrics(log, window)
    assert str(excinfo.value) == str(want.value)


def test_metrics_window_reaching_the_last_two_rows_runs():
    # 100 Hz rows at 0.00 .. 0.99 s: a 0.98 s window keeps the last two
    log, m = run_scenario(quiet_hover(duration_s=1, transient_window_s=0.98))
    assert len(log) == 100
    assert m.latency_s == 0.0


def test_perfect_run_loads_no_random_generator():
    # pytest's own process already holds numpy.random, so a fresh one runs
    code = (
        "import sys\n"
        "from tailsim.config import Config, apply_overrides\n"
        "from tailsim.scenarios import run_scenario\n"
        "def run(**kw):\n"
        "    run_scenario(apply_overrides(Config(), {k: str(v) for k, v in kw.items()}))\n"
        "    print('numpy.random' in sys.modules)\n"
        "run(scenario='circle', estimator='perfect', duration_s=6)\n"
        "run(scenario='hover', estimator='complementary', duration_s=2,"
        " transient_window_s=1)\n"
    )
    env = dict(os.environ)
    src = str(Path(tailsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.split() == ["False", "True"]


def test_set_up_and_a_hover_run_load_no_fft(tmp_path):
    # the latency screen imports numpy.fft on its first excited axis only
    path = tmp_path / "star.cfg"
    path.write_text("scenario = star\nduration_s = 12\n")
    code = (
        "import sys\n"
        "import tailsim.cli\n"
        "from tailsim.config import Config, load_config\n"
        "from tailsim.scenarios import make_scenario, run_scenario\n"
        f"config = load_config({str(path)!r})\n"
        "make_scenario(config)\n"
        "print('numpy.fft' in sys.modules)\n"
        "hover = Config()\n"
        "hover.harness.duration_s = 7\n"
        "run_scenario(hover)\n"
        "print('numpy.fft' in sys.modules)\n"
        "run_scenario(config)\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(tailsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.split() == ["False", "False", "True"]


def test_logging_rate_does_not_change_physics():
    base = dict(scenario="hover", duration_s=10, estimator="complementary")
    log_a, m_a = run_scenario(cfg_with(**base, logging_rate_hz=100))
    log_b, m_b = run_scenario(cfg_with(**base, logging_rate_hz=200))
    assert len(log_a) == 1000
    assert len(log_b) == 2000
    # the 200 Hz log contains the 100 Hz instants with identical truth
    assert np.allclose(log_b.column("px")[::2], log_a.column("px"), atol=1e-15)
    for key in ("rms_x_m", "rms_y_m", "rms_z_m"):
        a, b = m_a.to_dict()[key], m_b.to_dict()[key]
        assert b == pytest.approx(a, rel=0.01)


LOOPS = ("rate_rate_hz", "attitude_rate_hz", "position_rate_hz")
RATE_SETS = {
    "defaults": {},
    "1kHz-physics": {"physics_rate_hz": "1000", "imu_rate_hz": "500", "pose_rate_hz": "50",
                     "logging_rate_hz": "50", "rate_rate_hz": "500", "attitude_rate_hz": "250",
                     "position_rate_hz": "125"},
    "1kHz-log": {"logging_rate_hz": "1000"},
    "500.4Hz-loops": dict.fromkeys(LOOPS, "500.4"),
    "1.4Hz-loops": dict.fromkeys(LOOPS, "1.4"),
    "imu400-pose250": {"imu_rate_hz": "400", "pose_rate_hz": "250"},
    "imu1000-pose2000": {"imu_rate_hz": "1000", "pose_rate_hz": "2000"},
}


@pytest.mark.parametrize("rates", RATE_SETS.values(), ids=RATE_SETS)
def test_every_accepted_rate_is_the_rate_that_runs(monkeypatch, rates):
    # these used to validate: the 500.4 Hz loops ran at 500 Hz and the 1.4 Hz
    # ones at 1 Hz, while the cascade integrated over their stated periods,
    # and a 250 Hz pose fix under a 400 Hz IMU came 50 times a second
    try:
        cfg = apply_overrides(Config(), {"scenario": "circle", "estimator": "complementary",
                                         "duration_s": "1", "transient_window_s": "0.5", **rates})
    except ConfigError as exc:
        assert exc.problems and all(line.split(":")[0] in rates for line in exc.problems)
        return
    counts = dict.fromkeys(("update", "position_control", "attitude_control", "sense", "pose"), 0)

    def counting(owner, attr):
        fn = vars(owner)[attr]

        def wrapper(*args):
            counts[attr] += 1
            if attr == "sense":
                counts["pose"] += args[-1]        # with_pose
            return fn(*args)
        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((control.CascadeController, "update"), (control, "position_control"),
                        (control, "attitude_control"), (scenarios, "sense")):
        counting(owner, attr)
    log, _ = run_scenario(cfg)
    h, r = cfg.harness, cfg.rates
    assert {**counts, "rows": len(log)} == {
        "update": r.rate_rate, "position_control": r.position_rate,
        "attitude_control": r.attitude_rate, "sense": h.imu_rate_hz, "pose": h.pose_rate_hz,
        "rows": h.logging_rate_hz,
    }


def test_divergence_is_reported_with_timestamp():
    cfg = quiet_hover(J_xx=1e-300, dist_torque_x=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDivergedError) as excinfo:
            run_scenario(cfg)
    assert "at t = " in str(excinfo.value)


def test_divergence_is_reported_with_timestamp_on_the_python_kernel(python_kernel):
    test_divergence_is_reported_with_timestamp()


@pytest.mark.parametrize("kernel", ["loaded", "python"])
@pytest.mark.parametrize("scenario, estimator, k", [
    ("circle", "perfect", 4 * 700 + 3),       # the loop reads the state every 4th step
    ("hover", "complementary", 2 * 400 + 1),  # every 2nd, at the 1 kHz IMU rate
])
def test_a_divergence_between_loop_events_reports_the_end_of_its_own_step(
    request, monkeypatch, kernel, scenario, estimator, k
):
    if kernel == "python":
        request.getfixturevalue("python_kernel")
    real = scenarios.step
    calls = []

    def diverging_step(*args):
        if len(calls) == k:
            raise SimulationDivergedError("injected divergence")
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(scenarios, "step", diverging_step)
    cfg = cfg_with(scenario=scenario, estimator=estimator, duration_s=2, transient_window_s=0.5)
    dt = 1.0 / cfg.harness.physics_rate_hz
    with pytest.raises(SimulationDivergedError) as excinfo:
        run_scenario(cfg)
    assert str(excinfo.value).endswith(f"injected divergence at t = {(k + 1) * dt:.6f} s")
    assert len(calls) == k


def test_start_offset_realises_a_step_response():
    log, m = run_scenario(quiet_hover(start_offset_z=-0.3))
    z_err = log.column("ref_pz") - log.column("pz")
    assert z_err[0] == pytest.approx(0.3, abs=1e-12)   # starts displaced
    assert abs(z_err[-1]) < 1e-4                       # settles on the setpoint
    assert np.all(m.rms_m[0:2] < 1e-9)                 # lateral axes untouched
