"""Flat key=value configuration: parsing, overrides, strict validation."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailsim.config import (
    _KEYS,
    CANONICAL_KEYS,
    FINITE,
    MAX_HOVER_SPEED_FRACTION,
    MAX_LOG_ROWS,
    MAX_POSITION_M,
    NONNEGATIVE,
    POSITION,
    POSITIVE,
    RADIUS,
    SCENARIO_KINDS,
    WHOLE_HZ,
    Config,
    HarnessSettings,
    apply_overrides,
    load_config,
    parse_pairs,
    validate_file,
    validate_text,
)
from tailsim.errors import ConfigError
from tailsim.scenarios import run_scenario


def test_default_round_trip_through_text():
    cfg = Config()
    restored = validate_text(cfg.to_text())
    assert restored.params == cfg.params
    assert restored.gains == cfg.gains
    assert restored.rates == cfg.rates
    assert restored.disturbance == cfg.disturbance
    assert restored.harness == cfg.harness
    assert restored.to_text() == cfg.to_text()


def test_to_text_covers_every_canonical_key_exactly_once():
    pairs = parse_pairs(Config().to_text())
    assert set(pairs) == set(CANONICAL_KEYS)
    assert len(pairs) == 74


def test_parse_pairs_comments_blanks_and_duplicates():
    pairs = parse_pairs("# heading\n\nm = 0.7   # trailing comment\nl=0.3\n")
    assert pairs == {"m": "0.7", "l": "0.3"}
    with pytest.raises(ConfigError):
        parse_pairs("m = 0.7\nm = 0.8\n")
    with pytest.raises(ConfigError):
        parse_pairs("just some words\n")


def test_apply_overrides_changes_only_named_fields():
    cfg = apply_overrides(Config(), {"m": "0.70", "duration_s": "30", "scenario": "circle"})
    assert cfg.params.m == 0.70
    assert cfg.harness.duration_s == 30.0
    assert cfg.harness.scenario == "circle"
    # untouched sections keep their defaults
    assert cfg.params.k_t == 7.86e-6
    assert cfg.gains.tau_att == 0.2


def test_apply_overrides_vector_and_waypoint_syntax():
    cfg = apply_overrides(
        Config(),
        {
            "dist_force_x": "0.2",
            "hover_z": "2.5",
            "waypoints": "0,0,1; 4,0,1; 4,4,1",
            "seed": "11",
        },
    )
    assert cfg.disturbance.force_offset_world == (0.2, 0.02, 0.03)
    assert cfg.harness.hover_pos == (0.0, 0.0, 2.5)
    assert cfg.harness.waypoints == ((0.0, 0.0, 1.0), (4.0, 0.0, 1.0), (4.0, 4.0, 1.0))
    assert cfg.disturbance.seed == 11
    # every vector is stored as a tuple of Python floats
    for value in (cfg.disturbance.force_offset_world, cfg.harness.hover_pos,
                  *cfg.harness.waypoints):
        assert type(value) is tuple and all(type(c) is float for c in value)


def test_apply_overrides_collects_all_problems_at_once():
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(
            Config(),
            {
                "no_such_key": "1",          # unknown key
                "m": "heavy",                # unparsable float
                "k_t": "-1e-6",              # fails the vehicle section's check
                "scenario": "spiral",        # not a scenario kind
                "physics_rate_hz": "300",    # below the 1 kHz pose rate -> divisibility
            },
        )
    text = str(excinfo.value)
    for fragment in ("no_such_key", "m", "k_t", "scenario"):
        assert fragment in text
    assert len(excinfo.value.problems) >= 4


def test_rate_divisibility_validation():
    # pose/logging/control rates must divide the physics rate evenly
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"logging_rate_hz": "333"})
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"imu_rate_hz": "1500"})
    # a consistent retiming passes
    cfg = apply_overrides(
        Config(),
        {"physics_rate_hz": "1000", "imu_rate_hz": "500", "pose_rate_hz": "50",
         "logging_rate_hz": "50", "rate_rate_hz": "500", "attitude_rate_hz": "250",
         "position_rate_hz": "125"},
    )
    assert cfg.harness.physics_rate_hz == 1000.0


def test_physics_step_ceiling_enforced():
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"physics_rate_hz": "400"})  # dt = 2.5 ms > 2 ms


def test_enum_and_sign_validation():
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"estimator": "kalman"})
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"yaw_mode": "spin"})
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"noise_gyro": "-0.01"})
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"duration_s": "0"})
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"waypoint_dwell_s": "-1"})
    # hover needs sqrt(m g / 2 k_t) = 1766 rad/s, above omega_max = 790 rad/s
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), {"m": "5"})
    assert "omega_max" in str(excinfo.value)


@pytest.mark.parametrize("key, value", [
    ("noise_gyro", "nan"),
    ("noise_accel", "inf"),
    ("noise_pose_pos", "nan"),
    ("noise_pose_att", "inf"),
    ("imu_cutoff_hz", "nan"),
    ("imu_cutoff_hz", "inf"),
    ("dist_force_x", "nan"),
    ("dist_torque_z", "-inf"),
    ("duration_s", "inf"),
    ("transient_window_s", "inf"),
    ("waypoint_dwell_s", "nan"),
    ("waypoint_speed_mps", "inf"),
    ("circle_speed_mps", "inf"),
    ("star_radius_m", "inf"),
    ("start_offset_x", "inf"),
    ("hover_z", "nan"),
    ("circle_y", "-inf"),
    ("star_x", "nan"),
    ("yaw_fixed_rad", "inf"),
    ("waypoints", "0,0,1.5; nan,1,1.5; 1,1,1.5"),
])
def test_non_finite_noise_offsets_and_cutoff_rejected(key, value):
    # each `< 0` / `<= 0` comparison is false for nan and `> 0` is true for
    # inf, and the position keys were not checked, so these used to pass
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {key: value})
    lines = [f"{key} = {value}" if ln.split("=")[0].strip() == key else ln
             for ln in Config().to_text().splitlines()]
    with pytest.raises(ConfigError) as excinfo:
        validate_text("\n".join(lines) + "\n")
    assert "duplicate" not in str(excinfo.value)


@pytest.mark.parametrize("key, value", [
    ("seed", "inf"),
    ("seed", "1e400"),
    ("seed", "nan"),
    ("star_points", "-inf"),
    ("physics_rate_hz", "inf"),
])
def test_integer_key_rejects_non_finite_values(key, value):
    # int(inf) raises OverflowError, which used to escape as a traceback
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), {key: value})
    assert f"{key}: invalid value" in str(excinfo.value)


def test_negative_seed_is_rejected():
    # np.random.default_rng(-1) raises ValueError once the run starts
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), {"seed": "-1"})
    assert "seed: must be >= 0" in str(excinfo.value)
    assert apply_overrides(Config(), {"seed": "0"}).disturbance.seed == 0


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
def test_non_integer_seed_is_rejected(seed):
    # numpy's SeedSequence rejected these only once a generator was made
    cfg = Config()
    cfg.disturbance.seed = seed
    assert f"seed: must be an integer, got {seed!r}" in cfg.scenario_problems()


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7)])
def test_integer_seed_is_accepted(seed):
    cfg = Config()
    cfg.disturbance.seed = seed
    assert cfg.scenario_problems() == []


@pytest.mark.parametrize("mass, accepted", [
    (0.65, True), (0.7, True), (0.8, True), (0.82, False), (1.0, False),
])
def test_hover_trim_must_leave_thrust_margin(mass, accepted):
    # hover trim over omega_max: 0.806 at the default 0.65 kg, 0.837 at 0.7,
    # 0.894 at 0.8, 0.906 at 0.82 and 0.99996 at 1.0 kg
    cfg = Config()
    cfg.params.m = mass
    fraction = cfg.params.hover_rotor_speed() / cfg.params.omega_max
    assert (fraction <= MAX_HOVER_SPEED_FRACTION) == accepted
    problems = [p for p in cfg.scenario_problems() if p.startswith("omega_max")]
    assert bool(problems) != accepted
    if not accepted:
        with pytest.raises(ConfigError, match="omega_max"):
            apply_overrides(Config(), {"m": repr(mass)})


def test_scenario_problems_sees_non_finite_values_set_after_construction():
    cfg = Config()
    cfg.disturbance.gyro_noise_std = float("nan")
    _KEYS["dist_force_y"].set(cfg, float("inf"))   # past DisturbanceSpec's own check
    cfg.harness.imu_cutoff_hz = float("nan")
    problems = "\n".join(cfg.scenario_problems())
    assert "noise_gyro" in problems
    assert "dist_force_y" in problems
    assert "imu_cutoff_hz" in problems


def test_waypoints_need_at_least_two_points():
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"waypoints": "1,2,3"})
    with pytest.raises(ConfigError):
        apply_overrides(Config(), {"waypoints": "1,2; 3,4"})  # not 3-vectors
    with pytest.raises(ConfigError):  # every leg has zero length
        apply_overrides(Config(), {"scenario": "waypoint", "waypoints": "1,1,1.5;1,1,1.5"})


def test_strict_validation_requires_every_key():
    text = Config().to_text()
    # drop one key -> strict mode reports it as missing
    lines = [ln for ln in text.splitlines() if not ln.strip().startswith("tau_att")]
    with pytest.raises(ConfigError) as excinfo:
        validate_text("\n".join(lines))
    assert "tau_att" in str(excinfo.value)


def test_strict_validation_lists_all_missing_keys_together():
    with pytest.raises(ConfigError) as excinfo:
        validate_text("m = 0.65\n")
    assert len(excinfo.value.problems) == 73


def test_load_config_is_override_mode(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("duration_s = 12\nscenario = circle\ncircle_radius_m = 2.0\n")
    cfg = load_config(path)
    assert cfg.harness.duration_s == 12.0
    assert cfg.harness.scenario == "circle"
    assert cfg.harness.circle_radius_m == 2.0
    assert cfg.params.m == 0.65  # defaults fill the rest


@pytest.mark.parametrize("text, line_no", [
    (b"\xffm = 0.65\n", 1),
    (b"# caf\xc3\xa9\r\nduration_s = 12\rseed = 1\xff\n", 3),
    (b"duration_s = 12\n\n# \xc3\n", 3),
])
def test_config_files_that_are_not_utf8_name_their_line(tmp_path, text, line_no):
    # lines are counted as parse_pairs counts them, CR and CRLF included
    path = tmp_path / "bad.cfg"
    path.write_bytes(text)
    for load in (load_config, validate_file):
        with pytest.raises(ConfigError) as excinfo:
            load(path)
        assert f"line {line_no}: not valid UTF-8" in excinfo.value.problems


def test_config_files_are_read_as_utf8(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_bytes("# réglage\nduration_s = 12\n".encode("utf-8"))
    assert load_config(path).harness.duration_s == 12.0


def test_validate_file_accepts_full_dump(tmp_path):
    path = tmp_path / "full.cfg"
    Config().write(path)
    cfg = validate_file(path)
    assert cfg.harness.scenario == "hover"


def test_write_and_text_round_trip_floats_exactly(tmp_path):
    cfg = apply_overrides(Config(), {"m": "0.6500000000000001", "tau_att": "0.19999999999999998"})
    path = tmp_path / "cfg.txt"
    cfg.write(path)
    back = load_config(path, base=Config())
    assert back.params.m == 0.6500000000000001
    assert back.gains.tau_att == 0.19999999999999998


def test_default_harness_settings():
    h = Config().harness
    assert h.scenario == "hover"
    assert h.duration_s == 60.0
    assert h.physics_rate_hz == 2000.0
    assert h.imu_rate_hz == 1000.0
    assert h.pose_rate_hz == 100.0
    assert h.logging_rate_hz == 100.0
    assert h.estimator == "perfect"
    assert h.transient_window_s == 5.0
    assert h.waypoint_speed_mps == 1.25
    assert h.circle_radius_m == 1.5
    assert h.circle_speed_mps == 1.5
    assert h.yaw_mode == "tangent"
    assert h.hover_pos == (0.0, 0.0, 1.5)
    assert len(h.waypoints) == 5 and h.waypoints[0] == h.waypoints[-1] == (0.0, 0.0, 1.5)


# --------------------------------------------------------------------------
# sections changed after construction
# --------------------------------------------------------------------------

def test_scenario_problems_reports_a_negative_thrust_coefficient_set_later():
    # the hover trim took the square root of a negative number
    cfg = Config()
    cfg.params.k_t = -1.0
    assert cfg.scenario_problems() == ["VehicleParams.k_t must be finite and > 0, got -1.0"]


def test_scenario_problems_reports_a_nan_mass_set_later():
    cfg = Config()
    cfg.params.m = math.nan
    assert cfg.scenario_problems() == ["VehicleParams.m must be finite and > 0, got nan"]


def test_run_rejects_a_zero_attitude_time_constant_set_later():
    # the attitude loop divided by it
    cfg = Config()
    cfg.gains.tau_att = 0.0
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert excinfo.value.problems == ["ControllerGains.tau_att must be finite and > 0, got 0.0"]


@pytest.mark.parametrize("section, attr, message", [
    ("params", "l", "VehicleParams.l must be finite and > 0, got 'x'"),
    ("gains", "tau_att", "ControllerGains.tau_att must be finite and > 0, got 'x'"),
    ("rates", "rate_rate", "LoopRates.rate_rate must be a real number, got 'x'"),
])
def test_a_field_set_later_to_a_non_number_is_a_line_naming_it(section, attr, message):
    # each comparison used to raise TypeError out of scenario_problems
    cfg = Config()
    setattr(getattr(cfg, section), attr, "x")
    assert message in cfg.scenario_problems()
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert message in excinfo.value.problems


@pytest.mark.parametrize("section, attr, key", [
    ("harness", "duration_s", "duration_s"),
    ("harness", "star_points", "star_points"),
    ("disturbance", "gyro_noise_std", "noise_gyro"),
    ("harness", "physics_rate_hz", "physics_rate_hz"),
])
def test_a_keyed_field_set_later_to_a_non_number_is_a_line_naming_its_key(section, attr, key):
    # each comparison with a number used to raise TypeError out of scenario_problems
    cfg = Config()
    setattr(getattr(cfg, section), attr, "x")
    assert cfg.scenario_problems() == [f"{key}: must be a real number, got 'x'"]
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert excinfo.value.problems == [f"{key}: must be a real number, got 'x'"]


@pytest.mark.parametrize("attr, value, line", [
    ("waypoints", "x", "waypoints: must be a tuple of x,y,z tuples of real numbers, got 'x'"),
    ("hover_pos", 5.0, "hover_x: hover_pos must be a tuple of 3 numbers, got 5.0"),
    ("start_offset", [1.0],
     "start_offset_y: start_offset must be a tuple of 3 numbers, got [1.0]"),
    ("circle_center", None, "circle_z: circle_center must be a tuple of 3 numbers, got None"),
], ids=["waypoints", "hover_pos", "start_offset", "circle_center"])
def test_a_vector_field_set_later_to_a_non_array_is_a_line_naming_its_key(attr, value, line):
    # reading the field as an array used to raise out of scenario_problems
    cfg = Config()
    setattr(cfg.harness, attr, value)
    assert line in cfg.scenario_problems()
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert line in excinfo.value.problems


def test_a_harness_vector_given_as_an_array_is_a_line_for_each_of_its_keys():
    # vectors are stored as tuples, and HarnessSettings converts nothing
    cfg = Config(harness=HarnessSettings(hover_pos=np.array([0.0, 0.0, 1.5])))
    assert [p.split(":")[0] for p in cfg.scenario_problems()] == ["hover_x", "hover_y", "hover_z"]


@pytest.mark.parametrize("attr, value, line", [
    ("hover_pos", 5.0, "hover_x: hover_pos must be a tuple of 3 numbers, got 5.0"),
    ("start_offset", [1.0],
     "start_offset_x: start_offset must be a tuple of 3 numbers, got [1.0]"),
    ("circle_center", None, "circle_x: circle_center must be a tuple of 3 numbers, got None"),
], ids=["hover_pos", "start_offset", "circle_center"])
def test_to_text_of_a_vector_field_set_later_to_a_non_array_is_a_config_error(attr, value, line):
    # indexing the field used to raise TypeError out of to_text
    cfg = Config()
    setattr(cfg.harness, attr, value)
    with pytest.raises(ConfigError) as excinfo:
        cfg.to_text()
    assert excinfo.value.problems == [line]
    assert line in cfg.scenario_problems()


@pytest.mark.parametrize("value, line", [
    (None, "waypoints: must be a tuple of x,y,z tuples of real numbers, got None"),
    ([[1, 2, 3]], "waypoints: must be a tuple of x,y,z tuples of real numbers, got [[1, 2, 3]]"),
    ("x", "waypoints: must be a tuple of x,y,z tuples of real numbers, got 'x'"),
    (5.0, "waypoints: must be a tuple of x,y,z tuples of real numbers, got 5.0"),
    (((1.0, 2.0, 3.0),), "waypoints: need at least two x,y,z triples"),
], ids=["None", "list", "str", "float", "one-triple"])
def test_to_text_of_waypoints_set_later_to_a_non_array_is_a_config_error(value, line):
    # None and the list used to raise TypeError out of to_text, while the
    # string and the float were written out as "waypoints = x" and "= 5"
    cfg = Config()
    cfg.harness.waypoints = value
    with pytest.raises(ConfigError) as excinfo:
        cfg.to_text()
    assert excinfo.value.problems == [line]
    assert line in cfg.scenario_problems()


POSITION_KEYS = tuple(key for key, spec in _KEYS.items() if spec.domain == POSITION)


def test_every_position_key_declares_the_position_domain():
    assert POSITION_KEYS == tuple(
        f"{name}_{axis}" for name in ("start_offset", "hover", "circle", "star")
        for axis in "xyz"
    )


@pytest.mark.parametrize("key", POSITION_KEYS)
def test_a_position_the_float_loop_cannot_move_is_rejected(key):
    # hover_z = 1e308 used to run with z frozen, and metrics overflowed
    for text in ("1e308", "-1.000001e6", "inf"):
        with pytest.raises(ConfigError) as excinfo:
            apply_overrides(Config(), {key: text})
        assert excinfo.value.problems == [
            f"{key}: must be finite and at most 1e+06 m from 0, got {float(text)}"
        ]
    for text in ("1e6", "-1e6"):
        apply_overrides(Config(), {key: text})


@pytest.mark.parametrize("key", ["circle_radius_m", "star_radius_m"])
def test_a_radius_the_float_loop_cannot_move_is_rejected(key):
    # circle_radius_m = 1e308 used to run, and the metrics raised numpy
    # RuntimeWarnings on reference positions near 1e308
    assert _KEYS[key].domain == RADIUS
    for text in ("1e308", "1.000001e6", "inf", "0", "-1.5"):
        with pytest.raises(ConfigError) as excinfo:
            apply_overrides(Config(), {key: text})
        assert excinfo.value.problems == [
            f"{key}: must be > 0 and at most 1e+06 m, got {float(text)}"
        ]
    for text in ("1e6", "1e-300"):
        apply_overrides(Config(), {key: text})


def test_a_waypoint_coordinate_the_float_loop_cannot_move_is_rejected():
    line = "waypoints: every coordinate must be finite and at most 1e+06 m from 0"
    for text in ("0,0,1.5; 1e308,0,1.5", "0,0,1.5; 0,0,-1.000001e6", "0,0,nan; 1,1,1.5"):
        with pytest.raises(ConfigError) as excinfo:
            apply_overrides(Config(), {"waypoints": text})
        assert excinfo.value.problems == [line]
    apply_overrides(Config(), {"scenario": "waypoint", "waypoints": "0,0,1.5; 1e6,-1e6,1.5"})


def test_a_fractional_physics_rate_set_later_is_named_once():
    # the divisibility of the other rates by it is not checked
    cfg = Config()
    cfg.harness.physics_rate_hz = 2000.5
    assert cfg.scenario_problems() == ["physics_rate_hz: must be a whole number of Hz >= 1, "
                                       "got 2000.5"]


def test_run_rejects_a_position_rate_set_later_that_does_not_divide_the_rate_loop():
    cfg = Config()
    cfg.rates.position_rate = 3
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert excinfo.value.problems == [
        "LoopRates.position_rate: 3 Hz must divide LoopRates.rate_rate 500 Hz evenly"
    ]


# --------------------------------------------------------------------------
# the validation contract: every config validates or is a ConfigError
# --------------------------------------------------------------------------

# 10**400, an integer past the largest float, can only be set in place: a
# file's float(raw) caps it at inf
EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1, 1e308, -1e308, 5e-324, 1e-300,
               3, 1e6, 10**400)
EDGE_TEXTS = ("nan", "inf", "-inf", "0", "-0", "-1", "1e308", "-1e308", "5e-324", "1e-300",
              "3", "1e6")
DOMAIN_KEYS = tuple(key for key, spec in _KEYS.items() if spec.domain is not None)
RATE_KEYS = tuple(key for key in CANONICAL_KEYS if key.endswith("_rate_hz"))
# every number but the seed must have a float
NUMBER_KEYS = tuple(key for key, spec in _KEYS.items()
                    if spec.kind in ("float", "int") and key != "seed")
CONTRACT = settings(derandomize=True, deadline=None, max_examples=120)
# each property also draws the scenario, so that every scenario's cross-key
# rules (the orbit angle, the zero-length path) meet the edge values; a
# drawn "scenario" key may still replace it with an edge value
SCENARIOS = st.sampled_from(SCENARIO_KINDS)


def set_directly(cfg, key, value):
    """Store ``value`` at ``key``'s attribute, past every constructor check."""
    spec = _KEYS[key]
    if spec.kind == "vec3list":  # every coordinate of every waypoint
        value = tuple((value, value, value) for _ in spec.get(key, cfg))
    spec.set(cfg, value)


def in_domain(domain, value) -> bool:
    if isinstance(domain, tuple):
        return value in domain
    if isinstance(domain, range):
        return type(value) is int and domain.start <= value < domain.stop
    if domain == POSITION:
        return -MAX_POSITION_M <= value <= MAX_POSITION_M
    if domain == RADIUS:
        return 0 < value <= MAX_POSITION_M
    if domain == WHOLE_HZ:
        return type(value) is int and value >= 1
    lower = {FINITE: -math.inf < value, NONNEGATIVE: 0 <= value, POSITIVE: 0 < value}[domain]
    return lower and value < math.inf


def edge_id(value):
    return "10**400" if value == 10**400 else repr(value)


def test_only_harness_and_disturbance_keys_declare_a_domain():
    # the vehicle, gain and loop-rate keys are checked by their sections
    assert len(DOMAIN_KEYS) == 42
    assert {_KEYS[key].section for key in DOMAIN_KEYS} == {"disturbance", "harness"}
    keyed = {key for key, spec in _KEYS.items() if spec.section in ("disturbance", "harness")}
    assert keyed - set(DOMAIN_KEYS) == {"seed", "waypoints"}


@pytest.mark.parametrize("key, value, message", [
    ("circle_radius_m", math.nan, "circle_radius_m: must be > 0 and at most 1e+06 m, got nan"),
    ("scenario", "x", "scenario: must be one of ('hover', 'waypoint', 'circle', 'star'), got 'x'"),
    ("noise_gyro", -1.0, "noise_gyro: must be finite and >= 0, got -1.0"),
    ("dist_torque_y", -math.inf, "dist_torque_y: must be finite, got -inf"),
    ("star_points", 2, "star_points: must be >= 3, got 2"),
    ("star_points", math.nan, "star_points: must be >= 3, got nan"),
    ("star_points", 1e6, "star_points: must be an integer, got 1000000.0"),
    ("star_points", 1001, "star_points: must be <= 1000, got 1001"),
])
def test_declared_domain_messages(key, value, message):
    cfg = Config()
    set_directly(cfg, key, value)
    assert cfg.scenario_problems() == [message]


@CONTRACT
@given(st.dictionaries(st.sampled_from(CANONICAL_KEYS),
                       st.sampled_from((None,) + EDGE_TEXTS), max_size=6), SCENARIOS)
@example({"circle_speed_mps": "1e308", "circle_radius_m": "1e-300"}, "circle")
def test_full_dump_with_edge_values_validates_or_raises_config_error(overrides, scenario):
    # None keeps the key's default
    pairs = parse_pairs(Config().to_text())
    pairs["scenario"] = scenario
    pairs.update({key: text for key, text in overrides.items() if text is not None})
    text = "".join(f"{key} = {value}\n" for key, value in pairs.items())
    try:
        validate_text(text)
    except ConfigError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)


@CONTRACT
@given(st.dictionaries(st.sampled_from(CANONICAL_KEYS), st.sampled_from(EDGE_VALUES),
                       min_size=1, max_size=4), SCENARIOS)
@example({"k_t": -1}, "hover")
@example({"waypoints": 3}, "waypoint")
def test_scenario_problems_never_raises_on_edge_values_set_directly(values, scenario):
    assert_problems_are_lines(values, scenario)


def assert_problems_are_lines(values, scenario):
    cfg = Config()
    cfg.harness.scenario = scenario
    for key, value in values.items():
        set_directly(cfg, key, value)
    problems = cfg.scenario_problems()
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)


@CONTRACT
@given(st.dictionaries(st.sampled_from(RATE_KEYS), st.sampled_from(EDGE_VALUES),
                       min_size=1, max_size=4), SCENARIOS)
@example({"physics_rate_hz": 10**400}, "hover")
@example({"logging_rate_hz": 10**400, "duration_s": 1e308}, "hover")
def test_scenario_problems_never_raises_on_rate_edge_values_set_directly(values, scenario):
    assert_problems_are_lines(values, scenario)


@pytest.mark.parametrize("key", ["physics_rate_hz", "logging_rate_hz"])
def test_a_rate_past_float_range_is_a_problem_naming_its_key(key):
    cfg = Config()
    set_directly(cfg, key, 10**400)
    assert f"{key}: {10**400} Hz is beyond float range" in cfg.scenario_problems()


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["10**400", "-10**400"])
@pytest.mark.parametrize("scenario", SCENARIO_KINDS)
def test_every_number_past_float_range_is_a_problem_naming_its_key(scenario, value):
    for key in NUMBER_KEYS:
        cfg = Config()
        cfg.harness.scenario = scenario
        set_directly(cfg, key, value)
        unit = " Hz" if key.endswith("_hz") else ""
        assert f"{key}: {value}{unit} is beyond float range" in cfg.scenario_problems(), key


def test_a_seed_past_float_range_is_a_seed():
    cfg = Config()
    cfg.disturbance.seed = 10**400
    assert cfg.scenario_problems() == []


@pytest.mark.parametrize("section, attr, key", [
    ("params", "m", "m"),
    ("gains", "tau_p_xy", "tau_p_xy"),
    ("gains", "k_i_omega_z", "K_I_omega_z"),
    ("harness", "transient_window_s", "transient_window_s"),
    ("harness", "yaw_fixed_rad", "yaw_fixed_rad"),
    ("harness", "circle_speed_mps", "circle_speed_mps"),
    ("harness", "duration_s", "duration_s"),
])
def test_a_run_rejects_a_number_past_float_range_set_later(section, attr, key):
    # each raised OverflowError, in validation or inside the run
    cfg = Config()
    cfg.harness.scenario = "circle"
    setattr(getattr(cfg, section), attr, 10**400)
    with pytest.raises(ConfigError) as excinfo:
        run_scenario(cfg)
    assert excinfo.value.problems == [f"{key}: {10**400} is beyond float range"]


@CONTRACT
@given(st.dictionaries(st.sampled_from(DOMAIN_KEYS), st.sampled_from(EDGE_VALUES),
                       min_size=1, max_size=4), SCENARIOS)
@example({"star_points": math.nan}, "star")
def test_every_value_outside_a_declared_domain_names_its_key(values, scenario):
    cfg = Config()
    cfg.harness.scenario = scenario
    for key, value in values.items():
        set_directly(cfg, key, value)
    problems = cfg.scenario_problems()
    for key in values:
        stored = _KEYS[key].get(key, cfg)
        if not in_domain(_KEYS[key].domain, stored):
            assert any(p.startswith(f"{key}:") for p in problems), (key, stored, problems)


@pytest.mark.parametrize("value", EDGE_VALUES, ids=edge_id)
def test_scenario_problems_never_raises_on_any_key_at_an_edge_value(value):
    for key in CANONICAL_KEYS:
        cfg = Config()
        set_directly(cfg, key, value)
        problems = cfg.scenario_problems()
        assert all(isinstance(p, str) for p in problems), key


@pytest.mark.parametrize("value", EDGE_VALUES, ids=edge_id)
def test_any_key_outside_its_declared_domain_names_itself(value):
    for key in DOMAIN_KEYS:
        cfg = Config()
        set_directly(cfg, key, value)
        stored = _KEYS[key].get(key, cfg)
        if not in_domain(_KEYS[key].domain, stored):
            assert any(p.startswith(f"{key}:") for p in cfg.scenario_problems()), key


@CONTRACT
@given(st.dictionaries(st.sampled_from(CANONICAL_KEYS), st.sampled_from(EDGE_TEXTS),
                       min_size=1, max_size=4), SCENARIOS)
@example({"m": "-1", "l": "-2"}, "hover")
@example({"circle_speed_mps": "1e308", "circle_radius_m": "5e-324"}, "circle")
@example({"waypoints": "1,1,1; 1,1,1"}, "waypoint")
def test_a_file_is_checked_exactly_as_a_config_changed_in_place(pairs, scenario):
    pairs = {"scenario": scenario, **pairs}
    try:
        values = {key: _KEYS[key].parse(text) for key, text in pairs.items()}
    except ValueError:
        assume(False)
    cfg = Config()
    for key, value in values.items():
        _KEYS[key].set(cfg, value)
    expected = cfg.scenario_problems()
    try:
        apply_overrides(Config(), pairs)
    except ConfigError as exc:
        assert exc.problems == expected
    else:
        assert expected == []


@pytest.mark.parametrize("pairs, lines", [
    ({"m": "-1", "l": "-2"}, ["VehicleParams.m must be finite and > 0, got -1.0",
                              "VehicleParams.l must be finite and > 0, got -2.0"]),
    ({"noise_gyro": "-1"}, ["noise_gyro: must be finite and >= 0, got -1.0"]),
    ({"noise_gyro": "-1", "noise_accel": "-1"}, ["noise_gyro: must be finite and >= 0, got -1.0",
                                                 "noise_accel: must be finite and >= 0, got -1.0"]),
    ({"dist_force_x": "nan", "dist_torque_y": "inf"}, ["dist_force_x: must be finite, got nan",
                                                       "dist_torque_y: must be finite, got inf"]),
], ids=["two-vehicle-constants", "one-noise-level", "two-noise-levels", "two-offsets"])
def test_a_file_reports_every_bad_value_of_a_section_by_its_key(pairs, lines):
    # each section's constructor used to report only its first problem, and
    # the disturbance section's without the key or the value
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), pairs)
    assert excinfo.value.problems == lines


def test_apply_overrides_leaves_its_base_unchanged():
    base = Config()
    before = base.to_text()
    cfg = apply_overrides(base, {"m": "0.7", "dist_force_y": "0.5", "hover_z": "2.5",
                                 "waypoints": "0,0,1; 1,1,1"})
    assert base.to_text() == before
    assert cfg.disturbance.force_offset_world == (0.1, 0.5, 0.03)
    with pytest.raises(ConfigError):
        apply_overrides(base, {"dist_force_x": "nan", "noise_gyro": "-1", "star_x": "inf"})
    assert base.to_text() == before


@pytest.mark.parametrize("attr, value, key, line", [
    ("hover_pos", None, "hover_x", "hover_x: hover_pos must be a tuple of 3 numbers, got None"),
    ("start_offset", np.zeros(2), "start_offset_z",
     "start_offset_z: start_offset must be a tuple of 3 numbers, got array([0., 0.])"),
    ("circle_center", [0.0, 0.0, 1.5], "circle_y",
     "circle_y: circle_center must be a tuple of 3 numbers, got [0.0, 0.0, 1.5]"),
], ids=["None", "two-vector", "list"])
def test_an_override_on_a_base_vector_that_is_not_an_array_of_3_is_a_config_error(
        attr, value, key, line):
    # None and the 2-vector used to raise IndexError out of _Key.set, and the
    # list was turned into an array that the base itself is rejected without
    base = Config()
    setattr(base.harness, attr, value)
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(base, {key: "1"})
    assert excinfo.value.problems == base.scenario_problems()
    assert line in excinfo.value.problems
    assert getattr(base.harness, attr) is value


def test_an_override_on_a_base_vector_of_strings_is_a_config_error():
    # the float copy of the vector used to raise ValueError out of _Key.set
    base = Config()
    base.harness.hover_pos = np.array(["a", "b", "c"])
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(base, {"hover_x": "1"})
    assert [p.split(":")[0] for p in excinfo.value.problems] == ["hover_x", "hover_y", "hover_z"]


def test_a_rate_loop_below_one_hertz_is_one_line():
    # the harness-rate loop used to repeat LoopRates' line for rate_rate
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), {"rate_rate_hz": "5e-324"})
    assert excinfo.value.problems == [
        "rate_rate_hz: invalid value '5e-324' (expected an integer, got '5e-324')"
    ]
    cfg = Config()
    cfg.rates.rate_rate = 0
    assert cfg.scenario_problems() == [
        "LoopRates.rate_rate must be a whole number of Hz >= 1, got 0"
    ]


def test_a_rate_loop_that_does_not_divide_the_physics_rate_is_named():
    cfg = Config()
    cfg.rates.rate_rate = 300
    cfg.rates.attitude_rate = 150
    cfg.rates.position_rate = 50
    assert cfg.scenario_problems() == [
        "rate_rate_hz: 300 Hz must divide physics_rate_hz 2000 Hz evenly"
    ]


ORBIT = {"circle_speed_mps": "1e8", "circle_radius_m": "1e-300", "duration_s": "6"}


@pytest.mark.parametrize("speed", ["1e8", "1e30"])
def test_an_orbit_angle_that_overflows_is_rejected(speed):
    # at 1e8 the run ended in math.cos's ValueError, at 1e30 in an unkeyed
    # "setpoint must be finite"
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), {**ORBIT, "scenario": "circle", "circle_speed_mps": speed})
    assert excinfo.value.problems == [
        f"circle_speed_mps, circle_radius_m: {float(speed)} m/s on 1e-300 m overflows "
        "the orbit angle within duration_s 6.0 s"
    ]
    apply_overrides(Config(), {**ORBIT, "scenario": "hover", "circle_speed_mps": speed})


def test_the_largest_finite_orbit_angle_validates():
    # 1e8 / 1e-300 = 1e308 rad/s, and 1e308 * 1.7 is still finite
    apply_overrides(Config(), {**ORBIT, "scenario": "circle", "duration_s": "1.7"})


@pytest.mark.parametrize("duration", ["1e300", repr(MAX_LOG_ROWS / 100 + 0.01)])
def test_a_log_too_large_to_allocate_is_rejected(duration):
    # duration_s = 1e300 used to end in numpy's "Maximum allowed size exceeded"
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(Config(), {"duration_s": duration, "logging_rate_hz": "100"})
    assert excinfo.value.problems == [
        f"duration_s: {float(duration)} s at logging_rate_hz 100 Hz would log more than "
        "10000000 rows"
    ]
    bound = repr(MAX_LOG_ROWS / 100)
    assert apply_overrides(Config(), {"duration_s": bound}).harness.duration_s == 1e5
