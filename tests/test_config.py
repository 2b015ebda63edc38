"""Flat key=value configuration: parsing, overrides, strict validation."""

import numpy as np
import pytest

from tailsim.config import (
    CANONICAL_KEYS,
    MAX_HOVER_SPEED_FRACTION,
    Config,
    apply_overrides,
    load_config,
    parse_pairs,
    validate_file,
    validate_text,
)
from tailsim.errors import ConfigError


def test_default_round_trip_through_text():
    cfg = Config()
    restored = validate_text(cfg.to_text())
    assert restored.params == cfg.params
    assert restored.gains == cfg.gains
    assert restored.rates == cfg.rates
    assert np.array_equal(
        restored.disturbance.force_offset_world, cfg.disturbance.force_offset_world
    )
    # harness settings hold arrays, so compare the serialised form
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
    assert np.allclose(cfg.disturbance.force_offset_world, [0.2, 0.02, 0.03])
    assert cfg.harness.hover_pos[2] == 2.5
    assert np.allclose(cfg.harness.waypoints, [[0, 0, 1], [4, 0, 1], [4, 4, 1]])
    assert cfg.disturbance.seed == 11


def test_apply_overrides_collects_all_problems_at_once():
    with pytest.raises(ConfigError) as excinfo:
        apply_overrides(
            Config(),
            {
                "no_such_key": "1",          # unknown key
                "m": "heavy",                # unparsable float
                "k_t": "-1e-6",              # fails dataclass validation
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
    cfg.disturbance.force_offset_world[1] = float("inf")
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
    assert np.allclose(h.hover_pos, [0.0, 0.0, 1.5])
    assert len(h.waypoints) == 5 and np.allclose(h.waypoints[0], h.waypoints[-1])
