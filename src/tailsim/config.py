"""Flat key=value configuration covering vehicle, controller, and harness.

A configuration file is plain text: one ``key = value`` pair per line,
``#`` comments, blank lines ignored.  Keys are the physical parameter
names (``m``, ``l``, ``J_xx``, ``k_t``, ...), the controller gain names
(``tau_p_xy``, ``tau_att``, ``K_I_omega_x``, ...), and harness keys
(loop/sensor rates, scenario selection and geometry, disturbance and
noise levels, seed).  Every key ships with a default, so a file passed
to a run acts as a set of overrides; strict validation additionally
demands that every canonical key is present and reports *all* problems
at once.

Vector values (``waypoints``) are written as semicolon-separated
``x,y,z`` triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import ControllerGains, LoopRates
from .errors import ConfigError, DomainError
from .model import VehicleParams
from .sim import MAX_PHYSICS_DT, DisturbanceSpec

SCENARIO_KINDS = ("hover", "waypoint", "circle", "star")
ESTIMATOR_KINDS = ("perfect", "complementary")
YAW_MODES = ("fixed", "tangent")

# Shorter path legs are dropped; a path needs at least one longer leg.
MIN_LEG_LENGTH_M = 1e-12

# Hover trim may use at most this fraction of omega_max, so that thrust is
# left to climb and manoeuvre (the default vehicle trims at 0.81).
MAX_HOVER_SPEED_FRACTION = 0.9

_DEFAULT_WAYPOINTS = (
    (0.0, 0.0, 1.5),
    (10.0, 0.0, 1.5),
    (10.0, 10.0, 1.5),
    (0.0, 10.0, 1.5),
    (0.0, 0.0, 1.5),
)


@dataclass
class HarnessSettings:
    """Scenario selection, execution rates, and run bookkeeping."""

    scenario: str = "hover"
    duration_s: float = 60.0
    physics_rate_hz: int = 2000
    imu_rate_hz: int = 1000
    pose_rate_hz: int = 100
    logging_rate_hz: int = 100
    imu_cutoff_hz: float = 20.0
    estimator: str = "perfect"
    transient_window_s: float = 5.0
    start_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    hover_pos: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.5]))
    waypoints: np.ndarray = field(
        default_factory=lambda: np.array(_DEFAULT_WAYPOINTS)
    )
    waypoint_speed_mps: float = 1.25
    waypoint_accel_mps2: float = 0.2
    waypoint_dwell_s: float = 3.0
    circle_center: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.5]))
    circle_radius_m: float = 1.5
    circle_speed_mps: float = 1.5
    star_center: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.5]))
    star_points: int = 5
    star_radius_m: float = 1.5
    star_speed_mps: float = 1.25
    star_accel_mps2: float = 0.625
    yaw_mode: str = "tangent"
    yaw_fixed_rad: float = 0.0

    def __post_init__(self) -> None:
        self.start_offset = np.asarray(self.start_offset, dtype=float)
        self.hover_pos = np.asarray(self.hover_pos, dtype=float)
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        self.circle_center = np.asarray(self.circle_center, dtype=float)
        self.star_center = np.asarray(self.star_center, dtype=float)


@dataclass
class Config:
    """Complete run configuration: vehicle, gains, rates, disturbances, harness."""

    params: VehicleParams = field(default_factory=VehicleParams)
    gains: ControllerGains = field(default_factory=ControllerGains)
    rates: LoopRates = field(default_factory=LoopRates)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    harness: HarnessSettings = field(default_factory=HarnessSettings)

    def to_text(self) -> str:
        """Serialize every canonical key (a full, round-trippable file)."""
        lines = ["# tailsim configuration (all keys)"]
        section = None
        for key, spec in _KEYS.items():
            if spec.section != section:
                section = spec.section
                lines.append(f"\n# --- {section} ---")
            lines.append(f"{key} = {_format_value(spec.get(self))}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_text())

    def scenario_problems(self) -> list[str]:
        """Cross-field consistency problems (empty when the config is sound)."""
        problems: list[str] = []
        h = self.harness
        if h.scenario not in SCENARIO_KINDS:
            problems.append(f"scenario: must be one of {SCENARIO_KINDS}, got {h.scenario!r}")
        if h.estimator not in ESTIMATOR_KINDS:
            problems.append(f"estimator: must be one of {ESTIMATOR_KINDS}, got {h.estimator!r}")
        if h.yaw_mode not in YAW_MODES:
            problems.append(f"yaw_mode: must be one of {YAW_MODES}, got {h.yaw_mode!r}")
        if not 0 < h.duration_s < math.inf:
            problems.append(f"duration_s: must be finite and > 0, got {h.duration_s}")
        if not 0 <= h.transient_window_s < math.inf:
            problems.append(
                f"transient_window_s: must be finite and >= 0, got {h.transient_window_s}"
            )
        if h.physics_rate_hz <= 0:
            problems.append(f"physics_rate_hz: must be > 0, got {h.physics_rate_hz}")
        else:
            if 1.0 / h.physics_rate_hz > MAX_PHYSICS_DT + 1e-12:
                problems.append(
                    f"physics_rate_hz: step {1.0 / h.physics_rate_hz:g} s exceeds the "
                    f"{MAX_PHYSICS_DT:g} s integration limit"
                )
            for name, rate in (
                ("imu_rate_hz", h.imu_rate_hz),
                ("pose_rate_hz", h.pose_rate_hz),
                ("logging_rate_hz", h.logging_rate_hz),
                ("rate_loop (rate_rate_hz)", self.rates.rate_rate),
            ):
                if rate <= 0:
                    problems.append(f"{name}: must be > 0, got {rate}")
                elif h.physics_rate_hz % int(round(rate)) != 0:
                    problems.append(
                        f"{name}: {rate:g} Hz must divide physics_rate_hz "
                        f"{h.physics_rate_hz} Hz evenly"
                    )
        if not 0 < h.imu_cutoff_hz < math.inf:
            problems.append(f"imu_cutoff_hz: must be finite and > 0, got {h.imu_cutoff_hz}")
        for name, value in (
            ("waypoint_speed_mps", h.waypoint_speed_mps),
            ("waypoint_accel_mps2", h.waypoint_accel_mps2),
            ("circle_radius_m", h.circle_radius_m),
            ("circle_speed_mps", h.circle_speed_mps),
            ("star_radius_m", h.star_radius_m),
            ("star_speed_mps", h.star_speed_mps),
            ("star_accel_mps2", h.star_accel_mps2),
        ):
            if not 0 < value < math.inf:
                problems.append(f"{name}: must be finite and > 0, got {value}")
        if h.star_points < 3:
            problems.append(f"star_points: must be >= 3, got {h.star_points}")
        if not 0 <= h.waypoint_dwell_s < math.inf:
            problems.append(f"waypoint_dwell_s: must be finite and >= 0, got {h.waypoint_dwell_s}")
        if not math.isfinite(h.yaw_fixed_rad):
            problems.append(f"yaw_fixed_rad: must be finite, got {h.yaw_fixed_rad}")
        for prefix, point in (
            ("start_offset_", h.start_offset),
            ("hover_", h.hover_pos),
            ("circle_", h.circle_center),
            ("star_", h.star_center),
        ):
            for axis, value in zip("xyz", point):
                if not math.isfinite(value):
                    problems.append(f"{prefix}{axis}: must be finite, got {value}")
        if h.waypoints.ndim != 2 or h.waypoints.shape[0] < 2 or h.waypoints.shape[1] != 3:
            problems.append("waypoints: need at least two x,y,z triples")
        elif not np.isfinite(h.waypoints).all():
            problems.append("waypoints: every coordinate must be finite")
        elif h.scenario == "waypoint" and all(
            np.linalg.norm(b - a) < MIN_LEG_LENGTH_M
            for a, b in zip(h.waypoints[:-1], h.waypoints[1:])
        ):
            problems.append("waypoints: the path has no leg of nonzero length")
        hover_speed = self.params.hover_rotor_speed()
        if hover_speed > MAX_HOVER_SPEED_FRACTION * self.params.omega_max:
            problems.append(
                f"omega_max: hover needs a rotor speed of {hover_speed:.6g} rad/s, "
                f"above {MAX_HOVER_SPEED_FRACTION:g} of the {self.params.omega_max:g} "
                "rad/s ceiling, which leaves too little thrust to manoeuvre"
            )
        if self.disturbance.seed < 0:
            problems.append(f"seed: must be >= 0, got {self.disturbance.seed}")
        for name, sigma in (
            ("noise_gyro", self.disturbance.gyro_noise_std),
            ("noise_accel", self.disturbance.accel_noise_std),
            ("noise_pose_pos", self.disturbance.pose_pos_noise_std),
            ("noise_pose_att", self.disturbance.pose_att_noise_std),
        ):
            if not 0 <= sigma < math.inf:
                problems.append(f"{name}: must be finite and >= 0, got {sigma}")
        for name, offset in (
            ("dist_force", self.disturbance.force_offset_world),
            ("dist_torque", self.disturbance.torque_offset_body),
        ):
            for axis, value in zip("xyz", offset):
                if not math.isfinite(value):
                    problems.append(f"{name}_{axis}: must be finite, got {value}")
        return problems


class _Key:
    """One canonical configuration key bound to a config attribute."""

    def __init__(self, section: str, attr: str, kind: str = "float", index: int | None = None):
        self.section = section
        self.attr = attr
        self.kind = kind
        self.index = index

    def get(self, cfg: Config):
        value = getattr(getattr(cfg, self.section), self.attr)
        if self.index is not None:
            return value[self.index]
        return value

    def parse(self, raw: str):
        raw = raw.strip()
        if self.kind == "float":
            return float(raw)
        if self.kind == "int":
            value = float(raw)
            if not math.isfinite(value) or value != int(value):
                raise ValueError(f"expected an integer, got {raw!r}")
            return int(value)
        if self.kind == "str":
            return raw
        if self.kind == "vec3list":
            triples = []
            for chunk in raw.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                parts = [float(p) for p in chunk.split(",")]
                if len(parts) != 3:
                    raise ValueError(f"expected x,y,z triple, got {chunk!r}")
                triples.append(parts)
            if not triples:
                raise ValueError("expected at least one x,y,z triple")
            return np.array(triples)
        raise AssertionError(f"unknown kind {self.kind}")


_KEYS: dict[str, _Key] = {
    # vehicle
    "m": _Key("params", "m"),
    "l": _Key("params", "l"),
    "b": _Key("params", "b"),
    "J_xx": _Key("params", "j_xx"),
    "J_yy": _Key("params", "j_yy"),
    "J_zz": _Key("params", "j_zz"),
    "k_t": _Key("params", "k_t"),
    "k_m": _Key("params", "k_m"),
    "k_l": _Key("params", "k_l"),
    "k_d": _Key("params", "k_d"),
    "k_p": _Key("params", "k_p"),
    "omega_max": _Key("params", "omega_max"),
    "delta_max": _Key("params", "delta_max"),
    "g_mag": _Key("params", "g_mag"),
    "tau_motor": _Key("params", "tau_motor"),
    "tau_servo": _Key("params", "tau_servo"),
    # controller gains
    "tau_p_xy": _Key("gains", "tau_p_xy"),
    "tau_p_z": _Key("gains", "tau_p_z"),
    "zeta_p_xy": _Key("gains", "zeta_p_xy"),
    "zeta_p_z": _Key("gains", "zeta_p_z"),
    "tau_att": _Key("gains", "tau_att"),
    "tau_omega_x": _Key("gains", "tau_omega_x"),
    "tau_omega_y": _Key("gains", "tau_omega_y"),
    "tau_omega_z": _Key("gains", "tau_omega_z"),
    "K_I_omega_x": _Key("gains", "k_i_omega_x"),
    "K_I_omega_y": _Key("gains", "k_i_omega_y"),
    "K_I_omega_z": _Key("gains", "k_i_omega_z"),
    # loop rates
    "position_rate_hz": _Key("rates", "position_rate"),
    "attitude_rate_hz": _Key("rates", "attitude_rate"),
    "rate_rate_hz": _Key("rates", "rate_rate"),
    # disturbance / noise
    "dist_force_x": _Key("disturbance", "force_offset_world", index=0),
    "dist_force_y": _Key("disturbance", "force_offset_world", index=1),
    "dist_force_z": _Key("disturbance", "force_offset_world", index=2),
    "dist_torque_x": _Key("disturbance", "torque_offset_body", index=0),
    "dist_torque_y": _Key("disturbance", "torque_offset_body", index=1),
    "dist_torque_z": _Key("disturbance", "torque_offset_body", index=2),
    "noise_gyro": _Key("disturbance", "gyro_noise_std"),
    "noise_accel": _Key("disturbance", "accel_noise_std"),
    "noise_pose_pos": _Key("disturbance", "pose_pos_noise_std"),
    "noise_pose_att": _Key("disturbance", "pose_att_noise_std"),
    "seed": _Key("disturbance", "seed", kind="int"),
    # harness
    "scenario": _Key("harness", "scenario", kind="str"),
    "duration_s": _Key("harness", "duration_s"),
    "physics_rate_hz": _Key("harness", "physics_rate_hz", kind="int"),
    "imu_rate_hz": _Key("harness", "imu_rate_hz", kind="int"),
    "pose_rate_hz": _Key("harness", "pose_rate_hz", kind="int"),
    "logging_rate_hz": _Key("harness", "logging_rate_hz", kind="int"),
    "imu_cutoff_hz": _Key("harness", "imu_cutoff_hz"),
    "estimator": _Key("harness", "estimator", kind="str"),
    "transient_window_s": _Key("harness", "transient_window_s"),
    "start_offset_x": _Key("harness", "start_offset", index=0),
    "start_offset_y": _Key("harness", "start_offset", index=1),
    "start_offset_z": _Key("harness", "start_offset", index=2),
    "hover_x": _Key("harness", "hover_pos", index=0),
    "hover_y": _Key("harness", "hover_pos", index=1),
    "hover_z": _Key("harness", "hover_pos", index=2),
    "waypoints": _Key("harness", "waypoints", kind="vec3list"),
    "waypoint_speed_mps": _Key("harness", "waypoint_speed_mps"),
    "waypoint_accel_mps2": _Key("harness", "waypoint_accel_mps2"),
    "waypoint_dwell_s": _Key("harness", "waypoint_dwell_s"),
    "circle_x": _Key("harness", "circle_center", index=0),
    "circle_y": _Key("harness", "circle_center", index=1),
    "circle_z": _Key("harness", "circle_center", index=2),
    "circle_radius_m": _Key("harness", "circle_radius_m"),
    "circle_speed_mps": _Key("harness", "circle_speed_mps"),
    "star_x": _Key("harness", "star_center", index=0),
    "star_y": _Key("harness", "star_center", index=1),
    "star_z": _Key("harness", "star_center", index=2),
    "star_points": _Key("harness", "star_points", kind="int"),
    "star_radius_m": _Key("harness", "star_radius_m"),
    "star_speed_mps": _Key("harness", "star_speed_mps"),
    "star_accel_mps2": _Key("harness", "star_accel_mps2"),
    "yaw_mode": _Key("harness", "yaw_mode", kind="str"),
    "yaw_fixed_rad": _Key("harness", "yaw_fixed_rad"),
}

CANONICAL_KEYS = tuple(_KEYS)


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, np.ndarray):
        return "; ".join(",".join(f"{c:.17g}" for c in row) for row in value)
    return f"{float(value):.17g}"


def parse_pairs(text: str) -> dict[str, str]:
    """Split config text into raw key/value strings.

    Raises:
        ConfigError: on lines that are not ``key = value``, comments, or
            blank, or on duplicate keys.
    """
    pairs: dict[str, str] = {}
    problems: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {line_no}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            problems.append(f"line {line_no}: duplicate key {key!r}")
            continue
        pairs[key] = raw.strip()
    if problems:
        raise ConfigError(problems)
    return pairs


def apply_overrides(base: Config, pairs: dict[str, str]) -> Config:
    """New Config with ``pairs`` applied on top of ``base``.

    All problems (unknown keys, unparsable values, violated invariants)
    are collected and raised together.

    Raises:
        ConfigError: listing every problem found.
    """
    problems: list[str] = []
    values: dict[str, object] = {}
    for key, raw in pairs.items():
        spec = _KEYS.get(key)
        if spec is None:
            problems.append(f"unknown key {key!r}")
            continue
        try:
            values[key] = spec.parse(raw)
        except ValueError as exc:
            problems.append(f"{key}: invalid value {raw!r} ({exc})")

    # regroup per section, then rebuild the typed sections so their own
    # invariant checks run
    by_section: dict[str, dict[str, object]] = {}
    for key, value in values.items():
        spec = _KEYS[key]
        by_section.setdefault(spec.section, {})[key] = value

    sections = {
        "params": base.params,
        "gains": base.gains,
        "rates": base.rates,
        "disturbance": base.disturbance,
        "harness": base.harness,
    }
    rebuilt = {}
    for section, obj in sections.items():
        updates = by_section.get(section, {})
        if not updates:
            rebuilt[section] = obj
            continue
        kwargs: dict[str, object] = {}
        vectors: dict[str, np.ndarray] = {}
        for key, value in updates.items():
            spec = _KEYS[key]
            if spec.index is None:
                kwargs[spec.attr] = value
            else:
                if spec.attr not in vectors:
                    vectors[spec.attr] = np.array(getattr(obj, spec.attr), dtype=float)
                vectors[spec.attr][spec.index] = value
        kwargs.update(vectors)
        try:
            rebuilt[section] = replace(obj, **kwargs)
        except DomainError as exc:
            problems.append(str(exc))
            rebuilt[section] = obj
    config = Config(**rebuilt)
    problems.extend(config.scenario_problems())
    if problems:
        raise ConfigError(problems)
    return config


def load_config(path, base: Config | None = None) -> Config:
    """Config from a file of overrides applied to ``base`` (or defaults)."""
    with open(path, "r") as fh:
        text = fh.read()
    return apply_overrides(base if base is not None else Config(), parse_pairs(text))


def validate_text(text: str) -> Config:
    """Strict validation: every canonical key present and every value sound.

    Returns the parsed Config on success.

    Raises:
        ConfigError: listing *all* missing keys, unknown keys, and value
            problems in one shot.
    """
    problems: list[str] = []
    try:
        pairs = parse_pairs(text)
    except ConfigError as exc:
        problems.extend(exc.problems)
        pairs = {}
    missing = [key for key in _KEYS if key not in pairs]
    problems.extend(f"missing key {key!r}" for key in missing)
    config = None
    if pairs:
        try:
            config = apply_overrides(Config(), pairs)
        except ConfigError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    assert config is not None
    return config


def validate_file(path) -> Config:
    """Strict validation of a config file; see :func:`validate_text`."""
    with open(path, "r") as fh:
        return validate_text(fh.read())
