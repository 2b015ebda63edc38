"""Flat key=value configuration covering vehicle, controller, and harness.

A configuration file is plain text: one ``key = value`` pair per line,
``#`` comments, blank lines ignored.  Keys are the physical parameter
names (``m``, ``l``, ``J_xx``, ``k_t``, ...), the controller gain names
(``tau_p_xy``, ``tau_att``, ``K_I_omega_x``, ...), and harness keys
(loop/sensor rates, scenario selection and geometry, disturbance and
noise levels, seed).  Every key ships with a default, so a file passed
to a run acts as a set of overrides.  Its values are checked exactly as a
config changed in place is (:meth:`Config.scenario_problems`), and *all*
problems are reported at once; strict validation also demands every
canonical key.

Vectors are stored as tuples of three floats; ``waypoints``, a tuple of
them, is written as semicolon-separated ``x,y,z`` triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Real

from .control import WHOLE_HZ, ControllerGains, LoopRates, divisor_problems, is_whole_hz
from .errors import ConfigError, is_integer
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

# A star of more points traces its circle (at 1000 points its legs are
# 0.72 degrees of arc apart, 19 mm on the default 1.5 m radius), while the
# vertices and legs are built in Python, about 8 us per point, before the
# first step: 1e6 points would take seconds and 1e308 would never finish.
MAX_STAR_POINTS = 1000

# A run log, round(duration_s * logging_rate_hz) rows of 53 float64 columns,
# is allocated before the first step: 10**7 rows take 4.2 GB.
MAX_LOG_ROWS = 10**7

# A position coordinate (a hover point, circle or star centre, start offset or
# waypoint) may lie at most this far from 0, and a circle or star radius may be
# at most this long.  Its ulp there is 1.2e-10 m, so a 0.5 ms step at 1 mm/s
# still moves it; at 1e308 no step does, and the state stays frozen while the
# metrics overflow.
MAX_POSITION_M = 1e6

# The number domains a key may declare, each named by its message text.
FINITE, NONNEGATIVE, POSITIVE = "finite", "finite and >= 0", "finite and > 0"
POSITION = f"finite and at most {MAX_POSITION_M:g} m from 0"
RADIUS = f"> 0 and at most {MAX_POSITION_M:g} m"
_IN_DOMAIN = {
    FINITE: lambda v: -math.inf < v < math.inf,
    NONNEGATIVE: lambda v: 0 <= v < math.inf,
    POSITIVE: lambda v: 0 < v < math.inf,
    POSITION: lambda v: abs(v) <= MAX_POSITION_M,
    RADIUS: lambda v: 0 < v <= MAX_POSITION_M,
    WHOLE_HZ: is_whole_hz,
}

# Each rate the run loop schedules, by key, and the key of the rate whose ticks
# it fires on (a pose fix comes on an IMU tick); LoopRates checks its own.
SCHEDULED_BY = {
    "imu_rate_hz": "physics_rate_hz",
    "logging_rate_hz": "physics_rate_hz",
    "rate_rate_hz": "physics_rate_hz",
    "pose_rate_hz": "imu_rate_hz",
}

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
    start_offset: tuple = (0.0, 0.0, 0.0)
    hover_pos: tuple = (0.0, 0.0, 1.5)
    waypoints: tuple = _DEFAULT_WAYPOINTS
    waypoint_speed_mps: float = 1.25
    waypoint_accel_mps2: float = 0.2
    waypoint_dwell_s: float = 3.0
    circle_center: tuple = (0.0, 0.0, 1.5)
    circle_radius_m: float = 1.5
    circle_speed_mps: float = 1.5
    star_center: tuple = (0.0, 0.0, 1.5)
    star_points: int = 5
    star_radius_m: float = 1.5
    star_speed_mps: float = 1.25
    star_accel_mps2: float = 0.625
    yaw_mode: str = "tangent"
    yaw_fixed_rad: float = 0.0


@dataclass
class Config:
    """Complete run configuration: vehicle, gains, rates, disturbances, harness."""

    params: VehicleParams = field(default_factory=VehicleParams)
    gains: ControllerGains = field(default_factory=ControllerGains)
    rates: LoopRates = field(default_factory=LoopRates)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    harness: HarnessSettings = field(default_factory=HarnessSettings)

    def to_text(self) -> str:
        """Serialize every canonical key (a full, round-trippable file).

        Raises ConfigError, with the line :meth:`scenario_problems` gives,
        when an indexed key's vector is not a tuple of 3 or ``waypoints`` is
        not a tuple of two or more triples of real numbers.
        """
        lines = ["# tailsim configuration (all keys)"]
        section = None
        for key, spec in _KEYS.items():
            if spec.section != section:
                section = spec.section
                lines.append(f"\n# --- {section} ---")
            lines.append(f"{key} = {_format_value(spec.get(key, self))}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_text())

    def scenario_problems(self) -> list[str]:
        """Every problem of the config (empty when it is sound).

        Each key's own domain is declared on its ``_KEYS`` entry, and the
        vehicle, gain and loop-rate sections check their own fields; what
        is checked here by hand relates several fields (each rate divides
        the rate that schedules it, :data:`SCHEDULED_BY`) or checks a type
        (``waypoints`` and ``seed``).
        """
        params_problems = self.params.problems()
        problems = params_problems + self.gains.problems() + self.rates.problems()
        domain_problems = {key: spec.problem(key, self)
                           for key, spec in _KEYS.items() if spec.domain is not None}
        problems += [problem for problem in domain_problems.values() if problem is not None]
        h = self.harness
        if not domain_problems["physics_rate_hz"]:
            dt = 1.0 / h.physics_rate_hz
            if dt > MAX_PHYSICS_DT + 1e-12:
                problems.append(f"physics_rate_hz: step {dt:g} s exceeds the "
                                f"{MAX_PHYSICS_DT:g} s integration limit")
        rates = {key: _KEYS[key].get(key, self) for key in ("physics_rate_hz", *SCHEDULED_BY)}
        problems += divisor_problems(rates, SCHEDULED_BY)
        rate = h.logging_rate_hz
        if not domain_problems["duration_s"] and not domain_problems["logging_rate_hz"]:
            rows = h.duration_s * rate
            if rows == math.inf or round(rows) > MAX_LOG_ROWS:
                problems.append(f"duration_s: {h.duration_s} s at logging_rate_hz {rate} Hz "
                                f"would log more than {MAX_LOG_ROWS} rows")
        orbit = ("circle_speed_mps", "circle_radius_m", "duration_s")
        if h.scenario == "circle" and not any(domain_problems[key] for key in orbit):
            # the orbit angle at the end of the run, from make_scenario's rate
            if not math.isfinite(h.circle_speed_mps / h.circle_radius_m * h.duration_s):
                problems.append(f"circle_speed_mps, circle_radius_m: {h.circle_speed_mps} m/s "
                                f"on {h.circle_radius_m} m overflows the orbit angle within "
                                f"duration_s {h.duration_s} s")
        try:
            w = _KEYS["waypoints"].get("waypoints", self)
        except ConfigError as exc:
            problems += exc.problems
        else:
            if not all(_IN_DOMAIN[POSITION](c) for point in w for c in point):
                problems.append(f"waypoints: every coordinate must be {POSITION}")
            elif h.scenario == "waypoint" and all(
                leg_length(a, b) < MIN_LEG_LENGTH_M for a, b in zip(w, w[1:])
            ):
                problems.append("waypoints: the path has no leg of nonzero length")
        if not params_problems:
            hover_speed = self.params.hover_rotor_speed()
            if hover_speed > MAX_HOVER_SPEED_FRACTION * self.params.omega_max:
                problems.append(
                    f"omega_max: hover needs a rotor speed of {hover_speed:.6g} rad/s, "
                    f"above {MAX_HOVER_SPEED_FRACTION:g} of the {self.params.omega_max:g} "
                    "rad/s ceiling, which leaves too little thrust to manoeuvre"
                )
        seed = self.disturbance.seed
        if not is_integer(seed):
            problems.append(f"seed: must be an integer, got {seed!r}")
        elif seed < 0:
            problems.append(f"seed: must be >= 0, got {seed}")
        return problems


def leg_length(a: tuple, b: tuple) -> float:
    """The length of the straight path leg from point ``a`` to point ``b``."""
    dx, dy, dz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


class _Key:
    """One canonical configuration key bound to a config attribute.

    ``domain`` declares the key's own rule, checked by
    :meth:`Config.scenario_problems`: ``FINITE``, ``NONNEGATIVE``,
    ``POSITIVE``, ``POSITION`` or ``RADIUS`` for a real number, ``WHOLE_HZ``
    for a loop rate, a tuple of the allowed strings, or a range for an
    integer within it (a non-number is named first, then the lower bound is
    checked, then the type, then the upper bound).
    None leaves the value to its section's own checks or to the rules
    that relate several keys.
    """

    def __init__(self, section: str, attr: str, kind: str = "float", index: int | None = None,
                 domain=None):
        self.section = section
        self.attr = attr
        self.kind = kind
        self.index = index
        self.domain = domain

    def get(self, key: str, cfg: Config):
        """The value of ``key`` in ``cfg``; ConfigError when it is indexed and its
        vector is not a tuple of 3, or it is a ``vec3list`` and not a tuple of
        two or more triples of real numbers."""
        value = getattr(getattr(cfg, self.section), self.attr)
        if self.kind == "vec3list":
            if not (isinstance(value, tuple) and all(
                    isinstance(point, tuple) and len(point) == 3
                    and all(isinstance(c, Real) for c in point) for point in value)):
                raise ConfigError([f"{key}: must be a tuple of x,y,z tuples of real numbers, "
                                   f"got {value!r}"])
            if len(value) < 2:
                raise ConfigError([f"{key}: need at least two x,y,z triples"])
        if self.index is None:
            return value
        if not (isinstance(value, tuple) and len(value) == 3):
            raise ConfigError([f"{key}: {self.attr} must be a tuple of 3 numbers, got {value!r}"])
        return value[self.index]

    def set(self, cfg: Config, value) -> None:
        """Store ``value`` at this key in ``cfg`` unchecked.  An indexed key stores
        a new tuple with ``value`` in its place; a vector that is not a tuple of
        3 is left as it is, for :meth:`Config.scenario_problems` to name."""
        section = getattr(cfg, self.section)
        if self.index is not None:
            vector = getattr(section, self.attr)
            if not (isinstance(vector, tuple) and len(vector) == 3):
                return
            value = vector[:self.index] + (value,) + vector[self.index + 1:]
        object.__setattr__(section, self.attr, value)

    def problem(self, key: str, cfg: Config) -> str | None:
        """The message for this key's value in ``cfg`` outside its domain, None
        inside it; an indexed key's vector must first be a tuple of 3."""
        try:
            value = self.get(key, cfg)
        except ConfigError as exc:
            return exc.problems[0]
        domain = self.domain
        if isinstance(domain, tuple):
            return None if value in domain else f"{key}: must be one of {domain}, got {value!r}"
        if not isinstance(value, Real):
            return f"{key}: must be a real number, got {value!r}"
        if isinstance(domain, range):
            if not value >= domain.start:
                return f"{key}: must be >= {domain.start}, got {value}"
            if not is_integer(value):
                return f"{key}: must be an integer, got {value!r}"
            return None if value < domain.stop else f"{key}: must be <= {domain[-1]}, got {value}"
        return None if _IN_DOMAIN[domain](value) else f"{key}: must be {domain}, got {value}"

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
                triples.append(tuple(parts))
            if not triples:
                raise ValueError("expected at least one x,y,z triple")
            return tuple(triples)
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
    "position_rate_hz": _Key("rates", "position_rate", kind="int"),
    "attitude_rate_hz": _Key("rates", "attitude_rate", kind="int"),
    "rate_rate_hz": _Key("rates", "rate_rate", kind="int"),
    # disturbance / noise
    "dist_force_x": _Key("disturbance", "force_offset_world", index=0, domain=FINITE),
    "dist_force_y": _Key("disturbance", "force_offset_world", index=1, domain=FINITE),
    "dist_force_z": _Key("disturbance", "force_offset_world", index=2, domain=FINITE),
    "dist_torque_x": _Key("disturbance", "torque_offset_body", index=0, domain=FINITE),
    "dist_torque_y": _Key("disturbance", "torque_offset_body", index=1, domain=FINITE),
    "dist_torque_z": _Key("disturbance", "torque_offset_body", index=2, domain=FINITE),
    "noise_gyro": _Key("disturbance", "gyro_noise_std", domain=NONNEGATIVE),
    "noise_accel": _Key("disturbance", "accel_noise_std", domain=NONNEGATIVE),
    "noise_pose_pos": _Key("disturbance", "pose_pos_noise_std", domain=NONNEGATIVE),
    "noise_pose_att": _Key("disturbance", "pose_att_noise_std", domain=NONNEGATIVE),
    "seed": _Key("disturbance", "seed", kind="int"),
    # harness
    "scenario": _Key("harness", "scenario", kind="str", domain=SCENARIO_KINDS),
    "duration_s": _Key("harness", "duration_s", domain=POSITIVE),
    "physics_rate_hz": _Key("harness", "physics_rate_hz", kind="int", domain=WHOLE_HZ),
    "imu_rate_hz": _Key("harness", "imu_rate_hz", kind="int", domain=WHOLE_HZ),
    "pose_rate_hz": _Key("harness", "pose_rate_hz", kind="int", domain=WHOLE_HZ),
    "logging_rate_hz": _Key("harness", "logging_rate_hz", kind="int", domain=WHOLE_HZ),
    "imu_cutoff_hz": _Key("harness", "imu_cutoff_hz", domain=POSITIVE),
    "estimator": _Key("harness", "estimator", kind="str", domain=ESTIMATOR_KINDS),
    "transient_window_s": _Key("harness", "transient_window_s", domain=NONNEGATIVE),
    "start_offset_x": _Key("harness", "start_offset", index=0, domain=POSITION),
    "start_offset_y": _Key("harness", "start_offset", index=1, domain=POSITION),
    "start_offset_z": _Key("harness", "start_offset", index=2, domain=POSITION),
    "hover_x": _Key("harness", "hover_pos", index=0, domain=POSITION),
    "hover_y": _Key("harness", "hover_pos", index=1, domain=POSITION),
    "hover_z": _Key("harness", "hover_pos", index=2, domain=POSITION),
    "waypoints": _Key("harness", "waypoints", kind="vec3list"),
    "waypoint_speed_mps": _Key("harness", "waypoint_speed_mps", domain=POSITIVE),
    "waypoint_accel_mps2": _Key("harness", "waypoint_accel_mps2", domain=POSITIVE),
    "waypoint_dwell_s": _Key("harness", "waypoint_dwell_s", domain=NONNEGATIVE),
    "circle_x": _Key("harness", "circle_center", index=0, domain=POSITION),
    "circle_y": _Key("harness", "circle_center", index=1, domain=POSITION),
    "circle_z": _Key("harness", "circle_center", index=2, domain=POSITION),
    "circle_radius_m": _Key("harness", "circle_radius_m", domain=RADIUS),
    "circle_speed_mps": _Key("harness", "circle_speed_mps", domain=POSITIVE),
    "star_x": _Key("harness", "star_center", index=0, domain=POSITION),
    "star_y": _Key("harness", "star_center", index=1, domain=POSITION),
    "star_z": _Key("harness", "star_center", index=2, domain=POSITION),
    "star_points": _Key("harness", "star_points", kind="int",
                        domain=range(3, MAX_STAR_POINTS + 1)),
    "star_radius_m": _Key("harness", "star_radius_m", domain=RADIUS),
    "star_speed_mps": _Key("harness", "star_speed_mps", domain=POSITIVE),
    "star_accel_mps2": _Key("harness", "star_accel_mps2", domain=POSITIVE),
    "yaw_mode": _Key("harness", "yaw_mode", kind="str", domain=YAW_MODES),
    "yaw_fixed_rad": _Key("harness", "yaw_fixed_rad", domain=FINITE),
}

CANONICAL_KEYS = tuple(_KEYS)


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if is_integer(value):
        return str(int(value))
    if isinstance(value, tuple):
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


def _shallow_copy(section):
    """A copy of a config section sharing its field values, made past its checks
    (copy.copy would cache ``__slotnames__`` on the class and build the instance
    dict, which makes every later attribute read about twice as slow)."""
    copy = object.__new__(type(section))
    for f in fields(section):
        object.__setattr__(copy, f.name, getattr(section, f.name))
    return copy


def apply_overrides(base: Config, pairs: dict[str, str]) -> Config:
    """New Config with ``pairs`` applied on top of ``base`` (left unchanged).

    Each parsed value is stored unchecked in a copy of its section of
    ``base``, and the result is checked by :meth:`Config.scenario_problems`,
    exactly as a config changed in place.  Unknown keys, unparsable values
    and every problem of the result are raised together.

    Raises:
        ConfigError: listing every problem found.
    """
    problems: list[str] = []
    config = Config(**{f.name: getattr(base, f.name) for f in fields(Config)})
    for key, raw in pairs.items():
        spec = _KEYS.get(key)
        if spec is None:
            problems.append(f"unknown key {key!r}")
            continue
        try:
            value = spec.parse(raw)
        except ValueError as exc:
            problems.append(f"{key}: invalid value {raw!r} ({exc})")
            continue
        section = getattr(base, spec.section)
        if getattr(config, spec.section) is section:  # the first value set in it
            setattr(config, spec.section, _shallow_copy(section))
        spec.set(config, value)
    problems.extend(config.scenario_problems())
    if problems:
        raise ConfigError(problems)
    return config


def _read_text(path) -> str:
    """A config file's text, decoded as UTF-8 whatever the locale.

    Raises:
        ConfigError: naming the line of the first byte that is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line count of parse_pairs, which splits with splitlines
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError([f"line {line_no}: not valid UTF-8"]) from None


def load_config(path, base: Config | None = None) -> Config:
    """Config from a file of overrides applied to ``base`` (or defaults)."""
    return apply_overrides(base if base is not None else Config(), parse_pairs(_read_text(path)))


def validate_text(text: str) -> Config:
    """Strict validation: every canonical key present and every value sound.

    Returns the parsed Config on success.

    Raises:
        ConfigError: listing *all* missing keys, unknown keys, and value
            problems in one shot.
    """
    try:
        pairs, problems = parse_pairs(text), []
    except ConfigError as exc:
        pairs, problems = {}, exc.problems
    problems += [f"missing key {key!r}" for key in _KEYS if key not in pairs]
    try:
        config = apply_overrides(Config(), pairs)
    except ConfigError as exc:
        problems += exc.problems
    if problems:
        raise ConfigError(problems)
    return config


def validate_file(path) -> Config:
    """Strict validation of a config file; see :func:`validate_text`."""
    return validate_text(_read_text(path))
