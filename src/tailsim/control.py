"""Cascaded flight controller for the dual-rotor tail-sitter.

Three nested loops run on one clock, the body-rate loop's tick: the
outer loops fire on every n-th tick, and each stage latches the most
recent output of the stage above it.  Each rate is whole Hz and divides
the rate of the loop that schedules it (:func:`divisor_problems`):

* position loop (default 100 Hz): world-frame PD law with velocity
  reference feedforward produces a desired total force vector,
* attitude loop (default 250 Hz): converts the desired force direction
  plus a heading reference into a desired attitude quaternion and a
  proportional body-rate command, on the float quaternion cores of
  :mod:`tailsim.rotations`,
* body-rate loop (default 500 Hz): computes a desired torque with
  gyroscopic compensation and integral action, then inverts the force
  and moment model to obtain per-rotor speeds and per-elevon angles,
  and finally inverts the first-order rotor lag (``tau_motor``) so the
  rotors reach those speeds by the end of the tick.

The model inverse linearises the plant exactly (slipstream drag aside).
The rotor lag is known and the command is held over the tick, so the
lag inversion is exact as long as nothing clips; loop tuning therefore
reduces to the time constants in :class:`ControllerGains`.  Elevon lag
is not compensated.

Every stage computes on Python floats.  :meth:`CascadeController.update`
takes the fed-back position, velocity, attitude and body rates and the
setpoint of :func:`tailsim.scenarios.reference` as tuples of floats and
a heading, and returns the clamped command as four floats.  Each control
law returns its vector output as a tuple, and :func:`clamp_command`
returns four floats and the saturation flag; only :func:`model_inverse`
builds an :class:`ActuatorCommand`, one per tick.  The laws also accept
arrays (their entries are unpacked), and numpy's elementwise arithmetic
is the same IEEE arithmetic, so the numbers do not depend on which is
passed.  Finiteness and domain checks run on the floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Real

from .errors import DegenerateThrustError, DomainError, InfeasibleRollError, is_integer
from .model import VehicleParams
from .rotations import (
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_to_rotvec,
)

# Desired-force magnitudes below this cannot define a thrust direction.
FORCE_FLOOR = 1e-3

# Fraction of the differential-thrust roll limit kept in reserve when an
# infeasible roll command is clamped.
ROLL_CLAMP_MARGIN = 0.05


@dataclass
class ControllerGains:
    """Loop time constants, damping ratios, and integral gains."""

    tau_p_xy: float = 0.5      # horizontal position loop time constant, s
    tau_p_z: float = 0.3       # vertical position loop time constant, s
    zeta_p_xy: float = 0.6     # horizontal position loop damping ratio
    zeta_p_z: float = 0.83     # vertical position loop damping ratio
    tau_att: float = 0.2       # attitude loop time constant, s
    tau_omega_x: float = 0.04  # roll rate loop time constant, s
    tau_omega_y: float = 0.11  # pitch rate loop time constant, s
    tau_omega_z: float = 0.04  # yaw rate loop time constant, s
    k_i_omega_x: float = 20.0  # roll rate integral gain, 1/s
    k_i_omega_y: float = 5.0   # pitch rate integral gain, 1/s
    k_i_omega_z: float = 0.0   # yaw rate integral gain, 1/s

    def __post_init__(self) -> None:
        problems = self.problems()
        if problems:
            raise DomainError(problems[0])

    def problems(self) -> list[str]:
        """One message per gain outside its domain (integral gains >= 0, the rest > 0)."""
        problems = []
        for name in (f.name for f in fields(self)):  # not vars(self): see VehicleParams
            value = getattr(self, name)
            real = isinstance(value, Real)
            if name.startswith("k_i_"):
                bound, sound = ">= 0", real and 0.0 <= value < math.inf
            else:
                bound, sound = "> 0", real and 0.0 < value < math.inf
            if not sound:
                problems.append(f"ControllerGains.{name} must be finite and {bound}, got {value!r}")
        return problems


# The form of every loop rate, the cascade's and the run harness's.
WHOLE_HZ = "a whole number of Hz >= 1"


def is_whole_hz(rate) -> bool:
    """Whether ``rate`` is an integer (not a float or a bool) of at least 1 Hz."""
    return is_integer(rate) and rate >= 1


def divisor_problems(rates: dict, schedule: dict) -> list[str]:
    """One line per rate in ``schedule`` (name -> its scheduler's name, both
    keys of ``rates``) that does not divide its scheduler's; a loop ticks on
    every ``base // rate``-th tick.  Rates that are not whole Hz are skipped."""
    return [f"{name}: {rates[name]} Hz must divide {base} {rates[base]} Hz evenly"
            for name, base in schedule.items()
            if is_whole_hz(rates[name]) and is_whole_hz(rates[base])
            and rates[base] % rates[name]]


@dataclass
class LoopRates:
    """Execution rates of the three cascade stages, whole Hz; the position and
    attitude rates divide the rate loop's."""

    position_rate: int = 100
    attitude_rate: int = 250
    rate_rate: int = 500

    def __post_init__(self) -> None:
        problems = self.problems()
        if problems:
            raise DomainError(problems[0])

    def problems(self) -> list[str]:
        """Every problem of the rates (empty when sound)."""
        rates = {f"LoopRates.{f.name}": getattr(self, f.name) for f in fields(self)}
        problems = [f"{name} must be a real number, got {rate!r}" if not isinstance(rate, Real)
                    else f"{name} must be {WHOLE_HZ}, got {rate}"
                    for name, rate in rates.items() if not is_whole_hz(rate)]
        scheduled = ("LoopRates.position_rate", "LoopRates.attitude_rate")
        return problems + divisor_problems(rates, dict.fromkeys(scheduled, "LoopRates.rate_rate"))


@dataclass
class StateEstimate:
    """A state estimate: the four fields :meth:`CascadeController.update` takes.

    Each field is a sequence of floats; the simulator hands out tuples.
    """

    p: tuple                          # position, world frame, m
    v: tuple                          # velocity, world frame, m/s
    q: tuple                          # attitude quaternion (see rotations module)
    omega: tuple                      # body rates, rad/s


@dataclass
class ActuatorCommand:
    """Rotor speed and elevon deflection commands."""

    omega_left: float = 0.0
    omega_right: float = 0.0
    delta_left: float = 0.0
    delta_right: float = 0.0


def position_control(
    p_des,
    v_des,
    p_est,
    v_est,
    gains: ControllerGains,
    params: VehicleParams,
) -> tuple:
    """Desired world-frame force from position/velocity errors.

    Implements ``a_des = -g + (1/tau_p^2) (p_des - p) + (2 zeta_p / tau_p)
    (v_des - v)`` per axis (horizontal and vertical gains differ) and
    returns ``f_des = m * a_des`` as three floats.  Gravity enters with a
    minus sign, so zero errors yield the upward hover force ``(0, 0, m g)``;
    it has no horizontal part, so the horizontal sums start at the
    position term.
    """
    px, py, pz = p_est
    vx, vy, vz = v_est
    rx, ry, rz = p_des
    ux, uy, uz = v_des
    k_xy, k_z = 1.0 / gains.tau_p_xy**2, 1.0 / gains.tau_p_z**2
    d_xy = 2.0 * gains.zeta_p_xy / gains.tau_p_xy
    d_z = 2.0 * gains.zeta_p_z / gains.tau_p_z
    m = params.m
    return (
        m * (k_xy * (rx - px) + d_xy * (ux - vx)),
        m * (k_xy * (ry - py) + d_xy * (uy - vy)),
        m * (params.g_mag + k_z * (rz - pz) + d_z * (uz - vz)),
    )


def attitude_setpoint(
    f_des, psi_des: float, params: VehicleParams
) -> tuple[tuple, float]:
    """Desired attitude and per-rotor thrust from a desired force vector.

    ``q_des = q_tilt * (0, cos(psi/2), sin(psi/2), 0)``: the second
    factor yaws to ``psi_des`` and flips into hover (body -z up, body x
    along the heading); ``q_tilt``, the shortest arc from world +z onto
    the force direction ``f``, is ``(1 + f_z, -f_y, f_x, 0)`` normalised,
    with the scalar part taken as ``(f_x^2 + f_y^2) / (1 - f_z)`` for a
    downward force to avoid cancellation.  For a force straight down the
    tilt is the half turn about the heading-rotated y axis.

    Args:
        f_des: desired total force, world frame, N.
        psi_des: desired heading, rad.
        params: vehicle constants.

    Returns:
        ``(q_des, f_a)``: body-to-world quaternion of the desired
        attitude (four floats) and the per-rotor thrust ``|f_des| / 2``
        in N.

    Raises:
        DegenerateThrustError: if ``|f_des|`` is below the force floor.
    """
    fx, fy, fz = f_des
    norm = math.sqrt(fx * fx + fy * fy + fz * fz)
    if not math.isfinite(norm) or norm < FORCE_FLOOR:
        raise DegenerateThrustError(
            f"|f_des| = {norm:.3e} N is below the {FORCE_FLOOR:.0e} N floor"
        )
    hx, hy, hz = fx / norm, fy / norm, fz / norm
    half = 0.5 * psi_des
    heading = (0.0, math.cos(half), math.sin(half), 0.0)

    s2 = hx * hx + hy * hy
    if s2 >= 1e-24:
        w = 1.0 + hz if hz >= 0.0 else s2 / (1.0 - hz)
        q_tilt = quat_normalize((w, -hy, hx, 0.0))
    elif hz > 0.0:
        q_tilt = (1.0, 0.0, 0.0, 0.0)
    else:
        q_tilt = (0.0, -math.sin(psi_des), math.cos(psi_des), 0.0)
    return quat_multiply(q_tilt, heading), 0.5 * norm


def attitude_control(q_est, q_des, gains: ControllerGains) -> tuple:
    """Proportional body-rate command from an attitude error.

    The error quaternion ``e = q_est^-1 * q_des`` is, in body axes, the
    rotation still needed to reach the desired attitude.  Its intrinsic
    Z-Y-X Euler angles, read from its components, scaled by
    ``1 / tau_att`` give the body-rate command that shrinks the error.
    Within 1e-6 of the ``|pitch| = pi/2`` singularity, where roll and
    yaw are not defined, the rotation vector of ``e`` is used instead.
    Returns three floats.
    """
    e = quat_multiply(quat_conjugate(q_est), q_des)
    w, x, y, z = e
    sin_theta = 2.0 * (w * y - x * z)
    if abs(sin_theta) >= 1.0 - 1e-6:
        angles = quat_to_rotvec(e)
    else:
        angles = (
            math.atan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
            math.asin(sin_theta),
            math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z)),
        )
    tau = gains.tau_att
    return (angles[0] / tau, angles[1] / tau, angles[2] / tau)


def rate_control(omega_est, omega_des, integral, gains: ControllerGains,
                 params: VehicleParams) -> tuple:
    """Desired body torque from a rate error, as three floats.

    ``m_des = omega x J omega + J (omega_err / tau_omega)
    + J (K_I * integral)`` with diagonal inertia; the caller owns the
    error integral and its anti-windup policy.
    """
    jx, jy, jz = params.j_xx, params.j_yy, params.j_zz
    wx, wy, wz = omega_est
    dx, dy, dz = omega_des
    ix, iy, iz = integral
    return (
        wy * jz * wz - wz * jy * wy
        + jx * ((dx - wx) / gains.tau_omega_x + gains.k_i_omega_x * ix),
        wz * jx * wx - wx * jz * wz
        + jy * ((dy - wy) / gains.tau_omega_y + gains.k_i_omega_y * iy),
        wx * jy * wy - wy * jx * wx
        + jz * ((dz - wz) / gains.tau_omega_z + gains.k_i_omega_z * iz),
    )


def model_inverse(m_des, f_a: float, params: VehicleParams) -> ActuatorCommand:
    """Exact drag-free inverse of the force/moment model.

    Solves for rotor speeds from total thrust ``2 f_a`` and roll torque,
    then for elevon deflections from pitch and yaw torque (the yaw
    equation accounts for the rotor reaction-torque imbalance that the
    roll command creates).  Slipstream drag is ignored, matching the
    forward model with ``k_d = 0``.

    Args:
        m_des: desired body torque (m_x, m_y, m_z), N m.
        f_a: per-rotor thrust, N (> 0).
        params: vehicle constants.

    Returns:
        Unsaturated actuator command; apply :func:`clamp_command` before
        sending it to hardware or the simulator.

    Raises:
        DomainError: if ``f_a <= 0`` or inputs are non-finite.
        InfeasibleRollError: if ``|m_x| >= 2 f_a l`` so a rotor-speed
            radicand would be non-positive.
    """
    m_x, m_y, m_z = m_des
    if not (math.isfinite(m_x) and math.isfinite(m_y) and math.isfinite(m_z)
            and math.isfinite(f_a)):
        raise DomainError("model_inverse inputs must be finite")
    if f_a <= 0.0:
        raise DomainError(f"per-rotor thrust must be > 0, got {f_a!r}")
    k_t, k_m, k_l, k_p, l = params.k_t, params.k_m, params.k_l, params.k_p, params.l

    lever = 2.0 * f_a * l
    rad_left = (m_x + lever) / (2.0 * k_t * l)
    rad_right = (-m_x + lever) / (2.0 * k_t * l)
    if rad_left <= 0.0 or rad_right <= 0.0:
        raise InfeasibleRollError(
            f"roll torque {m_x:.4f} N m exceeds differential-thrust range "
            f"+/-{lever:.4f} N m at f_a = {f_a:.4f} N"
        )

    coupling = k_m * k_p * m_x
    delta_left = (-k_l * k_t * m_y * l * l - k_p * k_t * m_z * l + coupling) / (
        k_l * k_p * l * (m_x + lever)
    )
    delta_right = (k_l * k_t * m_y * l * l - k_p * k_t * m_z * l + coupling) / (
        k_l * k_p * l * (m_x - lever)
    )
    return ActuatorCommand(math.sqrt(rad_left), math.sqrt(rad_right), delta_left, delta_right)


def clamp_command(w_l: float, w_r: float, d_l: float, d_r: float,
                  params: VehicleParams) -> tuple:
    """Saturate a command to actuator limits; flags whether anything clipped.

    Rotor speeds clip to ``[0, omega_max]`` and deflections to
    ``[-delta_max, delta_max]`` with chained comparisons, as :func:`step`
    does; a nan or a -0.0 passes through unchanged, as it would through
    ``min(max(x, lo), hi)``.  Returns the four clipped floats and
    ``saturated``, true when any of them differs from its input (a nan
    counts as clipped).
    """
    w_max, d_max = params.omega_max, params.delta_max
    c_wl = 0.0 if w_l < 0.0 else w_max if w_l > w_max else w_l
    c_wr = 0.0 if w_r < 0.0 else w_max if w_r > w_max else w_r
    c_dl = -d_max if d_l < -d_max else d_max if d_l > d_max else d_l
    c_dr = -d_max if d_r < -d_max else d_max if d_r > d_max else d_r
    saturated = c_wl != w_l or c_wr != w_r or c_dl != d_l or c_dr != d_r
    return c_wl, c_wr, c_dl, c_dr, saturated


@dataclass
class CascadeController:
    """Multi-rate cascade wiring the four control laws together.

    Call :meth:`update` once per rate-loop tick, at ``rates.rate_rate``.
    The rate loop fires on every tick; the position and attitude loops
    fire on tick 0 and then every ``rate_rate // position_rate`` and
    ``rate_rate // attitude_rate`` ticks, and latch their outputs for the
    stages below in between.  Telemetry of every latched intermediate is
    kept on the instance for logging.

    Rotor-lag inversion: the plant moves each rotor towards its command
    with the first-order lag ``tau_motor``, so over one tick of length
    ``T = 1 / rate_rate`` a held command ``c`` takes a rotor from ``w``
    to ``e w + (1 - e) c`` with ``e = exp(-T / tau_motor)``.  The
    controller keeps its own model ``omega_hat`` of both rotor speeds and
    sends ``c = (w_des - e omega_hat) / (1 - e)``, which lands each rotor
    exactly on the model-inverse speed ``w_des`` at the end of the tick.
    The clamped command is what advances ``omega_hat``, so clipping is
    accounted for, and ``saturated`` (and the anti-windup it drives)
    refers to that clamped command.  :meth:`reset` starts ``omega_hat``
    at the hover trim speed, where the scenarios start the rotors; any
    other start error decays with ``tau_motor``.
    """

    params: VehicleParams
    gains: ControllerGains
    rates: LoopRates = field(default_factory=LoopRates)

    def __post_init__(self) -> None:
        self._position_every = self.rates.rate_rate // self.rates.position_rate
        self._attitude_every = self.rates.rate_rate // self.rates.attitude_rate
        lag = math.exp(-1.0 / (self.rates.rate_rate * self.params.tau_motor))
        self._lag = lag
        self._lead = 1.0 / (1.0 - lag)
        self._settle = 1.0 - lag
        self._rate = self.rates.rate_rate
        self.reset()

    def reset(self) -> None:
        """Return to the initial latched state (hover-force guess, zero rates).

        The rotor model ``omega_hat`` restarts at the hover trim speed.
        """
        self.f_des = (0.0, 0.0, self.params.m * self.params.g_mag)
        self.q_des, self.f_a = attitude_setpoint(self.f_des, 0.0, self.params)
        self.omega_des = self.m_des = self.integral = (0.0, 0.0, 0.0)
        self.saturated = False
        self.roll_clamped = False
        trim = self.params.hover_rotor_speed()
        self.omega_hat = (trim, trim)
        self._tick = 0

    def update(self, p, v, q, omega, p_des, v_des, psi_des: float) -> tuple:
        """Run one rate-loop tick; return the clamped command as four floats.

        Args:
            p, v, q, omega: fed-back position, velocity, attitude quaternion
                and body rates, each a sequence of floats.
            p_des, v_des, psi_des: the trajectory sample, as
                :func:`tailsim.scenarios.reference` returns it.

        Returns:
            ``(omega_left, omega_right, delta_left, delta_right)``.
        """
        params, gains = self.params, self.gains
        tick = self._tick
        self._tick = tick + 1
        if tick % self._position_every == 0:
            self.f_des = position_control(p_des, v_des, p, v, gains, params)

        if tick % self._attitude_every == 0:
            self.q_des, self.f_a = attitude_setpoint(self.f_des, psi_des, params)
            self.omega_des = attitude_control(q, self.q_des, gains)

        omega_des = self.omega_des
        m_x, m_y, m_z = rate_control(omega, omega_des, self.integral, gains, params)
        f_a = self.f_a
        roll_limit = (1.0 - ROLL_CLAMP_MARGIN) * 2.0 * f_a * params.l
        self.roll_clamped = clamped = abs(m_x) > roll_limit
        if clamped:
            m_x = math.copysign(roll_limit, m_x)
        self.m_des = m_des = (m_x, m_y, m_z)
        raw = model_inverse(m_des, f_a, params)
        # invert the rotor lag against the rotor model, then advance the
        # model with what is actually sent
        lag, lead = self._lag, self._lead
        hat_l, hat_r = self.omega_hat
        w_l, w_r, d_l, d_r, saturated = clamp_command(
            (raw.omega_left - lag * hat_l) * lead,
            (raw.omega_right - lag * hat_r) * lead,
            raw.delta_left, raw.delta_right, params,
        )
        self.saturated = saturated
        settle = self._settle
        self.omega_hat = (lag * hat_l + settle * w_l, lag * hat_r + settle * w_r)
        if not saturated:
            # anti-windup: hold the integral while any actuator clips
            rate = self._rate
            ix, iy, iz = self.integral
            dx, dy, dz = omega_des
            wx, wy, wz = omega
            self.integral = (ix + (dx - wx) / rate, iy + (dy - wy) / rate, iz + (dz - wz) / rate)
        return w_l, w_r, d_l, d_r
