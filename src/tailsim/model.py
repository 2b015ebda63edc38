"""Propeller/wing force and moment model of a dual-rotor tail-sitter MAV.

Frames and sign conventions
---------------------------

* Body frame: ``z`` runs nose to tail so propeller thrust points along
  ``-z``; ``y`` points from the centre of mass toward the right rotor;
  ``x`` completes the right-handed triad (out of the wing's suction side).
* World frame: ``z`` up, gravity ``(0, 0, -g_mag)``.
* In hover the body ``-z`` axis points world-up.

Each half of the vehicle carries one propeller and one full-span elevon
sitting in that propeller's slipstream.  With rotor speed ``omega``
(rad/s) and elevon deflection ``delta`` (rad), a single side produces, in
body axes:

* thrust ``(0, 0, -k_t * omega^2)`` plus a reaction torque about ``z``
  whose sign alternates between the counter-rotating sides (left ``+``,
  right ``-``),
* slipstream lift ``(-k_l * omega^2 * delta, 0, 0)``,
* slipstream drag ``(0, 0, k_d * omega^2 * delta^2)``,
* elevon pitch torque ``(0, -k_p * omega^2 * delta, 0)``.

Forces act at the per-side application points ``(0, -l, 0)`` (left) and
``(0, +l, 0)`` (right), so differential thrust rolls the vehicle and
differential lift yaws it.

On Python floats, :func:`actuator_wrench` sums both sides about the
centre of mass (the integrator's wrench) and :func:`total_wrench` adds
the weight (the force the accelerometer reads).  One side alone about
its own hub, as on the static bench, is evaluated column-wise by
:func:`tailsim.sysid.generate_synthetic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

from .errors import DomainError


@dataclass
class VehicleParams:
    """Physical constants of the vehicle and its actuators.

    Units: SI throughout; rotor speeds in rad/s, angles in rad.  The
    aerodynamic coefficients multiply ``omega^2`` terms as described in
    the module docstring.
    """

    m: float = 0.65            # vehicle mass, kg
    l: float = 0.20            # rotor lateral offset from centre of mass, m
    b: float = 0.64            # wing span, m (bookkeeping only)
    j_xx: float = 1.4e-2       # roll inertia, kg m^2
    j_yy: float = 6.4e-3       # pitch inertia, kg m^2
    j_zz: float = 1.8e-2       # yaw inertia, kg m^2
    k_t: float = 7.86e-6       # thrust coefficient, N s^2
    k_m: float = 1.80e-7       # rotor reaction torque coefficient, N m s^2
    k_l: float = 3.48e-6       # slipstream lift coefficient, N s^2
    k_d: float = 1.75e-6       # slipstream drag coefficient, N s^2
    k_p: float = 3.44e-7       # elevon pitch torque coefficient, N m s^2
    omega_max: float = 790.0   # rotor speed ceiling, rad/s
    delta_max: float = 0.785   # elevon deflection limit, rad
    g_mag: float = 9.81        # gravitational acceleration, m/s^2
    tau_motor: float = 0.025   # rotor speed first-order lag, s
    tau_servo: float = 0.020   # elevon deflection first-order lag, s

    def __post_init__(self) -> None:
        problems = self.problems()
        if problems:
            raise DomainError(problems[0])

    def problems(self) -> list[str]:
        """One message per constant that is not a finite real > 0 (empty when sound)."""
        # getattr, not vars(self): a materialised instance dict makes every
        # later attribute read slower, and the integrator reads these per step
        problems = []
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not (isinstance(value, Real) and math.isfinite(value) and value > 0.0):
                problems.append(f"VehicleParams.{name} must be finite and > 0, got {value!r}")
        return problems

    def hover_rotor_speed(self) -> float:
        """Rotor speed at which two propellers carry the full weight."""
        return math.sqrt(self.m * self.g_mag / (2.0 * self.k_t))


@dataclass
class ActuatorState:
    """Instantaneous rotor speeds (rad/s) and elevon deflections (rad)."""

    omega_left: float = 0.0
    omega_right: float = 0.0
    delta_left: float = 0.0
    delta_right: float = 0.0


def actuator_wrench(
    wl: float, wr: float, dl: float, dr: float,
    k_t: float, k_m: float, k_l: float, k_d: float, k_p: float, l: float,
) -> tuple[float, float, float, float, float, float]:
    """Both sides' actuator wrench about the centre of mass, gravity excluded.

    The sum over the two sides of the per-side model in the module
    docstring, with each side's force applied at its lever arm ``-l``
    (left) or ``+l`` (right).  Scalar arithmetic only: the integrator
    calls it three times per physics step.

    Args:
        wl, wr: left and right rotor speeds, rad/s.
        dl, dr: left and right elevon deflections, rad.
        k_t, k_m, k_l, k_d, k_p, l: the :class:`VehicleParams` constants.

    Returns:
        ``(fx, fy, fz, mx, my, mz)`` in body axes, N and N m.
    """
    A = wl * wl
    B = wr * wr
    u_l = A * dl
    u_r = B * dr
    fx = -k_l * (u_l + u_r)
    fy = 0.0
    fz = -k_t * (A + B) + k_d * (u_l * dl + u_r * dr)
    mx = k_t * l * (A - B) - k_d * l * (u_l * dl - u_r * dr)
    my = -k_p * (u_l + u_r)
    mz = k_m * (A - B) - k_l * l * (u_l - u_r)
    return fx, fy, fz, mx, my, mz


def total_wrench(
    act: ActuatorState, R_wb, params: VehicleParams,
) -> tuple[float, float, float, float, float, float]:
    """Total body-frame wrench about the centre of mass, gravity included.

    The :func:`actuator_wrench` of the current actuator state plus the
    weight ``R_wb @ (0, 0, -m g)``, which is ``-m g`` times the third
    column of ``R_wb``.

    Args:
        act: current rotor speeds and elevon deflections.
        R_wb: 3x3 rotation, world frame to body frame (three rows of
            floats or an array).
        params: vehicle constants.

    Returns:
        ``(fx, fy, fz, mx, my, mz)`` in body axes, N and N m.
    """
    fx, fy, fz, mx, my, mz = actuator_wrench(
        act.omega_left, act.omega_right, act.delta_left, act.delta_right,
        params.k_t, params.k_m, params.k_l, params.k_d, params.k_p, params.l,
    )
    mg = params.m * params.g_mag
    rx, ry, rz = R_wb[0][2], R_wb[1][2], R_wb[2][2]
    return fx - mg * rx, fy - mg * ry, fz - mg * rz, mx, my, mz
