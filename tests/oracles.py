"""Vector-algebra reference models that the tests check the package against.

These are written independently of the package's fast paths: the wrench
is assembled per side from :func:`prop_wrench` and :func:`aero_wrench`
with explicit lever-arm cross products, the rigid-body derivative uses
matrix algebra, and the actuator lag is a one-shot exponential step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tailsim.errors import DomainError
from tailsim.model import ActuatorState, VehicleParams, Wrench, aero_wrench, prop_wrench
from tailsim.rotations import quat_derivative, quat_to_matrix
from tailsim.sim import VehicleState


def reference_wrench(act: ActuatorState, R_wb: np.ndarray, params: VehicleParams) -> Wrench:
    """Total body wrench about the centre of mass, gravity included.

    Sums both sides' propeller and slipstream wrenches, adds the moments
    the per-side forces produce about the centre of mass (application
    points ``(0, -l, 0)`` left and ``(0, +l, 0)`` right), and adds the
    weight rotated into body axes.
    """
    total = Wrench(R_wb @ (params.m * params.gravity_world), np.zeros(3))
    for side, omega, delta, arm_y in (
        ("left", act.omega_left, act.delta_left, -params.l),
        ("right", act.omega_right, act.delta_right, +params.l),
    ):
        side_wrench = prop_wrench(omega, side, params) + aero_wrench(omega, delta, params)
        arm = np.array([0.0, arm_y, 0.0])
        total = total + Wrench(
            side_wrench.force, side_wrench.torque + np.cross(arm, side_wrench.force)
        )
    return total


@dataclass
class StateDerivative:
    p_dot: np.ndarray
    v_dot: np.ndarray
    q_dot: np.ndarray
    omega_dot: np.ndarray


def derivative(state: VehicleState, wrench: Wrench, params: VehicleParams) -> StateDerivative:
    """Newton-Euler time derivative under a given body wrench."""
    R_bw = quat_to_matrix(state.q)
    J = params.inertia_diag
    return StateDerivative(
        p_dot=state.v.copy(),
        v_dot=R_bw @ wrench.force / params.m,
        q_dot=quat_derivative(state.q, state.omega),
        omega_dot=(wrench.torque - np.cross(state.omega, J * state.omega)) / J,
    )


def actuator_step(
    act: ActuatorState, command, dt: float, params: VehicleParams
) -> ActuatorState:
    """Advance actuators toward a command by their first-order lags.

    Each channel follows ``x(t) = cmd + (x0 - cmd) exp(-t / tau)`` with
    ``tau_motor`` for rotor speeds and ``tau_servo`` for elevons; results
    are clipped to the actuator limits.
    """
    if dt < 0.0:
        raise DomainError("actuator_step requires dt >= 0")
    a_m = math.exp(-dt / params.tau_motor)
    a_s = math.exp(-dt / params.tau_servo)
    return ActuatorState(
        omega_left=_clip(command.omega_left + (act.omega_left - command.omega_left) * a_m,
                         0.0, params.omega_max),
        omega_right=_clip(command.omega_right + (act.omega_right - command.omega_right) * a_m,
                          0.0, params.omega_max),
        delta_left=_clip(command.delta_left + (act.delta_left - command.delta_left) * a_s,
                         -params.delta_max, params.delta_max),
        delta_right=_clip(command.delta_right + (act.delta_right - command.delta_right) * a_s,
                          -params.delta_max, params.delta_max),
    )


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x
