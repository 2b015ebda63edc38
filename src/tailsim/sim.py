"""Rigid-body simulation, sensor models, and state estimation.

The plant is a single rigid body driven by the wrench of
:mod:`tailsim.model` plus optional constant disturbance offsets.  States
integrate with a classical fixed-step fourth-order Runge-Kutta scheme at
a default 2 kHz; rotor speeds and elevon deflections follow first-order
lags whose exact exponential solution is evaluated at the Runge-Kutta
substage times 0, dt/2 and dt (one actuator wrench at each, shared by
stages 2 and 3), so the coupled scheme keeps its fourth-order accuracy.

Equations of motion (body rates ``omega``, diagonal inertia ``J``)::

    p_dot     = v
    v_dot     = R_bw @ f_body / m        (f_body includes gravity)
    q_dot     = 0.5 * q * (0, omega)
    omega_dot = J^-1 (torque - omega x J omega)

Sensing mimics the flight hardware: a 1 kHz IMU (rate gyro plus
accelerometer measuring specific force) and a 100 Hz external pose
source, each with white Gaussian noise taken in a fixed order (gyro,
accel, pose position, pose attitude).  A run draws those normals from
its seeded generator in blocks of :data:`NOISE_BLOCK` (:class:`Normals`),
the same stream as one draw per sample.  The complementary estimator
integrates gyro rates smoothed by :class:`LowPass`, the one filter in
the package, and blends pose corrections in.

Everything that runs at the physics or IMU rate computes on Python
floats: the state is one tuple of 13 floats (:class:`VehicleState`).  A
run builds its constants once (:func:`plant`).  One step is defined by
:func:`advance`, in place on a buffer of 17 doubles (the 13 state values,
then the 4 actuator values) that a run carries from step to step; it
computes on floats and combines the four stage derivatives by 13
written-out updates.  :func:`step` is the single-step API on a
:class:`VehicleState`.  The step also exists compiled: on import this
module builds (once per user, into a cache) and loads ``_rk4.c``, a
line-by-line C transcription of :func:`advance` and its two helpers with
the same bits, arguments and rejected buffers; :data:`rk4` is that
kernel, ``_rk4.advance``, or :func:`advance` itself when it could not be
built (:data:`KERNEL` says which, and why).  So the vehicle's physics is
written twice, once in Python (the definition, the fallback and the test
oracle) and once in C (the speed: about 0.3 us per step against 12 us);
:func:`plant` stays in Python only.
:func:`sense` (which reads the state's 13 floats, the body force and the
rotation matrix's third row as 3 floats each, and the sample's normals)
and the estimator work through :mod:`tailsim.rotations`.  The operations
and their order are those of the elementwise array code, so the results
are bit-identical to it.  Sensor samples and estimates are tuples of
floats; only the state's ``p``, ``v``, ``q`` and ``omega`` read as arrays.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import astuple, dataclass
from numbers import Real

import numpy as np

from . import _build
from .control import StateEstimate
from .errors import DomainError, SimulationDivergedError
from .model import ActuatorState, VehicleParams, actuator_wrench
from .rotations import (
    quat_conjugate,
    quat_from_rotvec,
    quat_integrate,
    quat_multiply,
    quat_normalize,
    quat_to_rotvec,
)

MAX_PHYSICS_DT = 2e-3
_BUFFER = struct.Struct("17d")   # what advance steps: 13 state, then 4 actuator values


def vector(value, name: str, n: int = 3) -> tuple:
    """``value``, a tuple, list or flat array of ``n`` real numbers, as a tuple
    of ``n`` Python floats; DomainError naming ``name`` for anything else."""
    try:
        if (isinstance(value, (tuple, list, np.ndarray)) and len(value) == n
                and all(isinstance(c, Real) for c in value)):
            return tuple(map(float, value))
    except (TypeError, OverflowError):
        pass
    raise DomainError(f"{name} must be {n} real numbers, got {value!r}")


@dataclass
class DisturbanceSpec:
    """Constant offsets, sensor noise levels, and the run's random seed.

    The force offset is a steady world-frame push (wind analogue); the
    torque offset is a body-frame trim asymmetry.  Noise standard
    deviations apply per axis and per sample.  Defaults are sized so a
    disturbed hover lands in the centimetre error regime, dominated by
    the horizontal force offset along x.  Each offset is stored as a tuple
    of three Python floats and checked (three finite real numbers) on every
    assignment, at construction or later.
    """

    force_offset_world: tuple = (0.10, 0.02, 0.03)    # N
    torque_offset_body: tuple = (5e-4, 2e-3, 5e-4)    # N m
    gyro_noise_std: float = 0.005         # rad/s
    accel_noise_std: float = 0.05         # m/s^2
    pose_pos_noise_std: float = 0.001     # m
    pose_att_noise_std: float = 0.00175   # rad (about 0.1 deg)
    seed: int = 0

    def __setattr__(self, name: str, value) -> None:
        if name in ("force_offset_world", "torque_offset_body"):
            value = vector(value, f"DisturbanceSpec.{name}")
            if not all(map(math.isfinite, value)):
                raise DomainError(f"DisturbanceSpec.{name} must be finite, got {value!r}")
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        for name in ("gyro_noise_std", "accel_noise_std",
                     "pose_pos_noise_std", "pose_att_noise_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"DisturbanceSpec.{name} must be finite and >= 0")

    @classmethod
    def none(cls) -> "DisturbanceSpec":
        """All offsets and noise levels zero."""
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0)


class _Part:
    """``VehicleState.p``, ``v``, ``q`` or ``omega``: a slice of ``y`` as an array."""

    def __init__(self, start: int, stop: int):
        self.start, self.stop = start, stop

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, state, owner=None):
        return self if state is None else np.array(state.y[self.start:self.stop])

    def __set__(self, state, value) -> None:
        part = vector(value, f"VehicleState.{self.name}", self.stop - self.start)
        if not all(map(math.isfinite, part)):
            raise DomainError(f"VehicleState.{self.name} entries must be finite, got {part!r}")
        if self.name == "q" and not abs(math.hypot(*part) - 1.0) <= 1e-6:
            raise DomainError(f"attitude quaternion must be unit norm, |q| = {math.hypot(*part)!r}")
        state.y = state.y[:self.start] + part + state.y[self.stop:]


class VehicleState:
    """Full simulator state.

    ``y`` is one tuple of 13 Python floats, in the order of the run log's
    ``px`` ... ``wz`` columns: position (world frame, m), velocity (world
    frame, m/s), attitude quaternion (unit norm), body rates (rad/s).
    ``p``, ``v``, ``q`` and ``omega`` read their slice of ``y`` as a new
    array and replace it when set (:func:`vector`); every entry must be
    finite and the attitude unit norm.  ``act`` is a copy of the given
    actuator state in Python floats, so that stepping keeps ``y`` and ``act``
    in floats.
    """

    __slots__ = ("y", "act")

    p = _Part(0, 3)
    v = _Part(3, 6)
    q = _Part(6, 10)
    omega = _Part(10, 13)

    def __init__(self, p, v, q, omega, act: ActuatorState | None = None):
        self.y = (0.0,) * 13
        self.p, self.v, self.q, self.omega = p, v, q, omega
        self.act = ActuatorState(*map(float, astuple(act))) if act is not None else ActuatorState()


def _rhs(y0: tuple, k: tuple | None, h: float, fx: float, fy: float, fz: float,
         mx: float, my: float, mz: float, mg: float, inv_m: float, jx: float, jy: float,
         jz: float, dfx: float, dfy: float, dfz: float) -> tuple:
    """Scalar right-hand side of the state ODE at the RK4 stage ``y0 + h * k``.

    ``y0`` and ``k`` pack (p, v, q, omega) as 13 floats; only the 10 stage
    components the ODE reads (v, q, omega) are formed.  With ``k`` None the
    stage is ``y0`` itself (``y0 + 0.0 * k`` would turn -0.0 into +0.0).
    ``fx`` ... ``mz``: the actuator wrench at the stage's actuator sample
    plus the torque offset; ``mg`` ... ``dfz``: the :func:`plant` constants
    ``-m g``, ``1 / m``, the inertias and the world-frame force offset.
    The body-to-world rotation is built from the nine
    quaternion products (``qx*qx`` ... ``qw*qz``), each formed once.  Plain
    floats only: it runs four times per physics step.
    """
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y0
    if k is not None:
        vx, vy, vz = vx + h * k[3], vy + h * k[4], vz + h * k[5]
        qw, qx, qy, qz = qw + h * k[6], qx + h * k[7], qy + h * k[8], qz + h * k[9]
        wx, wy, wz = wx + h * k[10], wy + h * k[11], wz + h * k[12]

    # body-to-world rotation entries
    qxx, qyy, qzz = qx * qx, qy * qy, qz * qz
    qxy, qxz, qyz = qx * qy, qx * qz, qy * qz
    qwx, qwy, qwz = qw * qx, qw * qy, qw * qz
    r00 = 1.0 - 2.0 * (qyy + qzz)
    r01 = 2.0 * (qxy - qwz)
    r02 = 2.0 * (qxz + qwy)
    r10 = 2.0 * (qxy + qwz)
    r11 = 1.0 - 2.0 * (qxx + qzz)
    r12 = 2.0 * (qyz - qwx)
    r20 = 2.0 * (qxz - qwy)
    r21 = 2.0 * (qyz + qwx)
    r22 = 1.0 - 2.0 * (qxx + qyy)

    # weight and world-frame force offset rotated into body axes
    fx += mg * r20 + r00 * dfx + r10 * dfy + r20 * dfz
    fy += mg * r21 + r01 * dfx + r11 * dfy + r21 * dfz
    fz += mg * r22 + r02 * dfx + r12 * dfy + r22 * dfz

    return (
        vx, vy, vz,
        (r00 * fx + r01 * fy + r02 * fz) * inv_m,
        (r10 * fx + r11 * fy + r12 * fz) * inv_m,
        (r20 * fx + r21 * fy + r22 * fz) * inv_m,
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        (mx - (wy * jz * wz - wz * jy * wy)) / jx,
        (my - (wz * jx * wx - wx * jz * wz)) / jy,
        (mz - (wx * jy * wy - wy * jx * wx)) / jz,
    )


def plant(dt: float, params: VehicleParams, disturbance: DisturbanceSpec | None = None) -> tuple:
    """The constants :func:`advance` reads, built once per run of step ``dt``.

    ``k_t`` ... ``l``, ``-m g``, ``1 / m``, the principal inertias, the
    force and torque offsets (zero without ``disturbance``), both lags'
    decay over ``dt / 2``, ``omega_max``, ``delta_max``, ``dt``, ``dt / 2``
    and ``dt / 6``: a snapshot, which later changes to ``params`` or
    ``disturbance`` do not reach.  Raises DomainError unless
    ``0 < dt <= 2e-3``.
    """
    if not (0.0 < dt <= MAX_PHYSICS_DT):
        raise DomainError(f"physics step must satisfy 0 < dt <= {MAX_PHYSICS_DT}, got {dt!r}")
    offsets = ((0.0,) * 6 if disturbance is None else
               disturbance.force_offset_world + disturbance.torque_offset_body)
    p = params
    return (p.k_t, p.k_m, p.k_l, p.k_d, p.k_p, p.l, -p.m * p.g_mag, 1.0 / p.m,
            p.j_xx, p.j_yy, p.j_zz, *offsets,
            math.exp(-0.5 * dt / p.tau_motor), math.exp(-0.5 * dt / p.tau_servo),
            p.omega_max, p.delta_max, dt, 0.5 * dt, dt / 6.0)


def advance(c: tuple, s, c_wl: float, c_wr: float, c_dl: float, c_dr: float) -> None:
    """One fixed-step RK4 step of the full vehicle, in place on the buffer ``s``.

    ``c`` is the run's :func:`plant` tuple; ``s`` holds the 13 state floats
    (:attr:`VehicleState.y`), then the four actuator floats.  The
    command ``c_wl`` ... ``c_dr``, held over the step, is first saturated to
    ``[0, omega_max]`` and ``[-delta_max, delta_max]``.  The actuators follow
    their exact exponential response to it, with one actuator wrench at each
    substage time 0, dt/2 and dt (stages 2 and 3 share the one at dt/2).
    Each of the 13 components is updated as
    ``y0 + dt/6 * (k1 + 2 * (k2 + k3) + k4)``, written out per component;
    the finiteness check reads the left-to-right sum of the 13 updated
    components (a non-finite or overflowing sum raises
    SimulationDivergedError), and the quaternion is renormalised.  ``s`` is
    written only if the step succeeds.  Like ``_rk4.advance``, it takes a
    writable C-contiguous buffer of 17 doubles in format ``d`` (an
    ``array('d')``) and raises before any step on anything else: TypeError if
    not a buffer, else ValueError.
    """
    with memoryview(s) as m:
        if m.readonly or not m.c_contiguous or m.nbytes != _BUFFER.size or m.format != "d":
            raise ValueError("advance() needs a writable contiguous buffer of 17 doubles, "
                             f"got {m.nbytes} bytes of format '{m.format}'")
        *y0, wl0, wr0, dl0, dr0 = _BUFFER.unpack_from(m)
    (k_t, k_m, k_l, k_d, k_p, l, mg, inv_m, jx, jy, jz, dfx, dfy, dfz, dmx, dmy, dmz,
     e_m2, e_s2, w_max, d_max, dt, half, sixth) = c

    # the command saturated (inline for speed), then exact actuator samples at 0, dt/2, dt
    c_wl = 0.0 if c_wl < 0.0 else w_max if c_wl > w_max else c_wl
    c_wr = 0.0 if c_wr < 0.0 else w_max if c_wr > w_max else c_wr
    c_dl = -d_max if c_dl < -d_max else d_max if c_dl > d_max else c_dl
    c_dr = -d_max if c_dr < -d_max else d_max if c_dr > d_max else c_dr
    wl1 = c_wl + (wl0 - c_wl) * e_m2
    wr1 = c_wr + (wr0 - c_wr) * e_m2
    dl1 = c_dl + (dl0 - c_dl) * e_s2
    dr1 = c_dr + (dr0 - c_dr) * e_s2
    wl2 = c_wl + (wl1 - c_wl) * e_m2
    wr2 = c_wr + (wr1 - c_wr) * e_m2
    dl2 = c_dl + (dl1 - c_dl) * e_s2
    dr2 = c_dr + (dr1 - c_dr) * e_s2

    fx, fy, fz, mx, my, mz = actuator_wrench(wl0, wr0, dl0, dr0, k_t, k_m, k_l, k_d, k_p, l)
    k1 = _rhs(y0, None, 0.0, fx, fy, fz, mx + dmx, my + dmy, mz + dmz,
              mg, inv_m, jx, jy, jz, dfx, dfy, dfz)
    fx, fy, fz, mx, my, mz = actuator_wrench(wl1, wr1, dl1, dr1, k_t, k_m, k_l, k_d, k_p, l)
    mx, my, mz = mx + dmx, my + dmy, mz + dmz
    k2 = _rhs(y0, k1, half, fx, fy, fz, mx, my, mz, mg, inv_m, jx, jy, jz, dfx, dfy, dfz)
    k3 = _rhs(y0, k2, half, fx, fy, fz, mx, my, mz, mg, inv_m, jx, jy, jz, dfx, dfy, dfz)
    fx, fy, fz, mx, my, mz = actuator_wrench(wl2, wr2, dl2, dr2, k_t, k_m, k_l, k_d, k_p, l)
    k4 = _rhs(y0, k3, dt, fx, fy, fz, mx + dmx, my + dmy, mz + dmz,
              mg, inv_m, jx, jy, jz, dfx, dfy, dfz)

    px = y0[0] + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
    py = y0[1] + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
    pz = y0[2] + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
    vx = y0[3] + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
    vy = y0[4] + sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4])
    vz = y0[5] + sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5])
    qw = y0[6] + sixth * (k1[6] + 2.0 * (k2[6] + k3[6]) + k4[6])
    qx = y0[7] + sixth * (k1[7] + 2.0 * (k2[7] + k3[7]) + k4[7])
    qy = y0[8] + sixth * (k1[8] + 2.0 * (k2[8] + k3[8]) + k4[8])
    qz = y0[9] + sixth * (k1[9] + 2.0 * (k2[9] + k3[9]) + k4[9])
    wx = y0[10] + sixth * (k1[10] + 2.0 * (k2[10] + k3[10]) + k4[10])
    wy = y0[11] + sixth * (k1[11] + 2.0 * (k2[11] + k3[11]) + k4[11])
    wz = y0[12] + sixth * (k1[12] + 2.0 * (k2[12] + k3[12]) + k4[12])
    if not math.isfinite(px + py + pz + vx + vy + vz + qw + qx + qy + qz + wx + wy + wz):
        raise SimulationDivergedError("non-finite state after integration step")

    inv_n = 1.0 / math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    _BUFFER.pack_into(
        s, 0, px, py, pz, vx, vy, vz, qw * inv_n, qx * inv_n, qy * inv_n, qz * inv_n, wx, wy, wz,
        0.0 if wl2 < 0.0 else w_max if wl2 > w_max else wl2,
        0.0 if wr2 < 0.0 else w_max if wr2 > w_max else wr2,
        -d_max if dl2 < -d_max else d_max if dl2 > d_max else dl2,
        -d_max if dr2 < -d_max else d_max if dr2 > d_max else dr2,
    )


_compiled, KERNEL = _build.load()
#: The RK4 step that :func:`step` and the run loop call: ``_rk4.advance``, the
#: compiled twin of :func:`advance` (positional arguments only), or
#: :func:`advance` itself when that did not load.  Chosen once, at import.
rk4 = advance if _compiled is None else _compiled.advance
del _compiled


def step(state: VehicleState, command, dt: float, params: VehicleParams,
         disturbance: DisturbanceSpec | None = None) -> VehicleState:
    """The state one :func:`advance` of ``dt`` after ``state``: the single-step API.

    ``command`` is any object with the four actuator fields, held over the
    step.  Raises what :func:`plant` (a step size outside
    ``0 < dt <= 2e-3``) and :func:`advance` (a divergence) raise.  The step
    is taken by :data:`rk4` on a buffer of the state's 17 doubles.
    """
    s = array("d", state.y + astuple(state.act))
    rk4(plant(dt, params, disturbance), s,
        command.omega_left, command.omega_right, command.delta_left, command.delta_right)
    out = object.__new__(VehicleState)   # no validation: q is unit by construction
    out.y, out.act = tuple(s[:13]), ActuatorState(*s[13:])
    return out


@dataclass(slots=True)
class SensorSample:
    """One IMU sample, optionally paired with an external pose fix.

    Each channel is a tuple of Python floats.  :func:`sense` builds it
    positionally, in field order; slotted, as a run builds one per IMU sample.
    """

    t: float
    gyro: tuple                   # body rates, rad/s
    accel: tuple                  # specific force, body frame, m/s^2
    pose_p: tuple | None = None   # measured position, world frame, m
    pose_q: tuple | None = None   # measured attitude quaternion


#: Standard normals a run's :class:`Normals` draws per call of its generator.
NOISE_BLOCK = 1200


class Normals:
    """A generator's standard normals, drawn :data:`NOISE_BLOCK` at a time.

    ``take(n)`` returns the next ``n`` draws as a list of floats: the same
    numbers, in the same order, as one ``rng.standard_normal(n).tolist()``
    per call, since a generator's normal stream does not depend on how it
    is split into calls.  A call that runs past the block's end keeps the
    block's rest and appends a new block, so fewer than ``NOISE_BLOCK + n``
    floats are held.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = []
        self._i = 0

    def take(self, n: int) -> list:
        """The next ``n`` standard normals, ``n`` at most :data:`NOISE_BLOCK`
        (DomainError for more: one refill could not supply them)."""
        if n > NOISE_BLOCK:
            raise DomainError(f"Normals.take draws at most {NOISE_BLOCK} normals, asked for {n}")
        i = self._i
        j = i + n
        if j > len(self._buf):
            self._buf = self._buf[i:] + self._rng.standard_normal(NOISE_BLOCK).tolist()
            i, j = 0, n
        self._i = j
        return self._buf[i:j]


def sense(
    y: tuple,
    force,
    z_row,
    params: VehicleParams,
    disturbance: DisturbanceSpec,
    noise,
    t: float = 0.0,
    with_pose: bool = False,
) -> SensorSample:
    """Simulated IMU (and optional pose) measurement of the state ``y``.

    The accelerometer reports specific force: the total body force minus
    weight, divided by mass, so a hovering vehicle reads ``g`` along its
    thrust axis.  The weight in body axes is ``-m g`` times the third row
    of the body-to-world matrix, ``z_row``, which the caller passes in
    (the run loop has the matrix already), so none is formed here.  Each
    channel adds its standard deviation times standard normals taken from
    ``noise`` in a fixed order (gyro, accel, pose position, pose attitude),
    so a run draws 6 normals per sample, or 12 with a pose fix (a run
    takes them from :class:`Normals`).

    Args:
        y: the true state's 13 floats (:attr:`VehicleState.y`).
        force: the three components of the total body force currently
            acting (gravity included), N.
        z_row: the last three floats of ``quat_to_matrix_f(y[6:10])``.
        params: vehicle constants.
        disturbance: noise standard deviations.
        noise: this sample's standard normals, 6 floats, or 12 with a pose.
        t: sample timestamp, s.
        with_pose: attach a pose fix to this sample.
    """
    r20, r21, r22 = z_row
    m = params.m
    mg = m * params.g_mag
    fx, fy, fz = force

    s_g = disturbance.gyro_noise_std
    wx, wy, wz = y[10:13]
    gyro = (wx + s_g * noise[0], wy + s_g * noise[1], wz + s_g * noise[2])
    s_a = disturbance.accel_noise_std
    accel = (
        (fx + mg * r20) / m + s_a * noise[3],
        (fy + mg * r21) / m + s_a * noise[4],
        (fz + mg * r22) / m + s_a * noise[5],
    )
    pose_p = pose_q = None
    if with_pose:
        s_p = disturbance.pose_pos_noise_std
        px, py, pz = y[0:3]
        pose_p = (px + s_p * noise[6], py + s_p * noise[7], pz + s_p * noise[8])
        s_q = disturbance.pose_att_noise_std
        tilt = (s_q * noise[9], s_q * noise[10], s_q * noise[11])
        pose_q = quat_normalize(quat_multiply(y[6:10], quat_from_rotvec(tilt)))
    return SensorSample(t, gyro, accel, pose_p, pose_q)


class LowPass:
    """First-order low-pass filter with exact zero-order-hold discretisation.

    ``y += (1 - exp(-dt / tau)) * (x - y)`` with ``tau = 1 / (2 pi f_c)``;
    unit DC gain, amplitude ``1 / sqrt(1 + (f / f_c)^2)`` well below the
    sampling rate.  The output is held as a tuple of three Python floats (the
    same IEEE arithmetic as the elementwise array update).  The gain is
    recomputed only when ``dt`` changes.
    """

    def __init__(self, cutoff_hz: float, initial=None):
        if not 0.0 < cutoff_hz < math.inf:
            raise DomainError("low-pass cutoff must be finite and > 0")
        self.tau = 1.0 / (2.0 * math.pi * cutoff_hz)
        self.y = None if initial is None else vector(initial, "low-pass initial value")
        self._dt = None
        self._alpha = 0.0

    def advance(self, x, dt: float) -> tuple:
        """Advance the filter by one sample of three floats; return the output
        tuple.  Raises DomainError unless ``dt > 0`` and ``x`` has 3 entries."""
        if dt != self._dt:
            if not dt > 0.0:
                raise DomainError("low-pass step requires dt > 0")
            self._dt = dt
            self._alpha = 1.0 - math.exp(-dt / self.tau)
        try:
            x0, x1, x2 = x
        except (TypeError, ValueError):
            raise DomainError(f"low-pass input must be 3 floats, got {x!r}") from None
        y = self.y
        if y is None:
            self.y = y = (x0, x1, x2)
            return y
        alpha = self._alpha
        y0, y1, y2 = y
        self.y = y = (y0 + alpha * (x0 - y0), y1 + alpha * (x1 - y1), y2 + alpha * (x2 - y2))
        return y


IMU_CUTOFF_HZ = 20.0


class ComplementaryEstimator:
    """Gyro-integration attitude filter with pose blending.

    Between pose fixes the attitude integrates low-pass-filtered gyro
    rates and the position propagates with the velocity estimate.  Each
    pose fix pulls the attitude a fixed fraction along the geodesic
    toward the measured attitude and applies constant-gain position and
    velocity corrections (an alpha-beta observer).

    The estimate (``p``, ``v``, ``q``, ``omega``) and the gyro filter's
    state are tuples of Python floats, updated by the functions of
    :mod:`tailsim.rotations` and :class:`LowPass` with the operations of
    the elementwise array update in the same order, so the numbers are
    bit for bit those of array code at a fraction of the cost.  The run
    loop reads those four fields directly.

    Args:
        initial: starting estimate (measured pose at deployment), by :func:`vector`.
        pose_rate: pose fix rate, Hz (sets the velocity correction gain).
        attitude_blend: per-fix fraction of the attitude innovation applied.
        pos_alpha: per-fix fraction of the position innovation applied.
        vel_beta: per-fix velocity correction, units of innovation / s
            after division by the pose period.
        cutoff_hz: IMU low-pass cutoff frequency, Hz, checked by :class:`LowPass`.
    """

    def __init__(
        self,
        initial: StateEstimate,
        pose_rate: float = 100.0,
        attitude_blend: float = 0.167,
        pos_alpha: float = 0.4,
        vel_beta: float = 0.05,
        cutoff_hz: float = IMU_CUTOFF_HZ,
    ):
        if not 0.0 < attitude_blend <= 1.0 or not 0.0 < pos_alpha <= 1.0:
            raise DomainError("blend fractions must lie in (0, 1]")
        self.q = vector(initial.q, "StateEstimate.q", 4)
        self.p = vector(initial.p, "StateEstimate.p")
        self.v = vector(initial.v, "StateEstimate.v")
        self.omega = vector(initial.omega, "StateEstimate.omega")
        self.attitude_blend = attitude_blend
        self.pos_alpha = pos_alpha
        self.vel_gain = vel_beta * pose_rate
        self._gyro_lp = LowPass(cutoff_hz, self.omega)

    def update(self, sample: SensorSample, dt: float) -> None:
        """Fuse one IMU sample (and its optional pose fix) into the estimate."""
        self.omega = omega = self._gyro_lp.advance(sample.gyro, dt)
        q = quat_integrate(self.q, omega, dt)
        px, py, pz = self.p
        vx, vy, vz = self.v
        px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt

        if sample.pose_p is not None and sample.pose_q is not None:
            err = quat_multiply(quat_conjugate(q), sample.pose_q)
            b = self.attitude_blend
            ex, ey, ez = quat_to_rotvec(err)
            q = quat_normalize(quat_multiply(q, quat_from_rotvec((b * ex, b * ey, b * ez))))
            mx, my, mz = sample.pose_p
            ix, iy, iz = mx - px, my - py, mz - pz
            a = self.pos_alpha
            px, py, pz = px + a * ix, py + a * iy, pz + a * iz
            g = self.vel_gain
            self.v = (vx + g * ix, vy + g * iy, vz + g * iz)
        self.q = q
        self.p = (px, py, pz)
