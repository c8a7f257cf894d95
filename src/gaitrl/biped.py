"""Planar biped model: kinematics and simplified contact dynamics.

The robot is a rigid base (mass + pitch inertia) with two massless 3-joint
legs (hip, knee, ankle).  Each ankle carries a flat foot segment that
contacts the ground at a heel and a toe point, which gives standing a real
support polygon (pure point feet make an unstabilized inverted pendulum).

Massless-leg approximation taken consistently: joints are torque-driven
second-order servos (lumped reflected inertia, PD torque, damping) and the
ground reaction forces - normal spring-damper plus anchored stick/slip
friction - act on the base rigid body alone.  Feeding contact reactions
back into zero-mass legs has no well-defined scale and in practice turns
the leg into an undamped oscillation engine, so the legs shape *where* the
contact points are and the base carries all contact dynamics.

Lateral/yaw motion is collapsed to a proxy pair (yaw rate, lateral offset)
driven by hip-torque asymmetry while in contact; it exists so yaw-rate
commands and the lateral-drift penalties keep an honest, controllable target
in the planar model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Annotated

import numpy as np

from .codec import EACH_NON_NEGATIVE, EACH_POSITIVE, NON_NEGATIVE, POSITIVE, Bound, Bounded

N_JOINTS = 6  # [hip_l, knee_l, ankle_l, hip_r, knee_r, ankle_r]
LEFT = 0
RIGHT = 1


PER_JOINT = Annotated[tuple[float, ...], Bound(  # one value per joint, in joint order
    lambda v: len(v) == N_JOINTS, f"{{name}} must have {N_JOINTS} values, got {{value}}")]


@dataclass(frozen=True)
class BipedModel(Bounded):
    """The robot's parameters, and nothing derived from them: the physics
    reads the tuple fields as they are, and ``nominal``, ``lower`` and
    ``upper`` build a fresh array on each call.  Where a bound admits 0, a
    0 is no damping, no gain or no foot extent."""

    thigh_len: Annotated[float, POSITIVE] = 0.42
    shin_len: Annotated[float, POSITIVE] = 0.42
    foot_len: Annotated[float, NON_NEGATIVE] = 0.05
    foot_half: Annotated[float, NON_NEGATIVE] = 0.09  # heel/toe half-spacing of the flat foot
    base_mass: Annotated[float, POSITIVE] = 12.0
    base_inertia: Annotated[float, POSITIVE] = 0.8
    base_half_height: Annotated[float, NON_NEGATIVE] = 0.12
    joint_inertia: Annotated[float, POSITIVE] = 0.12
    joint_damping: Annotated[float, NON_NEGATIVE] = 1.5
    kp: Annotated[PER_JOINT, EACH_NON_NEGATIVE] = (220.0, 220.0, 60.0) * 2  # hip, knee, ankle
    kd: Annotated[PER_JOINT, EACH_NON_NEGATIVE] = (6.0, 6.0, 2.0) * 2
    torque_limit: Annotated[PER_JOINT, EACH_POSITIVE] = (120.0, 120.0, 45.0) * 2
    action_scale: Annotated[float, POSITIVE] = 0.25  # rad of joint target per unit action
    action_bound: Annotated[float, POSITIVE] = 4.0
    nominal_pose: PER_JOINT = (0.35, -0.7, 0.35, 0.35, -0.7, 0.35)
    joint_lower: PER_JOINT = (-1.6, -2.4, -1.2, -1.6, -2.4, -1.2)
    joint_upper: PER_JOINT = (1.6, -0.02, 1.2, 1.6, -0.02, 1.2)
    joint_vel_limit: Annotated[float, POSITIVE] = 20.0
    gravity: Annotated[float, POSITIVE] = 9.81
    # spring-damper normal contact, anchored-spring (stick/slip) friction;
    # damping ramps in with penetration so touchdown does not slam
    contact_kn: Annotated[float, POSITIVE] = 8000.0
    contact_dn: Annotated[float, NON_NEGATIVE] = 300.0
    contact_damp_ramp: Annotated[float, POSITIVE] = 0.004  # m of penetration for full damping
    contact_force_cap: Annotated[float, POSITIVE] = 900.0  # N per point, penetration guard
    contact_kt: Annotated[float, POSITIVE] = 4000.0
    contact_ct: Annotated[float, NON_NEGATIVE] = 120.0
    # unmodeled 3-D/arm dissipation; also tames airborne tumbling
    base_rot_damping: Annotated[float, NON_NEGATIVE] = 1.5
    # yaw-proxy dynamics
    yaw_inertia: Annotated[float, POSITIVE] = 0.5
    yaw_damping: Annotated[float, NON_NEGATIVE] = 2.0
    yaw_gain: Annotated[float, NON_NEGATIVE] = 0.35

    def __post_init__(self):
        super().__post_init__()
        for i, (lo, q, hi) in enumerate(zip(self.joint_lower, self.nominal_pose, self.joint_upper)):
            if not (lo < hi and lo <= q <= hi):
                raise ValueError(f"joint {i} must have joint_lower < joint_upper and nominal_pose "
                                 f"between them, got [{lo}, {hi}] and {q}")

    def nominal(self) -> np.ndarray:
        return np.array(self.nominal_pose, dtype=np.float64)

    def lower(self) -> np.ndarray:
        return np.array(self.joint_lower, dtype=np.float64)

    def upper(self) -> np.ndarray:
        return np.array(self.joint_upper, dtype=np.float64)

    def standing_height(self, pose: np.ndarray | None = None) -> float:
        """Base-to-ground distance when the lowest foot touches down."""
        q = self.nominal() if pose is None else np.asarray(pose, dtype=np.float64)
        drop = 0.0
        for side in (LEFT, RIGHT):
            _, _, (fx, fz) = leg_points(self, 0.0, 0.0, 0.0, q[3 * side : 3 * side + 3])
            drop = max(drop, -fz)
        return drop


def leg_points(
    model: BipedModel,
    base_x: float,
    base_z: float,
    pitch: float,
    q: np.ndarray,
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """World positions of (knee, ankle, foot) for one leg's joint triple q."""
    a1 = pitch + q[0]
    a2 = a1 + q[1]
    a3 = a2 + q[2]
    kx = base_x + model.thigh_len * math.sin(a1)
    kz = base_z - model.thigh_len * math.cos(a1)
    ax = kx + model.shin_len * math.sin(a2)
    az = kz - model.shin_len * math.cos(a2)
    fx = ax + model.foot_len * math.sin(a3)
    fz = az - model.foot_len * math.cos(a3)
    return (kx, kz), (ax, az), (fx, fz)


# The float state of one env: one float64 row, a field at its columns.  The
# physics runs on it as a list of Python floats (``row.tolist()``), the
# rewards read it as ``[N, STATE_WIDTH]`` rows; ``BipedState`` names it.
X, Z, PITCH, VX, VZ, PITCH_RATE, YAW_RATE, HEADING, Y_OFFSET, TIME = range(10)
Q = 10  # joint positions; the integrated state ends with the joint velocities
QD = Q + N_JOINTS
QDD = QD + N_JOINTS  # joint accelerations over the last control step
TAU = QDD + N_JOINTS  # joint torques averaged over the last control step
FOOT = TAU + N_JOINTS  # foot centers [left, right] x [x, z]
FOOT_VEL = FOOT + 4
CONTACT = FOOT_VEL + 4  # [left, right], 1.0 in contact
FORCE = CONTACT + 2  # contact forces [left, right] x [x, z]
KNEE = FORCE + 4  # knee heights above the local ground [left, right]
ANCHOR_X = KNEE + 2  # friction anchors [foot] x [heel, toe]
ANCHOR_ON = ANCHOR_X + 4  # 1.0 while an anchor holds
N_COLLISIONS = ANCHOR_ON + 4
ACTION = N_COLLISIONS + 1  # the last three actions, newest first: [3, N_JOINTS]
STATE_WIDTH = ACTION + 3 * N_JOINTS

# name -> (first column, shape) of each field
STATE_FIELDS = {
    **{name: (col, ()) for col, name in enumerate(
        ("x", "z", "pitch", "vx", "vz", "pitch_rate", "yaw_rate", "heading", "y_offset", "time"))},
    "joint_pos": (Q, (N_JOINTS,)),
    "joint_vel": (QD, (N_JOINTS,)),
    "joint_acc": (QDD, (N_JOINTS,)),
    "joint_torque": (TAU, (N_JOINTS,)),
    "foot_pos": (FOOT, (2, 2)),
    "foot_vel": (FOOT_VEL, (2, 2)),
    "contact": (CONTACT, (2,)),
    "contact_force": (FORCE, (2, 2)),
    "knee_heights": (KNEE, (2,)),
    "anchor_x": (ANCHOR_X, (2, 2)),
    "anchor_on": (ANCHOR_ON, (2, 2)),
    "n_collisions": (N_COLLISIONS, ()),
    "actions": (ACTION, (3, N_JOINTS)),
}


class BipedState:
    """A named view of one float state row (``STATE_FIELDS``): a scalar field
    reads as a Python float, an array field as a view of its columns, and
    assigning either writes the row.  Made without a row, it owns a zero
    row; keyword arguments then set fields.  Flags (``contact``,
    ``anchor_on``) are 1.0 or 0.0."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray | None = None, **fields):
        self.row = np.zeros(STATE_WIDTH) if row is None else row
        for name, value in fields.items():
            setattr(self, name, value)

    def copy(self) -> "BipedState":
        return BipedState(self.row.copy())


def _state_field(col: int, shape: tuple) -> property:
    if not shape:
        return property(lambda s: float(s.row[col]), lambda s, v: s.row.__setitem__(col, v))
    stop = col + math.prod(shape)

    def put(s, value):
        s.row[col:stop] = np.asarray(value, dtype=np.float64).reshape(-1)

    return property(lambda s: s.row[col:stop].reshape(shape), put)


for _name, (_col, _shape) in STATE_FIELDS.items():
    setattr(BipedState, _name, _state_field(_col, _shape))


def action_targets(model: BipedModel, action: list) -> list:
    """Joint-position targets for one action (constant across the substeps),
    as floats: ``action_scale * a + nominal`` per joint."""
    scale = model.action_scale
    return [scale * a + n for a, n in zip(action, model.nominal_pose)]


def pd_gains(model: BipedModel, kp_scale: float, kd_scale: float) -> tuple[list, list]:
    """An episode's PD gains: each joint's ``kp`` and ``kd`` times the DR
    draw's ``kp_scale`` and ``kd_scale``."""
    return list(map(mul, model.kp, repeat(kp_scale))), list(map(mul, model.kd, repeat(kd_scale)))


def contact_damping(model: BipedModel, restitution: float) -> float:
    """An episode's normal contact damping: restitution softens it, letting
    touchdown keep a share of its vertical momentum."""
    return model.contact_dn * (1.0 - 0.85 * restitution)


def pd_torques(
    model: BipedModel,
    s: list,
    target: list,
    kp: list,
    kd: list,
    motor_strength: float,
) -> list:
    """Target-position PD control on the float state ``s``: the torques
    toward ``target`` (see :func:`action_targets`), clipped to the limits.

    ``kp`` and ``kd`` are the episode's gains (:func:`pd_gains`) and
    ``motor_strength`` its DR draw, all fixed for the episode.
    """
    tau = []
    for kp_j, kd_j, lim, tgt, q, qd in zip(kp, kd, model.torque_limit, target, s[Q:QD], s[QD:QDD]):
        t = (kp_j * (tgt - q) - kd_j * qd) * motor_strength
        # np.minimum then np.maximum against +-lim: NaN passes, ties take lim
        if not t < lim and t == t:
            t = lim
        if not t > -lim and t == t:
            t = -lim
        tau.append(t)
    return tau


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip on one float: NaN passes through, a tie takes the bound."""
    if not x > lo and x == x:
        x = lo
    if not x < hi and x == x:
        x = hi
    return x


def substep(
    model: BipedModel,
    s: list,
    tau: list,
    terrain,
    dt: float,
    friction: float,
    dn: float,
    total_mass: float,
    com_shift: float,
    pitch_inertia: float,
) -> None:
    """One physics integration step (semi-implicit Euler) of the float state
    ``s`` (a ``STATE_WIDTH`` list), in place, over ``dt`` (the control period
    over the substeps).

    The rest are the episode's, fixed for it: ``friction`` scales the
    tangential force cap, ``dn`` is the normal contact damping
    (:func:`contact_damping`), ``total_mass`` the base's mass with the
    payload, ``com_shift`` its centre-of-mass offset and ``pitch_inertia``
    its pitch inertia (``base_inertia`` times the link-mass scale).  The
    expressions keep the operation order of the array formulation, so
    results are bit-identical to it.
    """
    # joints first: torque-driven servos (semi-implicit), then hard joint
    # stops that kill velocity into the limit
    q = s[Q:QD]
    qd = s[QD:QDD]
    damping, inertia = model.joint_damping, model.joint_inertia
    vlim = model.joint_vel_limit
    lower, upper = model.joint_lower, model.joint_upper
    at_stop = False
    for j in range(N_JOINTS):
        v = qd[j] + dt * ((tau[j] - damping * qd[j]) / inertia)
        # _clip(v, -vlim, vlim), inline: this runs for every joint
        if not v > -vlim and v == v:
            v = -vlim
        if not v < vlim and v == v:
            v = vlim
        qd[j] = v
        p = q[j] + dt * v
        q[j] = p
        if p < lower[j] or p > upper[j]:
            at_stop = True
    if at_stop:
        for j in range(N_JOINTS):
            p, v = q[j], qd[j]
            if (p < lower[j] and v < 0) or (p > upper[j] and v > 0):
                qd[j] = 0.0
            q[j] = _clip(p, lower[j], upper[j])
    s[Q:QD] = q
    s[QD:QDD] = qd

    # contact loop; terrain cells are read through the heightfield's views
    bx, bz = s[X], s[Z]
    vx, vz = s[VX], s[VZ]
    pitch, pr = s[PITCH], s[PITCH_RATE]
    l1, l2, l3, fh = model.thigh_len, model.shin_len, model.foot_len, model.foot_half
    f_x = 0.0
    f_z = -total_mass * model.gravity
    torque = 0.0
    cosp = math.cos(pitch)
    com_x = bx + com_shift * cosp
    com_z = bz - com_shift * math.sin(pitch)
    kn, kt, ct = model.contact_kn, model.contact_kt, model.contact_ct
    damp_ramp, force_cap = model.contact_damp_ramp, model.contact_force_cap
    heights, void, cell_at = terrain.height_view, terrain.void_view, terrain.cell_at
    contact = [False, False]

    for side in (LEFT, RIGHT):
        q1, q2, q3 = q[3 * side], q[3 * side + 1], q[3 * side + 2]
        qd1, qd2, qd3 = qd[3 * side], qd[3 * side + 1], qd[3 * side + 2]
        a1 = pitch + q1
        a2 = a1 + q2
        a3 = a2 + q3
        s1, c1 = math.sin(a1), math.cos(a1)
        s2, c2 = math.sin(a2), math.cos(a2)
        s3, c3 = math.sin(a3), math.cos(a3)
        kx = bx + l1 * s1
        kz = bz - l1 * c1
        fx = kx + l2 * s2 + l3 * s3
        fz = kz - l2 * c2 - l3 * c3
        j02 = l3 * c3
        j12 = l3 * s3
        j01 = l2 * c2 + j02
        j11 = l2 * s2 + j12
        j00 = l1 * c1 + j01
        j10 = l1 * s1 + j11
        # foot-center velocity = base translation + pitch sweep + joint sweep
        vfx = vx + j00 * (pr + qd1) + j01 * qd2 + j02 * qd3
        vfz = vz + j10 * (pr + qd1) + j11 * qd2 + j12 * qd3
        two = 2 * side
        s[FOOT + two] = fx
        s[FOOT + two + 1] = fz
        s[FOOT_VEL + two] = vfx
        s[FOOT_VEL + two + 1] = vfz

        in_contact = False
        force_x = force_z = 0.0
        s[KNEE + side] = kz - heights[cell_at(kx)]
        rate_sum = pr + qd1 + qd2 + qd3
        # heel and toe of the flat foot; the segment is horizontal at a3 = 0
        for pt, sgn in ((0, -1.0), (1, 1.0)):
            on, anchor = ANCHOR_ON + two + pt, ANCHOR_X + two + pt
            px = fx + sgn * fh * c3
            pz = fz + sgn * fh * s3
            i = cell_at(px)
            fcz = 0.0
            if not void[i]:
                pen = heights[i] - pz
                if not pen <= 0.0:
                    # the heel/toe offset swings with every angle in the chain
                    vpx = vfx - sgn * fh * s3 * rate_sum
                    vpz = vfz + sgn * fh * c3 * rate_sum
                    ramp = min(pen / damp_ramp, 1.0)
                    fcz = kn * pen - dn * ramp * vpz
            if fcz <= 0.0:
                # void cell, no penetration, or the damper pulls: no contact
                s[on] = 0.0
                continue
            fcz = min(fcz, force_cap)
            # anchored tangential spring: stick until the friction cone slips
            if not s[on]:
                s[on] = 1.0
                s[anchor] = px
            fcx = -kt * (px - s[anchor]) - ct * vpx
            cap = friction * fcz
            if fcx > cap:
                fcx = cap
                s[anchor] = px + (fcx + ct * vpx) / kt
            elif fcx < -cap:
                fcx = -cap
                s[anchor] = px + (fcx + ct * vpx) / kt
            in_contact = True
            force_x += fcx
            force_z += fcz
            f_x += fcx
            f_z += fcz
            torque += (px - com_x) * fcz - (pz - com_z) * fcx
        contact[side] = in_contact
        s[CONTACT + side] = 1.0 if in_contact else 0.0
        s[FORCE + two] = force_x
        s[FORCE + two + 1] = force_z

    # base (semi-implicit: velocities first)
    torque -= model.base_rot_damping * pr
    vx += dt * f_x / total_mass
    vz += dt * f_z / total_mass
    pr += dt * torque / pitch_inertia
    s[VX] = vx
    s[VZ] = vz
    s[PITCH_RATE] = pr
    s[X] = bx + dt * vx
    s[Z] = bz + dt * vz
    s[PITCH] = pitch + dt * pr

    # yaw proxy: hip-torque asymmetry turns the robot while grounded
    grounded = contact[0] or contact[1]
    yaw_tau = model.yaw_gain * (tau[0] - tau[3]) * (1.0 if grounded else 0.0)
    yr = s[YAW_RATE]
    yr += dt * (yaw_tau - model.yaw_damping * yr) / model.yaw_inertia
    s[YAW_RATE] = yr
    s[HEADING] = s[HEADING] + dt * yr
    s[Y_OFFSET] = s[Y_OFFSET] + dt * yr * vx * 0.5

    s[TIME] += dt
