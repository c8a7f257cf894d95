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
from dataclasses import dataclass, field

import numpy as np

N_JOINTS = 6  # [hip_l, knee_l, ankle_l, hip_r, knee_r, ankle_r]
LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class BipedModel:
    """The robot's parameters, and nothing derived from them: the physics
    reads the tuple fields as they are, and ``nominal``, ``lower`` and
    ``upper`` build a fresh array on each call."""

    thigh_len: float = 0.42
    shin_len: float = 0.42
    foot_len: float = 0.05
    foot_half: float = 0.09  # heel/toe half-spacing of the flat foot segment
    base_mass: float = 12.0
    base_inertia: float = 0.8
    base_half_height: float = 0.12
    joint_inertia: float = 0.12
    joint_damping: float = 1.5
    kp: tuple[float, ...] = (220.0, 220.0, 60.0) * 2  # hip, knee, ankle
    kd: tuple[float, ...] = (6.0, 6.0, 2.0) * 2
    torque_limit: tuple[float, ...] = (120.0, 120.0, 45.0) * 2
    action_scale: float = 0.25  # rad of joint target per unit action
    action_bound: float = 4.0
    nominal_pose: tuple[float, ...] = (0.35, -0.7, 0.35, 0.35, -0.7, 0.35)
    joint_lower: tuple[float, ...] = (-1.6, -2.4, -1.2, -1.6, -2.4, -1.2)
    joint_upper: tuple[float, ...] = (1.6, -0.02, 1.2, 1.6, -0.02, 1.2)
    joint_vel_limit: float = 20.0
    gravity: float = 9.81
    # spring-damper normal contact, anchored-spring (stick/slip) friction;
    # damping ramps in with penetration so touchdown does not slam
    contact_kn: float = 8000.0
    contact_dn: float = 300.0
    contact_damp_ramp: float = 0.004  # m of penetration for full damping
    contact_force_cap: float = 900.0  # N per point, kinematic-penetration guard
    contact_kt: float = 4000.0
    contact_ct: float = 120.0
    # unmodeled 3-D/arm dissipation; also tames airborne tumbling
    base_rot_damping: float = 1.5
    # yaw-proxy dynamics
    yaw_inertia: float = 0.5
    yaw_damping: float = 2.0
    yaw_gain: float = 0.35

    def __post_init__(self):
        # each is a length, a divisor or a bound the physics reads
        for name in ("thigh_len", "shin_len", "base_mass", "base_inertia", "joint_inertia",
                     "action_bound", "contact_damp_ramp", "contact_kt", "yaw_inertia"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.foot_len >= 0.0:
            raise ValueError("foot_len must be non-negative")

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


@dataclass
class BipedState:
    """Full mutable simulation state plus per-control-step derived quantities."""

    x: float = 0.0
    z: float = 0.0
    pitch: float = 0.0
    vx: float = 0.0
    vz: float = 0.0
    pitch_rate: float = 0.0
    yaw_rate: float = 0.0
    heading: float = 0.0
    y_offset: float = 0.0
    joint_pos: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    joint_vel: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    joint_acc: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    joint_torque: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    foot_pos: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    foot_vel: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    contact: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=bool))
    contact_force: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    knee_heights: np.ndarray = field(default_factory=lambda: np.zeros(2))
    # friction anchors per [foot][heel, toe]
    anchor_x: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    anchor_on: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), dtype=bool))
    n_collisions: int = 0
    time: float = 0.0

    def copy(self) -> "BipedState":
        c = BipedState(
            x=self.x, z=self.z, pitch=self.pitch, vx=self.vx, vz=self.vz,
            pitch_rate=self.pitch_rate, yaw_rate=self.yaw_rate,
            heading=self.heading, y_offset=self.y_offset,
            joint_pos=self.joint_pos.copy(), joint_vel=self.joint_vel.copy(),
            joint_acc=self.joint_acc.copy(), joint_torque=self.joint_torque.copy(),
            foot_pos=self.foot_pos.copy(), foot_vel=self.foot_vel.copy(),
            contact=self.contact.copy(), contact_force=self.contact_force.copy(),
            knee_heights=self.knee_heights.copy(),
            anchor_x=self.anchor_x.copy(), anchor_on=self.anchor_on.copy(),
            n_collisions=self.n_collisions, time=self.time,
        )
        return c


def action_targets(model: BipedModel, action: np.ndarray) -> np.ndarray:
    """Joint-position targets for one action (constant across the substeps)."""
    return model.action_scale * action + model.nominal_pose


def pd_torques(
    model: BipedModel,
    state: BipedState,
    target: np.ndarray,
    kp_scale: float,
    kd_scale: float,
    motor_strength: float,
) -> np.ndarray:
    """Target-position PD control: torque toward ``target`` (see :func:`action_targets`)."""
    tau = []
    for kp, kd, lim, tgt, q, qd in zip(
        model.kp, model.kd, model.torque_limit,
        target.tolist(), state.joint_pos.tolist(), state.joint_vel.tolist(),
    ):
        t = (kp * kp_scale * (tgt - q) - kd * kd_scale * qd) * motor_strength
        # np.minimum then np.maximum against +-lim: NaN passes, ties take lim
        if not t < lim and t == t:
            t = lim
        if not t > -lim and t == t:
            t = -lim
        tau.append(t)
    return np.array(tau)


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip on one float: NaN passes through, a tie takes the bound."""
    if not x > lo and x == x:
        x = lo
    if not x < hi and x == x:
        x = hi
    return x


def substep(
    model: BipedModel,
    state: BipedState,
    tau: np.ndarray,
    terrain,
    dt: float,
    friction: float,
    restitution: float,
    total_mass: float,
    com_shift: float,
    inertia_scale: float = 1.0,
) -> None:
    """One physics integration step (semi-implicit Euler), in place.

    Restitution softens the normal contact damping, letting touchdown keep a
    share of its vertical momentum; friction scales the tangential force cap.

    Everything below runs on Python floats: each state array is read once with
    ``tolist`` and written back once, and the expressions keep the operation
    order of the array formulation, so results are bit-identical to it.
    """
    # joints first: torque-driven servos (semi-implicit), then hard joint
    # stops that kill velocity into the limit
    q = state.joint_pos.tolist()
    qd = state.joint_vel.tolist()
    tq = tau.tolist()
    damping, inertia = model.joint_damping, model.joint_inertia
    vlim = model.joint_vel_limit
    lower, upper = model.joint_lower, model.joint_upper
    at_stop = False
    for j in range(N_JOINTS):
        v = _clip(qd[j] + dt * ((tq[j] - damping * qd[j]) / inertia), -vlim, vlim)
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
    state.joint_pos[:] = q
    state.joint_vel[:] = qd

    # contact loop; terrain cells are read through the heightfield's views
    bx, bz = float(state.x), float(state.z)
    vx, vz = float(state.vx), float(state.vz)
    pitch, pr = float(state.pitch), float(state.pitch_rate)
    l1, l2, l3, fh = model.thigh_len, model.shin_len, model.foot_len, model.foot_half
    f_x = 0.0
    f_z = -total_mass * model.gravity
    torque = 0.0
    cosp = math.cos(pitch)
    com_x = bx + com_shift * cosp
    com_z = bz - com_shift * math.sin(pitch)
    dn = model.contact_dn * (1.0 - 0.85 * restitution)
    kn, kt, ct = model.contact_kn, model.contact_kt, model.contact_ct
    damp_ramp, force_cap = model.contact_damp_ramp, model.contact_force_cap
    heights, void, cell_at = terrain.height_view, terrain.void_view, terrain.cell_at
    anchor_on = state.anchor_on
    anchor_x = state.anchor_x
    on = anchor_on.tolist()
    ax = anchor_x.tolist()
    foot_pos = state.foot_pos
    foot_vel = state.foot_vel
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
        foot_pos[side, 0] = fx
        foot_pos[side, 1] = fz
        foot_vel[side, 0] = vfx
        foot_vel[side, 1] = vfz

        in_contact = False
        force_x = force_z = 0.0
        state.knee_heights[side] = kz - heights[cell_at(kx)]
        side_on = on[side]
        side_x = ax[side]
        rate_sum = pr + qd1 + qd2 + qd3
        # heel and toe of the flat foot; the segment is horizontal at a3 = 0
        for pt, sgn in ((0, -1.0), (1, 1.0)):
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
                if side_on[pt]:
                    side_on[pt] = False
                    anchor_on[side, pt] = False
                continue
            fcz = min(fcz, force_cap)
            # anchored tangential spring: stick until the friction cone slips
            if not side_on[pt]:
                side_on[pt] = True
                anchor_on[side, pt] = True
                side_x[pt] = anchor_x[side, pt] = px
            fcx = -kt * (px - side_x[pt]) - ct * vpx
            cap = friction * fcz
            if fcx > cap:
                fcx = cap
                side_x[pt] = anchor_x[side, pt] = px + (fcx + ct * vpx) / kt
            elif fcx < -cap:
                fcx = -cap
                side_x[pt] = anchor_x[side, pt] = px + (fcx + ct * vpx) / kt
            in_contact = True
            force_x += fcx
            force_z += fcz
            f_x += fcx
            f_z += fcz
            torque += (px - com_x) * fcz - (pz - com_z) * fcx
        contact[side] = state.contact[side] = in_contact
        state.contact_force[side, 0] = force_x
        state.contact_force[side, 1] = force_z

    # base (semi-implicit: velocities first)
    torque -= model.base_rot_damping * pr
    vx += dt * f_x / total_mass
    vz += dt * f_z / total_mass
    pr += dt * torque / (model.base_inertia * inertia_scale)
    state.vx = vx
    state.vz = vz
    state.pitch_rate = pr
    state.x = bx + dt * vx
    state.z = bz + dt * vz
    state.pitch = pitch + dt * pr

    # yaw proxy: hip-torque asymmetry turns the robot while grounded
    grounded = contact[0] or contact[1]
    yaw_tau = model.yaw_gain * (tq[0] - tq[3]) * (1.0 if grounded else 0.0)
    yr = float(state.yaw_rate)
    yr += dt * (yaw_tau - model.yaw_damping * yr) / model.yaw_inertia
    state.yaw_rate = yr
    state.heading = float(state.heading) + dt * yr
    state.y_offset = float(state.y_offset) + dt * yr * vx * 0.5

    state.time += dt
