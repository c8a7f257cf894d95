"""Independent oracles shared by the test suite.

Everything here is deliberately written straight from definitions (central
finite differences, naive re-evaluation loops) and never calls the library's
backward paths, so the two routes stay independent.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
from collections import deque

import numpy as np

from gaitrl.amp import DiscriminatorSet
from gaitrl.bench import BenchmarkReport, CellResult, PolicyController
from gaitrl.biped import ACTION, N_JOINTS, BipedState
from gaitrl.codec import write_json
from gaitrl.config import RunConfig
from gaitrl.env import BLOCKS, DR_RANGES, CommandState, DRConfig, EnvConfig, TerrainEnv, one_hot
from gaitrl.nets import AdamState, DenseNet, Layer, finite_input, net_forward
from gaitrl.policy import (
    ActorCritic,
    LatentTable,
    PolicyArch,
    PolicyMode,
    ResidualModule,
)
from gaitrl.refmotion import GAIT_HIGH_KNEES, GAIT_SQUAT, ReferenceClip
from gaitrl.rewards import (
    RewardBreakdown,
    RewardConfig,
    gait_rewards,
    locomotion_rewards,
    total_reward,
)
from gaitrl.terrain import (
    BENCH_RANGES,
    GAP_RANGE,
    ROUGH_RANGE,
    STAIR_RANGE,
    STEP_RANGE,
    TERRAIN_KINDS,
    VOID_DEPTH,
    Heightfield,
    Obstacle,
)


def central_diff_params(f, params: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradient of scalar f() w.r.t. each array in params.

    f takes no arguments and reads the (mutated) arrays.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = f()
            p[idx] = orig - step
            lo = f()
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise relative error with an absolute floor in the denominator."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def mlp_eval(layers, x):
    """Straight-line re-evaluation of an affine+activation chain.

    layers: iterable of (W, b, activation-name) tuples; x: 1-D input.
    """
    z = np.asarray(x, dtype=float)
    for w, b, act in layers:
        s = w @ z + b
        if act == "tanh":
            z = np.tanh(s)
        elif act == "relu":
            z = np.where(s > 0, s, 0.0)
        elif act == "elu":
            z = np.where(s > 0, s, np.exp(np.minimum(s, 0.0)) - 1.0)
        elif act == "identity":
            z = s
        else:
            raise ValueError(act)
    return z


def discounted_advantages(rewards, values, dones, gamma, lam):
    """Brute-force GAE: for each t, sum the discounted deltas forward."""
    T = len(rewards)
    adv = np.zeros(T)
    for t in range(T):
        total = 0.0
        coef = 1.0
        for k in range(t, T):
            delta = rewards[k] + gamma * values[k + 1] * (1.0 - dones[k]) - values[k]
            total += coef * delta
            if dones[k]:
                break
            coef *= gamma * lam
        adv[t] = total
    return adv


def fk_leg_points(base_x, base_z, pitch, hip, knee, ankle, l1, l2, l3):
    """Planar 3-link leg forward kinematics: returns (knee, ankle, foot) xz points."""
    a1 = pitch + hip
    a2 = a1 + knee
    a3 = a2 + ankle
    kx = base_x + l1 * math.sin(a1)
    kz = base_z - l1 * math.cos(a1)
    ax = kx + l2 * math.sin(a2)
    az = kz - l2 * math.cos(a2)
    fx = ax + l3 * math.sin(a3)
    fz = az - l3 * math.cos(a3)
    return (kx, kz), (ax, az), (fx, fz)


def standing_drop(frame, l1, l2, l3):
    """Vertical base-to-lowest-foot distance implied by one joint-angle frame."""
    drops = []
    for side in (0, 1):
        hip, knee, ankle = frame[3 * side : 3 * side + 3]
        _, _, (fx, fz) = fk_leg_points(0.0, 0.0, 0.0, hip, knee, ankle, l1, l2, l3)
        drops.append(-fz)
    return max(drops)


# -- numpy reference versions of the per-env control step ----------------------
#
# These are the array-at-a-time formulations the library's scalar hot path
# replaced.  The library computes the same expressions on Python floats in the
# same order; tests/test_hotpath_oracle.py holds the two to bit equality.
# Terrain cells are read straight from the heightfield's arrays here, not
# through its lookup methods.


def _cell(terrain, x):
    i = int(x * terrain._inv_cell)
    if i < 0:
        return 0
    return i if i < terrain._last else terrain._last


def ref_pd_torques(model, state, action, kp_scale, kd_scale, motor_strength, target=None):
    if target is None:
        target = model.action_scale * action + model.nominal()
    kp, kd, tlim = np.array(model.kp), np.array(model.kd), np.array(model.torque_limit)
    tau = kp * kp_scale * (target - state.joint_pos) - kd * kd_scale * state.joint_vel
    tau *= motor_strength
    np.minimum(tau, tlim, out=tau)
    np.maximum(tau, -tlim, out=tau)
    return tau


def ref_substep(model, state, tau, terrain, dt, friction, restitution, total_mass,
                com_shift, inertia_scale=1.0):
    qdd = (tau - model.joint_damping * state.joint_vel) / model.joint_inertia
    state.joint_vel += dt * qdd
    np.clip(state.joint_vel, -model.joint_vel_limit, model.joint_vel_limit, out=state.joint_vel)
    state.joint_pos += dt * state.joint_vel
    lo, hi = model.lower(), model.upper()
    below = state.joint_pos < lo
    above = state.joint_pos > hi
    if below.any() or above.any():
        state.joint_pos = np.clip(state.joint_pos, lo, hi)
        state.joint_vel[below & (state.joint_vel < 0)] = 0.0
        state.joint_vel[above & (state.joint_vel > 0)] = 0.0

    q = state.joint_pos.tolist()
    qd = state.joint_vel.tolist()
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

    for side in (0, 1):
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
        vfx = vx + j00 * (pr + qd1) + j01 * qd2 + j02 * qd3
        vfz = vz + j10 * (pr + qd1) + j11 * qd2 + j12 * qd3
        state.foot_pos[side, 0] = fx
        state.foot_pos[side, 1] = fz
        state.foot_vel[side, 0] = vfx
        state.foot_vel[side, 1] = vfz
        state.knee_heights[side] = kz - (
            terrain.heights[_cell(terrain, kx)] if terrain is not None else 0.0
        )

        in_contact = False
        force_x = force_z = 0.0
        if terrain is not None:
            rate_sum = pr + qd1 + qd2 + qd3
            for pt, sgn in ((0, -1.0), (1, 1.0)):
                px = fx + sgn * fh * c3
                pz = fz + sgn * fh * s3
                if terrain.void[_cell(terrain, px)]:
                    state.anchor_on[side, pt] = False
                    continue
                pen = terrain.heights[_cell(terrain, px)] - pz
                if pen <= 0.0:
                    state.anchor_on[side, pt] = False
                    continue
                vpx = vfx - sgn * fh * s3 * rate_sum
                vpz = vfz + sgn * fh * c3 * rate_sum
                ramp = min(pen / model.contact_damp_ramp, 1.0)
                fcz = kn * pen - dn * ramp * vpz
                if fcz <= 0.0:
                    state.anchor_on[side, pt] = False
                    continue
                fcz = min(fcz, model.contact_force_cap)
                if not state.anchor_on[side, pt]:
                    state.anchor_on[side, pt] = True
                    state.anchor_x[side, pt] = px
                fcx = -kt * (px - state.anchor_x[side, pt]) - ct * vpx
                cap = friction * fcz
                if fcx > cap:
                    fcx = cap
                    state.anchor_x[side, pt] = px + (fcx + ct * vpx) / kt
                elif fcx < -cap:
                    fcx = -cap
                    state.anchor_x[side, pt] = px + (fcx + ct * vpx) / kt
                in_contact = True
                force_x += fcx
                force_z += fcz
                f_x += fcx
                f_z += fcz
                torque += (px - com_x) * fcz - (pz - com_z) * fcx
        state.contact[side] = in_contact
        state.contact_force[side, 0] = force_x
        state.contact_force[side, 1] = force_z

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

    grounded = bool(state.contact[0] or state.contact[1])
    yaw_tau = model.yaw_gain * float(tau[0] - tau[3]) * (1.0 if grounded else 0.0)
    yr = float(state.yaw_rate)
    yr += dt * (yaw_tau - model.yaw_damping * yr) / model.yaw_inertia
    state.yaw_rate = yr
    state.heading = float(state.heading) + dt * yr
    state.y_offset = float(state.y_offset) + dt * yr * vx * 0.5

    state.time += dt


def ref_locomotion_raw(state, commands, a_t, a_prev, a_prev2, cfg, model):
    """Raw locomotion terms, in the library's key order, with the soft limits
    derived from ``cfg`` on every call."""
    lower, upper = model.lower(), model.upper()
    mid = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower) * cfg.soft_limit_frac
    soft_lo, soft_hi = mid - half, mid + half
    tmax = np.asarray(model.torque_limit) * cfg.torque_soft_frac
    nominal = model.nominal()
    st = state
    jv = st.joint_vel
    jt = st.joint_torque
    jp = st.joint_pos
    abs_jv = np.abs(jv)
    abs_jt = np.abs(jt)
    d1 = a_t - a_prev
    d2 = d1 - (a_prev - a_prev2)
    verr = commands.v_cmd - st.vx
    werr = commands.w_cmd - st.yaw_rate
    f = st.contact_force
    stumble = float(
        (st.contact[0] and abs(f[0, 0]) >= 3.0 * abs(f[0, 1]))
        or (st.contact[1] and abs(f[1, 0]) >= 3.0 * abs(f[1, 1]))
    )
    out = np.maximum(soft_lo - jp, 0.0)
    out += np.maximum(jp - soft_hi, 0.0)
    sep = abs(st.foot_pos[0, 0] - st.foot_pos[1, 0])
    slip = float(
        st.contact[0] * math.hypot(st.foot_vel[0, 0], st.foot_vel[0, 1])
        + st.contact[1] * math.hypot(st.foot_vel[1, 0], st.foot_vel[1, 1])
    )
    return {
        "track_lin_vel": math.exp(-(verr * verr) / cfg.tracking_sigma),
        "track_ang_vel": math.exp(-(werr * werr) / cfg.tracking_sigma),
        "joint_acc": float(np.sum(st.joint_acc * st.joint_acc)),
        "joint_vel": float(np.sum(jv * jv)),
        "action_rate": float(np.sum(d1 * d1)),
        "action_smoothness": float(np.sum(d2 * d2)),
        "ang_vel_pitch": st.pitch_rate * st.pitch_rate,
        "joint_power": float(np.sum(abs_jt * abs_jv)),
        "feet_stumble": stumble,
        "posture_deviation": float(sum(abs(jp[j] - nominal[j]) for j in (2, 5))),  # the ankles
        "joint_pos_limits": float(out.sum()),
        "joint_vel_limits": float(np.maximum(abs_jv - cfg.joint_vel_soft, 0.0).sum()),
        "torque_limits": float(np.maximum(abs_jt - tmax, 0.0).sum()),
        "feet_distance": -max(cfg.d_min_feet - sep, 0.0),
        "feet_slippage": slip,
        "feet_force": float(
            max(f[0, 1] - cfg.f_min_force, 0.0) + max(f[1, 1] - cfg.f_min_force, 0.0)
        ),
        "collision": float(st.n_collisions),
        "stuck": float(
            abs(st.vx) <= cfg.stuck_v
            and math.hypot(commands.v_cmd, commands.w_cmd) >= cfg.stuck_cmd
        ),
        "cheat": float(abs(st.heading) > cfg.heading_limit),
        "y_offset": abs(st.y_offset),
    }


def ref_locomotion_total(raw, cfg):
    """Weighted sum of the raw terms, accumulated in key order."""
    total = 0.0
    for name, value in raw.items():
        total += cfg.weights.get(name, 0.0) * value
    return total


# -- the per-env float rewards ------------------------------------------------
#
# The library scores N envs in one call (gaitrl.rewards); these are the
# per-env float formulations it replaced, its reference bit for bit.  The
# per-joint rows run on Python floats: each sum starts at 0.0 and adds the
# joints in index order.  ``x if x > 0.0 or x != x else 0.0`` is
# np.maximum(x, 0.0) as the terms take it: NaN passes and -0.0 becomes 0.0.


@dataclasses.dataclass
class RefBreakdown:
    raw: dict = dataclasses.field(default_factory=dict)
    weighted: dict = dataclasses.field(default_factory=dict)
    r_l: float = 0.0
    r_s: float = 0.0
    r_g: float = 0.0
    total: float = 0.0


def ref_locomotion_rewards(state, commands, a_t, a_prev, a_prev2, cfg, model) -> RefBreakdown:
    st = state
    jp = st.joint_pos.tolist()
    jv = st.joint_vel.tolist()
    ja = st.joint_acc.tolist()
    jt = st.joint_torque.tolist()
    at, ap, app = np.asarray(a_t).tolist(), np.asarray(a_prev).tolist(), np.asarray(a_prev2).tolist()
    frac, tfrac, vsoft = cfg.soft_limit_frac, cfg.torque_soft_frac, cfg.joint_vel_soft
    acc_sq = vel_sq = rate_sq = smooth_sq = power = pos_lim = vel_lim = torque_lim = 0.0
    for j, (lo, hi, tlim) in enumerate(zip(model.joint_lower, model.joint_upper, model.torque_limit)):
        q, v, t = jp[j], jv[j], jt[j]
        abs_v, abs_t = abs(v), abs(t)
        d1 = at[j] - ap[j]
        d2 = d1 - (ap[j] - app[j])
        acc_sq += ja[j] * ja[j]
        vel_sq += v * v
        rate_sq += d1 * d1
        smooth_sq += d2 * d2
        power += abs_t * abs_v
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * frac
        below = (mid - half) - q
        above = q - (mid + half)
        pos_lim += (below if below > 0.0 or below != below else 0.0) + (
            above if above > 0.0 or above != above else 0.0
        )
        over_v = abs_v - vsoft
        vel_lim += over_v if over_v > 0.0 or over_v != over_v else 0.0
        over_t = abs_t - tlim * tfrac
        torque_lim += over_t if over_t > 0.0 or over_t != over_t else 0.0
    posture = 0.0
    for j in (2, 5):  # the ankles
        posture += abs(jp[j] - model.nominal_pose[j])
    verr = commands.v_cmd - st.vx
    werr = commands.w_cmd - st.yaw_rate
    (f_lx, f_lz), (f_rx, f_rz) = st.contact_force.tolist()
    (v_lx, v_lz), (v_rx, v_rz) = st.foot_vel.tolist()
    left, right = (bool(c) for c in st.contact.tolist())
    stumble = float(
        (left and abs(f_lx) >= 3.0 * abs(f_lz)) or (right and abs(f_rx) >= 3.0 * abs(f_rz))
    )
    (p_lx, _), (p_rx, _) = st.foot_pos.tolist()
    sep = abs(p_lx - p_rx)
    slip = float(left * math.hypot(v_lx, v_lz) + right * math.hypot(v_rx, v_rz))
    raw = {
        "track_lin_vel": math.exp(-(verr * verr) / cfg.tracking_sigma),
        "track_ang_vel": math.exp(-(werr * werr) / cfg.tracking_sigma),
        "joint_acc": acc_sq,
        "joint_vel": vel_sq,
        "action_rate": rate_sq,
        "action_smoothness": smooth_sq,
        "ang_vel_pitch": st.pitch_rate * st.pitch_rate,
        "joint_power": power,
        "feet_stumble": stumble,
        "posture_deviation": posture,
        "joint_pos_limits": pos_lim,
        "joint_vel_limits": vel_lim,
        "torque_limits": torque_lim,
        "feet_distance": -max(cfg.d_min_feet - sep, 0.0),
        "feet_slippage": slip,
        "feet_force": float(
            max(f_lz - cfg.f_min_force, 0.0) + max(f_rz - cfg.f_min_force, 0.0)
        ),
        "collision": float(st.n_collisions),
        "stuck": float(
            abs(st.vx) <= cfg.stuck_v
            and math.hypot(commands.v_cmd, commands.w_cmd) >= cfg.stuck_cmd
        ),
        "cheat": float(abs(st.heading) > cfg.heading_limit),
        "y_offset": abs(st.y_offset),
    }
    weighted = {}
    total = 0.0
    for name, value in raw.items():
        wv = cfg.weights[name] * value
        weighted[name] = wv
        total += wv
    return RefBreakdown(raw=raw, weighted=weighted, r_l=total)


def ref_gait_rewards(state, gait, cfg) -> RefBreakdown:
    bd = RefBreakdown()
    g = np.asarray(gait).tolist()
    active = g.index(max(g)) if any(g) else -1  # np.argmax: the first maximum

    knee = 0.0
    if active == GAIT_HIGH_KNEES:
        err = abs(cfg.knee_lift_target - float(np.max(state.knee_heights)))
        knee = float(np.exp(-err / cfg.gait_sigma))
    bd.raw["knee_height"] = knee
    bd.weighted["knee_height"] = cfg.weight("knee_height") * knee

    squat = 0.0
    if active == GAIT_SQUAT:
        base_height = state.z - min(state.foot_pos[0, 1], state.foot_pos[1, 1])
        squat = -((cfg.squat_height_target - base_height) ** 2)
    bd.raw["squat_height"] = squat
    bd.weighted["squat_height"] = cfg.weight("squat_height") * squat

    # the 0.0 start of the sum keeps a -0.0 pair at +0.0
    bd.r_g = 0.0 + bd.weighted["knee_height"] + bd.weighted["squat_height"]
    return bd


def ref_total_reward(loco, style_raw, gait_bd, cfg) -> RefBreakdown:
    r_s = cfg.style_weight * style_raw
    return RefBreakdown(
        raw={**loco.raw, **gait_bd.raw, "style": style_raw},
        weighted={**loco.weighted, **gait_bd.weighted, "style": r_s},
        r_l=loco.r_l,
        r_s=r_s,
        r_g=gait_bd.r_g,
        total=loco.r_l + r_s + gait_bd.r_g,
    )


# The library's batch calls on one env: its state with the three actions as
# one row, its commands as ``[[v_cmd, w_cmd]]``, and row 0 of the result by
# term name (``Scored``).


@dataclasses.dataclass
class Scored:
    """Row 0 of a library ``RewardBreakdown`` by term name, and the breakdown."""

    bd: RewardBreakdown

    raw = property(lambda self: dict(zip(self.bd.names, self.bd.raw[0].tolist())))
    weighted = property(lambda self: dict(zip(self.bd.names, self.bd.weighted[0].tolist())))
    r_l = property(lambda self: float(self.bd.r_l[0]))
    r_s = property(lambda self: float(self.bd.r_s[0]))
    r_g = property(lambda self: float(self.bd.r_g[0]))
    total = property(lambda self: float(self.bd.total[0]))


def state_row(state, a_t, a_prev, a_prev2) -> np.ndarray:
    """``[1, STATE_WIDTH]``: ``state``'s row with the three actions written in."""
    row = state.row.copy()
    row[ACTION:] = np.concatenate([a_t, a_prev, a_prev2])
    return row[None]


def no_rewards(n: int) -> RewardBreakdown:
    """A breakdown of ``n`` envs with no terms and zero sums."""
    return RewardBreakdown((), np.zeros((n, 0)), np.zeros((n, 0)), *(np.zeros(n) for _ in range(4)))


def score_locomotion(state, commands, a_t, a_prev, a_prev2, cfg, model) -> Scored:
    return Scored(locomotion_rewards(state_row(state, a_t, a_prev, a_prev2),
                                     np.array([[commands.v_cmd, commands.w_cmd]]), cfg, model))


def score_gait(state, gait, cfg) -> Scored:
    return Scored(gait_rewards(state.row[None], np.asarray(gait, dtype=np.float64)[None], cfg))


def score_total(loco: Scored, style_raw: float, gait_bd: Scored, cfg) -> Scored:
    return Scored(total_reward(loco.bd, np.array([style_raw]), gait_bd.bd, cfg))


# -- the per-env control step ---------------------------------------------------
#
# One env as it stepped before the envs became rows of a batch: array state,
# the array physics above, a deque of scans and the observation assembled
# row by row.  tests/test_batch_step.py holds the batch to it bit for bit.


def held_windows(buf, gait_id: int) -> np.ndarray:
    """The windows a ``WindowBuffer`` holds for ``gait_id``, oldest first (a copy)."""
    return buf._rings[gait_id][buf._rows(gait_id, np.arange(buf.size(gait_id)))]


def ref_o_t(state, commands, last_action) -> np.ndarray:
    """Proprioception in the fixed layout [w, g, c_v, q, qd, a_prev]."""
    return np.array([
        state.pitch_rate, state.yaw_rate,
        -math.sin(state.pitch), -math.cos(state.pitch),  # projected gravity
        commands.v_cmd, commands.w_cmd,
        *state.joint_pos.tolist(), *state.joint_vel.tolist(), *np.asarray(last_action).tolist(),
    ])


def heights_at(terrain, xs: np.ndarray) -> np.ndarray:
    """The heights under the points ``xs``: each point's cell as
    ``Heightfield.cell_at`` finds it, clamped to the track."""
    idx = (xs * (1.0 / terrain.cell_size)).astype(np.intp)
    return terrain.heights[np.clip(idx, 0, terrain.n_cells - 1)]


def env_commands(env: TerrainEnv) -> CommandState:
    """An env's episode commands, a copy of its raw row's."""
    v_cmd, w_cmd = env.batch.commands()[env.index].tolist()
    return CommandState(v_cmd, w_cmd, env.batch.gaits()[env.index].copy())


def save_config(cfg: RunConfig, path) -> None:
    """``cfg`` as a config file that ``gaitrl.config.load_config`` and the CLI read."""
    write_json(path, cfg, indent=2)


def disc_scores(net: DenseNet, windows: np.ndarray) -> np.ndarray:
    """A discriminator's scores of ``[B, window_dim]`` windows in one
    ``net_forward`` pass, checked finite: with ``B = 1`` per row, the
    reference that ``amp.style_reward`` scores each row against."""
    y, _ = net_forward(net, finite_input(windows, net.dtype))
    return y[:, 0]


def sample_height_scan(terrain, base_x, base_z, offsets, noise_sigma=0.0, bias=0.0, clip=1.5,
                       rng=None) -> np.ndarray:
    """Forward terrain heights relative to the base, with the sensor noise model."""
    vals = heights_at(terrain, base_x + offsets) - base_z
    if bias != 0.0:
        vals += bias
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise requires an rng")
        vals += rng.normal(0.0, noise_sigma, size=vals.shape)
    return np.clip(vals, -clip, clip)


def _ref_finite(st) -> bool:
    scalars = [st.x, st.z, st.pitch, st.vx, st.vz, st.pitch_rate, st.yaw_rate, st.heading,
               st.y_offset, st.time]
    return bool(np.isfinite(scalars).all() and np.isfinite(st.joint_pos).all()
                and np.isfinite(st.joint_vel).all())


class RefEnv:
    """One env's episodes, stepped one env at a time (see above)."""

    def __init__(self, model, cfg, seed):
        self.model, self.cfg = model, cfg
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))

    def reset(self, terrain, dr, commands) -> np.ndarray:
        cfg = self.cfg
        self.state, self.raw, self.bias = _ref_episode_start(
            self.model, cfg, self.rng, terrain, dr, commands)
        self.terrain, self.dr = terrain, dr
        self.commands = CommandState(commands.v_cmd, commands.w_cmd, np.array(commands.gait))
        self.mass = (self.model.base_mass + dr.payload) * dr.link_mass_scale
        zeros = np.zeros(N_JOINTS)
        self.last_action = self.prev_action = self.prev2_action = zeros
        n = dr.action_delay_steps(cfg.dt) + 1
        self.queue = deque([zeros] * n, maxlen=n)
        n = 2 + dr.scan_delay_steps()
        self.scans = deque([self.raw["scans"][cfg.scan_points:]] * n, maxlen=n)
        self.next_push = cfg.push_interval_s
        self.distance = self.state.x - cfg.spawn_x
        self.row = ref_row(self.model, cfg, self.raw)
        return self.row

    def set_gait(self, gait) -> None:
        self.commands.gait = self.raw["gait"] = np.array(gait, dtype=np.float64)
        self.row = ref_row(self.model, self.cfg, self.raw)

    def step(self, action) -> tuple[str, float]:
        """``(termination, distance)``; ``row`` is the observation after the step."""
        cfg, model, dr, st = self.cfg, self.model, self.dr, self.state
        action = np.asarray(action, dtype=np.float64)
        if not _ref_finite(st):
            return "diverged", self.distance
        if not st.time < self.next_push - 1e-9:
            st.vx += float(self.rng.uniform(-cfg.push_vel_max, cfg.push_vel_max))
            self.next_push += cfg.push_interval_s
        self.queue.append(action.copy())
        qd_before = st.joint_vel.copy()
        torque_acc = np.zeros(N_JOINTS)
        try:
            for _ in range(cfg.substeps):
                tau = ref_pd_torques(model, st, self.queue[0], dr.kp_scale, dr.kd_scale,
                                     dr.motor_strength)
                ref_substep(model, st, tau, self.terrain, cfg.dt / cfg.substeps, dr.friction,
                            dr.restitution, self.mass, dr.com_shift, dr.link_mass_scale)
                torque_acc += tau
        except (ArithmeticError, ValueError):
            if _ref_finite(st):
                raise
            return "diverged", self.distance
        if not _ref_finite(st):
            return "diverged", self.distance
        st.joint_torque = torque_acc / cfg.substeps
        st.joint_acc = (st.joint_vel - qd_before) / cfg.dt
        st.n_collisions = float(np.sum(st.knee_heights < 0.0))
        self.prev2_action, self.prev_action, self.last_action = (
            self.prev_action, self.last_action, action.copy())
        termination = self._termination()

        o = ref_o_t(st, self.commands, self.last_action)
        self.raw["hist"] = np.concatenate([self.raw["hist"][len(o):], o])
        self.raw["o"] = o
        self.scans.append(sample_height_scan(
            self.terrain, st.x, st.z, cfg.scan_offsets(), noise_sigma=self.dr.scan_noise,
            bias=self.bias, clip=cfg.scan_clip, rng=self.rng,
        ) if not cfg.blind else np.zeros(cfg.scan_points))
        self.raw["scans"] = np.concatenate([self.scans[0], self.scans[1]])
        self.raw["m"] = heights_at(self.terrain, st.x + cfg.elev_offsets()) - st.z
        (lx, lz), (rx, rz) = st.foot_pos.tolist()
        self.raw["e"] = np.concatenate(
            [[lx - st.x, lz - st.z, rx - st.x, rz - st.z, *st.contact.tolist(), st.vx, st.vz],
             self.dr.as_vector()])
        self.row = ref_row(model, cfg, self.raw)
        self.distance = st.x - cfg.spawn_x
        return termination, self.distance

    def _termination(self) -> str:
        st, terrain, cfg = self.state, self.terrain, self.cfg
        if st.time >= cfg.max_episode_s - 1e-9:
            return "timeout"
        if st.x < 0.05:
            return "out_of_bounds"
        if st.z - terrain.surface_at(st.x) < cfg.min_base_height or abs(st.pitch) > cfg.max_pitch:
            return "fall"
        for fx, fz in st.foot_pos.tolist():
            if terrain.is_void(fx) and fz < terrain.surface_at(fx) - 0.05:
                return "fall"
        if not terrain.is_void(st.x) and st.z - self.model.base_half_height < terrain.height_at(st.x):
            return "collision"
        return "none"


# -- reference batch-of-one policy inference -------------------------------------
#
# The array formulation the library's batch-of-one path replaced: np.stack
# copies for the batch, np.tile for the history shift/scale on every call,
# ``z @ W.T + b``, np.all(np.isfinite(...)), and the gate-weighted expert sum
# redone in Python for z'; and the critic's input as one privileged row that
# copied ``o`` and the history.  tests/test_inference_oracle.py holds the
# library to these bit for bit.  Network weights are read straight from the
# layers.


def ref_normalizer(model, env_cfg) -> dict:
    """Each block's ``(shift, scale)`` with the constants the policy applied
    before the env wrote normalized rows; a history row is an ``o``."""
    nj, d_o = N_JOINTS, 6 + 3 * N_JOINTS
    o_shift, o_scale = np.zeros(d_o), np.ones(d_o)
    o_scale[0:2] = 0.25  # angular rates
    o_shift[6 : 6 + nj] = model.nominal()
    o_scale[6 + nj : 6 + 2 * nj] = 0.05  # joint velocities
    o_scale[6 + 2 * nj :] = 0.25  # previous action
    H = model.standing_height()
    e_shift, e_scale = np.zeros(8 + len(DR_RANGES)), np.ones(8 + len(DR_RANGES))
    e_shift[1] = -H
    e_shift[3] = -H
    dr_lo = np.array([lo for lo, _ in DR_RANGES.values()])
    dr_hi = np.array([hi for _, hi in DR_RANGES.values()])
    e_shift[8:] = 0.5 * (dr_lo + dr_hi)
    e_scale[8:] = 2.0 / np.maximum(dr_hi - dr_lo, 1e-9)
    K, M = env_cfg.scan_points, env_cfg.elev_points
    return {"o": (o_shift, o_scale), "scans": (np.full(2 * K, -H), np.full(2 * K, 2.0)),
            "m": (np.full(M, -H), np.full(M, 2.0)), "e": (e_shift, e_scale)}


def ref_normalize(model, env_cfg, block: str, raw: np.ndarray) -> np.ndarray:
    """``(raw - shift) * scale`` for one block in float64, rounded to the
    row's float32; history rows take ``o``'s shift and scale, broadcast over
    an ``[H, d_o]`` view, and ``gait`` none."""
    if block == "gait":
        return np.array(raw, dtype=np.float32)
    if block == "hist":
        shift, scale = ref_normalizer(model, env_cfg)["o"]
        return ((raw.reshape(-1, len(shift)) - shift) * scale).reshape(raw.shape).astype(np.float32)
    shift, scale = ref_normalizer(model, env_cfg)[block]
    return ((raw - shift) * scale).astype(np.float32)


# The episode start as the library computed it before it drew the DR vector in
# one call and placed the spawn on floats.


def ref_sample_dr(rng, enabled=True) -> DRConfig:
    """One scalar ``rng.uniform`` draw per ``DR_RANGES`` row, in table order."""
    if not enabled:
        return DRConfig()
    return DRConfig(**{k: float(rng.uniform(lo, hi)) for k, (lo, hi) in DR_RANGES.items()})


def ref_reset(model, env_cfg, rng, terrain, dr, commands):
    """``(state, row)`` of an episode's start: the spawn state and the first
    observation row.  ``rng`` stands for the env's generator and draws what
    it draws: the scan-bias sign, then the scan noise.

    The pose is ``np.clip`` of the scaled nominal pose on arrays; one
    ``fk_leg_points`` pass per leg from the origin drops the base, a second
    from the placed base gives the feet and the knees.
    """
    state, raw, _ = _ref_episode_start(model, env_cfg, rng, terrain, dr, commands)
    return state, ref_row(model, env_cfg, raw)


def ref_row(model, env_cfg, raw: dict) -> np.ndarray:
    """The normalized row of the raw blocks ``raw``, block by block."""
    return np.concatenate([ref_normalize(model, env_cfg, name, raw[name]) for name, _ in BLOCKS])


def _ref_episode_start(model, env_cfg, rng, terrain, dr, commands):
    """``(state, raw blocks, scan bias)`` of an episode's first row."""
    q0 = np.clip(dr.init_joint_scale * model.nominal(), model.lower(), model.upper())
    legs = [(*q0[3 * side : 3 * side + 3], model.thigh_len, model.shin_len, model.foot_len)
            for side in (0, 1)]
    x, z = env_cfg.spawn_x, -np.inf
    for leg in legs:
        _, _, (fx, fz) = fk_leg_points(0.0, 0.0, 0.0, *leg)
        if terrain.is_void(x + fx):
            raise ValueError("spawn places a foot over a void cell")
        z = max(z, terrain.height_at(x + fx) - fz)
    z = float(z)
    points = [fk_leg_points(x, z, 0.0, *leg) for leg in legs]
    state = BipedState(
        x=x, z=z, joint_pos=q0.copy(),
        foot_pos=np.array([foot for _, _, foot in points]),
        knee_heights=np.array([kz - terrain.height_at(kx) for (kx, kz), _, _ in points]),
    )

    bias = dr.scan_bias * (1.0 if rng.random() < 0.5 else -1.0)
    if env_cfg.blind:
        scan = np.zeros(env_cfg.scan_points)
    else:
        scan = heights_at(terrain, x + env_cfg.scan_offsets()) - z
        if bias != 0.0:
            scan += bias
        if dr.scan_noise > 0.0:
            scan += rng.normal(0.0, dr.scan_noise, size=scan.shape)
        scan = np.clip(scan, -env_cfg.scan_clip, env_cfg.scan_clip)
    zeros = np.zeros(N_JOINTS)
    o = np.concatenate([[0.0, 0.0, -math.sin(0.0), -math.cos(0.0), commands.v_cmd, commands.w_cmd],
                        q0, zeros, zeros])
    (lx, lz), (rx, rz) = state.foot_pos
    raw = {
        "m": heights_at(terrain, x + env_cfg.elev_offsets()) - z,
        "e": np.concatenate([[lx - x, lz - z, rx - x, rz - z, 0.0, 0.0, 0.0, 0.0], dr.as_vector()]),
        "o": o,
        "hist": np.tile(o, env_cfg.history_len),
        "gait": np.asarray(commands.gait, dtype=np.float64),
        "scans": np.concatenate([scan, scan]),
    }
    return state, raw, bias


def ref_stack(bundles) -> dict:
    return {k: np.stack([getattr(b, k) for b in bundles]) for k in ("o", "hist", "scans", "m", "e")}


def _ref_act(name, s):
    if name == "tanh":
        return np.tanh(s)
    if name == "relu":
        return np.maximum(s, 0.0)
    if name == "elu":
        return np.where(s > 0.0, s, np.expm1(np.minimum(s, 0.0)))
    if name == "identity":
        return s
    raise ValueError(name)


def ref_net_forward(net, x):
    xb = np.asarray(x, dtype=net.layers[0].weight.dtype)
    single = xb.ndim == 1
    if single:
        xb = xb[None, :]
    if not np.all(np.isfinite(xb)):
        raise ValueError("non-finite network input")
    z = xb
    for layer in net.layers:
        z = _ref_act(layer.activation, z @ layer.weight.T + layer.bias)
    return z[0] if single else z


def ref_softmax(w):
    w = np.asarray(w)
    w = w if w.dtype == np.float32 else w.astype(np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite softmax input")
    shifted = w - w.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_encode_features(policy, batch: dict):
    """Over the normalized blocks, each a contiguous array."""
    f_d = ref_net_forward(policy.scan_enc, batch["scans"])
    f_h = ref_net_forward(policy.hist_enc, batch["hist"])
    return np.concatenate([batch["o"], f_d, f_h], axis=1)


def ref_residual_forward(residual, feats, gait):
    """(z', gate weights, expert outputs) over [feats, gait]."""
    res_in = np.concatenate([feats, gait], axis=1)
    outs = [ref_net_forward(net, res_in) for net in residual.experts]
    w = ref_softmax(ref_net_forward(residual.gate, res_in))
    z = np.zeros_like(outs[0])
    for i, y in enumerate(outs):
        z += w[:, i : i + 1] * y
    return z, w, outs


def ref_actor_mean(policy, batch: dict, gait):
    """(mean, z_o, (gate weights, expert outputs) or None)."""
    feats = ref_encode_features(policy, batch)
    z_o = ref_net_forward(policy.trunk, feats)
    if policy.mode.stage >= 2 and policy.residual is not None:
        if gait is None:
            raise ValueError("stage-2 policy needs a gait command")
        gait = np.atleast_2d(gait)
        z_p, w, outs = ref_residual_forward(policy.residual, feats, gait)
        if policy.mode.residual_fusion == "latent":
            mean = ref_net_forward(policy.head, z_o + z_p)
        else:
            mean = ref_net_forward(policy.head, z_o) + z_p
        return mean, z_o, (w, outs)
    return ref_net_forward(policy.head, z_o), z_o, None


def ref_critic_value(policy, batch: dict, gait=None):
    """The critic's values over one contiguous input ``[m, e, o, hist]`` of
    the normalized blocks, then ``gait`` at stage 2."""
    parts = [batch["m"], batch["e"], batch["o"], batch["hist"]]
    if gait is not None:
        parts.append(np.atleast_2d(gait))
    return ref_net_forward(policy.critic, np.concatenate(parts, axis=1))[:, 0]


def ref_gaussian_log_prob(action, mean, log_std) -> float:
    std = np.exp(log_std)
    z = (action - mean) / std
    return float(-0.5 * np.sum(z * z) - np.sum(log_std) - 0.5 * len(mean) * math.log(2.0 * math.pi))


def ref_act(policy, bundle, gait=None, rng=None, deterministic=False):
    """(action, log_prob, mean, z_o, z_prime, gate_w), as ActResult holds them."""
    mean, z_o, res = ref_actor_mean(
        policy, ref_stack([bundle]), None if gait is None else gait[None, :]
    )
    mean = mean[0]
    z_p = gate_w = None
    if res is not None:
        w, outs = res
        gate_w = w[0]
        z_p = sum(w[0, i] * outs[i][0] for i in range(len(outs)))
    std = np.exp(policy.log_std)
    if deterministic or rng is None:
        action = mean.copy()
    else:
        action = mean + std * rng.standard_normal(len(mean))
    logp = ref_gaussian_log_prob(action, mean, policy.log_std)
    return action, logp, mean, z_o[0], z_p, gate_w


def ref_controller_act(policy, gait, bundle, commands):
    """PolicyController.act: deterministic action clipped with np.clip."""
    if policy.mode.stage >= 2 and gait is None:
        gait = commands.gait
    action = ref_act(policy, bundle, gait, deterministic=True)[0]
    bound = policy.model.action_bound
    return np.clip(action, -bound, bound)


def ref_residual_latents(policy, samples):
    """(z' rows, gate-weight rows, gait labels, terrain labels)."""
    zs, ws, gl, tl = [], [], [], []
    for bundle, gait, terrain_label in samples:
        feats = ref_encode_features(policy, ref_stack([bundle]))
        z_p, w, _ = ref_residual_forward(policy.residual, feats, np.atleast_2d(gait))
        zs.append(z_p[0])
        ws.append(w[0])
        gl.append(int(np.argmax(gait)))
        tl.append(terrain_label)
    return np.array(zs), np.array(ws), np.array(gl, dtype=int), tl


# -- the update's kernels as they were written before they worked in place ------
#
# ``net_backward`` while its tape kept each layer's pre-activation ``s`` next
# to its output ``z``, and ``adam_step`` as one expression per moment and one
# for the step.  tests/test_nets.py holds the library to these bit for bit.


def ref_net_backward(net, x, grad_out):
    """(weight grads, bias grads, input grad) of <grad_out, net(x)>: the
    derivative ``1 - z*z`` for tanh and ``np.ones_like(s)`` for the identity,
    multiplied into the cotangent, then ``gs.T @ zin``, ``gs.sum(axis=0)`` and
    ``gs @ W`` at every layer."""
    pre, post, z = [], [], x
    for layer in net.layers:
        s = z @ layer.weight.T + layer.bias
        z = _ref_act(layer.activation, s)
        pre.append(s)
        post.append(z)
    weights, biases = [None] * len(net.layers), [None] * len(net.layers)
    g = grad_out
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        if layer.activation == "tanh":
            deriv = 1.0 - post[k] * post[k]
        else:
            deriv = np.ones_like(pre[k])
        gs = g * deriv
        zin = x if k == 0 else post[k - 1]
        weights[k] = gs.T @ zin
        biases[k] = gs.sum(axis=0)
        g = gs @ layer.weight
    return weights, biases, g


def ref_adam_step(params, grads, state) -> None:
    """Bias-corrected Adam, in place, each update one numpy expression."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# -- terrain layout and evaluation episodes as they were written out per use ----
#
# ``generate_terrain`` and ``build_benchmark_track`` each carried their own
# gap/step/stair layout, and ``run_trial``, ``measure_gait_attribute`` and
# ``collect_latent_samples`` each built their own env and ran their own
# episode loop.  tests/test_layout_oracle.py holds the shared layout routine
# and the shared episode generator to these byte for byte.


def _ref_blank(track_length, cell_size):
    n = int(round(track_length / cell_size))
    return Heightfield(cell_size=cell_size, heights=np.zeros(n), void=np.zeros(n, dtype=bool))


def _ref_lerp(lo, hi, t):
    return lo + (hi - lo) * t


def _ref_carve_gap(hf, x_start, width, surface):
    i0 = hf.cell_at(x_start)
    n = max(1, int(round(width / hf.cell_size)))
    i1 = min(i0 + n, hf.n_cells)
    hf.heights[i0:i1] = surface + VOID_DEPTH
    hf.void[i0:i1] = True
    hf.obstacles.append(Obstacle("gap", width, i0, i1, surface))


def ref_generate_terrain(kind, difficulty, seed, track_length=14.0, cell_size=0.05,
                         start_clear=2.0):
    if kind not in TERRAIN_KINDS:
        raise ValueError(f"unknown terrain kind: {kind!r}")
    if not 0.0 <= difficulty <= 1.0:
        raise ValueError("difficulty must be in [0, 1]")
    rng = np.random.default_rng(
        np.random.SeedSequence([TERRAIN_KINDS.index(kind), seed & 0xFFFFFFFF])
    )
    hf = _ref_blank(track_length, cell_size)
    hf.kind = kind
    hf.difficulty = float(difficulty)
    if kind == "flat":
        return hf
    if kind == "rough":
        amp = _ref_lerp(*ROUGH_RANGE, difficulty)
        n0 = hf.cell_at(start_clear)
        hf.heights[n0:] = rng.uniform(-amp, amp, size=hf.n_cells - n0)
        hf.obstacles.append(Obstacle("rough", amp, n0, hf.n_cells, 0.0))
        return hf
    if kind == "gap":
        width = _ref_lerp(*GAP_RANGE, difficulty)
        x = start_clear
        while x + width + 1.0 < track_length:
            _ref_carve_gap(hf, x, width, 0.0)
            x += width + rng.uniform(1.2, 2.2)
        return hf
    if kind == "step":
        height = _ref_lerp(*STEP_RANGE, difficulty)
        x = start_clear
        level = 0.0
        up = True
        while x + 1.0 < track_length:
            level = level + height if up else max(level - height, 0.0)
            up = not up
            i0 = hf.cell_at(x)
            run = rng.uniform(1.0, 1.8)
            i1 = min(hf.cell_at(x + run) + 1, hf.n_cells)
            hf.heights[i0:i1] = level
            hf.obstacles.append(Obstacle("step", height, i0, i1, level))
            x += run
        return hf
    rise = _ref_lerp(*STAIR_RANGE, difficulty)
    run = 0.30
    x = start_clear
    level = 0.0
    while x + run + 1.5 < track_length:
        flight = int(rng.integers(3, 6))
        for _ in range(flight):
            if x + run + 1.5 >= track_length:
                break
            level += rise
            i0 = hf.cell_at(x)
            i1 = min(hf.cell_at(x + run) + 1, hf.n_cells)
            hf.heights[i0:i1] = level
            hf.obstacles.append(Obstacle("stair", rise, i0, i1, level))
            x += run
        landing = rng.uniform(1.0, 2.0)
        i0 = hf.cell_at(x)
        i1 = min(hf.cell_at(x + landing) + 1, hf.n_cells)
        hf.heights[i0:i1] = level
        x += landing
    return hf


def ref_build_benchmark_track(obstacle, mode, seed, track_length=14.0, cell_size=0.05,
                              start_clear=2.0):
    if obstacle not in ("gap", "step", "stair"):
        raise ValueError(f"unknown benchmark obstacle: {obstacle!r}")
    if mode not in ("easy", "hard"):
        raise ValueError(f"unknown benchmark mode: {mode!r}")
    lo, hi = BENCH_RANGES[(obstacle, mode)]
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [0xBE, TERRAIN_KINDS.index(obstacle), 0 if mode == "easy" else 1, seed & 0xFFFFFFFF]
        )
    )
    hf = _ref_blank(track_length, cell_size)
    hf.kind = obstacle
    hf.difficulty = 1.0 if mode == "hard" else 0.5
    if obstacle == "gap":
        x = start_clear
        while True:
            width = rng.uniform(lo, hi)
            if x + width + 1.0 >= track_length:
                break
            _ref_carve_gap(hf, x, width, 0.0)
            x += width + rng.uniform(1.2, 2.0)
        return hf
    if obstacle == "step":
        x = start_clear
        level = 0.0
        up = True
        while x + 1.0 < track_length:
            height = rng.uniform(lo, hi)
            level = level + height if up else max(level - height, 0.0)
            up = not up
            run = rng.uniform(1.0, 1.8)
            i0 = hf.cell_at(x)
            i1 = min(hf.cell_at(x + run) + 1, hf.n_cells)
            hf.heights[i0:i1] = level
            hf.obstacles.append(Obstacle("step", height, i0, i1, level))
            x += run
        return hf
    x = start_clear
    level = 0.0
    run = 0.30
    while x + run + 1.5 < track_length:
        flight = int(rng.integers(3, 6))
        for _ in range(flight):
            if x + run + 1.5 >= track_length:
                break
            rise = rng.uniform(lo, hi)
            level += rise
            i0 = hf.cell_at(x)
            i1 = min(hf.cell_at(x + run) + 1, hf.n_cells)
            hf.heights[i0:i1] = level
            hf.obstacles.append(Obstacle("stair", rise, i0, i1, level))
            x += run
        landing = rng.uniform(1.0, 2.0)
        i0 = hf.cell_at(x)
        i1 = min(hf.cell_at(x + landing) + 1, hf.n_cells)
        hf.heights[i0:i1] = level
        x += landing
    return hf


def ref_run_trial(controller, terrain, model, env_cfg, *, v_cmd=0.6, gait_id=None,
                  timeout_s=40.0, goal_m=14.0, seed=0, trace_file=None, reward_cfg=None):
    cfg_ep = EnvConfig(**{**env_cfg.__dict__, "max_episode_s": timeout_s, "push_vel_max": 0.0})
    env = TerrainEnv(model, cfg_ep, seed=seed)
    gait = one_hot(gait_id, cfg_ep.n_gaits) if gait_id is not None else np.zeros(cfg_ep.n_gaits)
    env.reset(terrain, DRConfig(), CommandState(v_cmd=v_cmd, gait=gait))
    bundle = env.bundle
    reward_cfg = reward_cfg if reward_cfg is not None else RewardConfig()
    a_prev = np.zeros(N_JOINTS)
    a_prev2 = np.zeros(N_JOINTS)
    distance = 0.0
    success = False
    termination = "timeout"
    steps = 0
    while True:
        action = controller.act(bundle, env.state)
        res = env.step(action)
        steps += 1
        distance = max(res.distance, distance)
        if trace_file is not None:
            bd = ref_locomotion_rewards(
                env.state, env_commands(env), action, a_prev, a_prev2, reward_cfg, model,
            )
            trace_file.write(
                json.dumps(
                    {
                        "step": steps,
                        "t": round(env.state.time, 6),
                        "x": env.state.x,
                        "z": env.state.z,
                        "pitch": env.state.pitch,
                        "vx": env.state.vx,
                        "action": [round(float(a), 6) for a in action],
                        "rewards": {k: v for k, v in bd.weighted.items()},
                        "distance": res.distance,
                        "termination": res.termination,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            a_prev2 = a_prev
            a_prev = action
        if res.distance >= goal_m:
            success = True
            termination = "goal"
            break
        if res.done:
            termination = res.termination
            break
        bundle = env.bundle
    return {
        "success": success,
        "distance": min(max(distance, 0.0), goal_m),
        "termination": termination,
        "steps": steps,
        "seed": seed,
    }


def ref_measure_gait_attribute(policy, cfg, gait_id, attribute, n_rollouts=10, rollout_s=6.0,
                               seed=0, terrain_kind="flat"):
    """Keeps ``cfg.env``'s pushes, as the per-use loop did."""
    controller = PolicyController(policy, gait_id=gait_id)
    per_rollout = []
    for k in range(n_rollouts):
        env_cfg = EnvConfig(**{**cfg.env.__dict__, "max_episode_s": rollout_s})
        env = TerrainEnv(cfg.model, env_cfg, seed=seed + k)
        terrain = ref_generate_terrain(
            terrain_kind, 0.0, seed=seed + k,
            track_length=cfg.terrain.track_length, cell_size=cfg.terrain.cell_size,
        )
        env.reset(terrain, DRConfig(), CommandState(v_cmd=0.4, gait=one_hot(gait_id, env_cfg.n_gaits)))
        bundle = env.bundle
        values = []
        apex = 0.0
        prev_max = 0.0
        while True:
            res = env.step(controller.act(bundle, env.state))
            st = env.state
            if attribute == "squat_height":
                values.append(st.z - min(st.foot_pos[0, 1], st.foot_pos[1, 1]))
            elif attribute == "knee_lift":
                cur = float(np.max(st.knee_heights))
                if cur < prev_max - 1e-3 and prev_max > 0.0:
                    values.append(apex)
                    apex = 0.0
                apex = max(apex, cur)
                prev_max = cur
            else:
                raise ValueError(f"unknown gait attribute: {attribute!r}")
            if res.done:
                break
            bundle = env.bundle
        if values:
            per_rollout.append(float(np.mean(values)))
    if not per_rollout:
        raise RuntimeError("no usable rollouts for gait measurement")
    return float(np.mean(per_rollout)), float(np.std(per_rollout))


def ref_collect_latent_samples(policy, cfg, terrain_kinds=("flat", "gap", "step"),
                               steps_per_combo=40, seed=0):
    """Keeps ``cfg.env``'s pushes, as the per-use loop did."""
    samples = []
    for kind in terrain_kinds:
        for gid in range(cfg.env.n_gaits):
            env = TerrainEnv(cfg.model, cfg.env, seed=seed)
            terrain = ref_generate_terrain(
                kind, 0.3, seed=seed,
                track_length=cfg.terrain.track_length, cell_size=cfg.terrain.cell_size,
            )
            gait = one_hot(gid, cfg.env.n_gaits)
            env.reset(terrain, DRConfig(), CommandState(v_cmd=0.5, gait=gait))
            bundle = env.bundle
            controller = PolicyController(policy, gait_id=gid)
            for _ in range(steps_per_combo):
                samples.append((bundle, gait.copy(), kind))
                res = env.step(controller.act(bundle, env.state))
                if res.done:
                    break
                bundle = env.bundle
    return samples


def ref_silhouette_score(data, labels) -> float:
    """The silhouette over every pairwise difference at once, ``[n, n, d]``."""
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two clusters")
    diffs = data[:, None, :] - data[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    scores = []
    for i in range(len(data)):
        same = labels == labels[i]
        n_same = same.sum()
        if n_same <= 1:
            scores.append(0.0)
            continue
        a = dist[i, same].sum() / (n_same - 1)
        b = min(dist[i, labels == u].mean() for u in uniq if u != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


# -- the hand-written serializers gaitrl.codec replaced ---------------------------
#
# Every document had its own writer and reader, class by class: checkpoints
# (policy, Adam states, discriminators, curriculum), run configs,
# heightfields, reference clips, benchmark and latent reports, and the CLI's
# latents.json.  tests/test_codec_oracle.py holds the codec to these byte for
# byte, and its decoding to their readers bit for bit.  The checkpoint writers
# and readers are kept in the format of version 2: a packed array records its
# dtype (float32 for the nets and their Adam moments, float64 for log_std),
# and a net manifest and a checkpoint say version 2.


def ref_encode_array(a):
    a = np.ascontiguousarray(a)
    stored = {np.float32: "<f4", np.float64: "<f8"}[a.dtype.type]
    return {
        "shape": list(a.shape),
        "dtype": stored,
        "data": base64.b64encode(a.astype(stored).tobytes()).decode("ascii"),
    }


def ref_decode_array(d):
    raw = base64.b64decode(d["data"])
    native = {"<f4": np.float32, "<f8": np.float64}[d["dtype"]]
    return np.frombuffer(raw, dtype=d["dtype"]).astype(native).reshape(d["shape"]).copy()


def ref_net_to_dict(net) -> dict:
    manifest = {
        "format_version": 2,
        "layers": [
            {"in": int(l.weight.shape[1]), "out": int(l.weight.shape[0]), "activation": l.activation}
            for l in net.layers
        ],
    }
    flat = np.concatenate([p.ravel() for p in net.params()])
    return {"manifest": manifest, "flat": ref_encode_array(flat)}


def ref_net_from_dict(d):
    manifest = d["manifest"]
    if manifest.get("format_version") != 2:
        raise ValueError(f"unsupported net manifest version: {manifest.get('format_version')}")
    flat = ref_decode_array(d["flat"])
    layers = []
    pos = 0
    for spec in manifest["layers"]:
        n_in, n_out = spec["in"], spec["out"]
        w = flat[pos : pos + n_out * n_in].reshape(n_out, n_in).copy()
        pos += n_out * n_in
        b = flat[pos : pos + n_out].copy()
        pos += n_out
        layers.append(Layer(w, b, spec["activation"]))
    if pos != flat.size:
        raise ValueError(f"flat array has {flat.size} values, manifest expects {pos}")
    return DenseNet(layers)


def ref_adam_state_dict(o) -> dict:
    return {
        "lr": o.lr, "beta1": o.beta1, "beta2": o.beta2, "eps": o.eps,
        "step_count": o.step_count,
        "m": [ref_encode_array(a) for a in o.m],
        "v": [ref_encode_array(a) for a in o.v],
    }


def ref_adam_from_state_dict(d):
    obj = AdamState.__new__(AdamState)
    obj.lr = d["lr"]
    obj.beta1 = d["beta1"]
    obj.beta2 = d["beta2"]
    obj.eps = d["eps"]
    obj.step_count = d["step_count"]
    obj.m = [ref_decode_array(a) for a in d["m"]]
    obj.v = [ref_decode_array(a) for a in d["v"]]
    return obj


def ref_residual_to_dict(res) -> dict:
    return {
        "feat_dim": res.feat_dim,
        "gait_dim": res.gait_dim,
        "out_dim": res.out_dim,
        "experts": [ref_net_to_dict(n) for n in res.experts],
        "gate": ref_net_to_dict(res.gate),
    }


def ref_residual_from_dict(d):
    obj = ResidualModule.__new__(ResidualModule)
    obj.feat_dim = d["feat_dim"]
    obj.gait_dim = d["gait_dim"]
    obj.out_dim = d["out_dim"]
    obj.experts = [ref_net_from_dict(e) for e in d["experts"]]
    obj.gate = ref_net_from_dict(d["gate"])
    return obj


def ref_policy_to_dict(policy) -> dict:
    d = {
        "format_version": 1,
        "arch": {k: (list(v) if isinstance(v, tuple) else v) for k, v in policy.arch.__dict__.items()},
        "mode": {
            "stage": policy.mode.stage,
            "residual_fusion": policy.mode.residual_fusion,
            "one_stage": policy.mode.one_stage,
            "n_experts": policy.mode.n_experts,
        },
        "nets": {name: ref_net_to_dict(getattr(policy, name))
                 for name in ("scan_enc", "hist_enc", "trunk", "head", "critic")},
        "log_std": ref_encode_array(policy.log_std),
    }
    if policy.residual is not None:
        d["residual"] = ref_residual_to_dict(policy.residual)
    return d


def ref_policy_from_dict(d, model, env_cfg):
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported policy version: {d.get('format_version')}")
    arch = PolicyArch(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in d["arch"].items()})
    obj = ActorCritic(model, env_cfg, arch, PolicyMode(**d["mode"]), seed=0)
    for name in ("scan_enc", "hist_enc", "trunk", "head", "critic"):
        setattr(obj, name, ref_net_from_dict(d["nets"][name]))
    obj.log_std = ref_decode_array(d["log_std"])
    obj.residual = ref_residual_from_dict(d["residual"]) if "residual" in d else None
    return obj


def _ref_to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _ref_to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_ref_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _ref_to_jsonable(v) for k, v in obj.items()}
    return obj


def _ref_fill_dataclass(cls, data, path):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
    defaults = cls()
    kwargs = {}
    for name in fields:
        if name not in data:
            kwargs[name] = getattr(defaults, name)
            continue
        value = data[name]
        current = getattr(defaults, name)
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            kwargs[name] = _ref_fill_dataclass(type(current), value, f"{path}.{name}")
        elif isinstance(current, dict):
            kwargs[name] = {**current, **value}
        elif isinstance(current, tuple):
            kwargs[name] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def ref_config_to_dict(cfg) -> dict:
    d = _ref_to_jsonable(cfg)
    d["format_version"] = 1
    return d


def ref_config_from_dict(data):
    data = dict(data)
    version = data.pop("format_version", 1)
    if version != 1:
        raise ValueError(f"unsupported config version: {version}")
    sections = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - sections
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name in sections:
        default = getattr(RunConfig(), name)
        kwargs[name] = _ref_fill_dataclass(type(default), data.get(name, {}), name)
    return RunConfig(**kwargs)


def ref_config_hash(cfg) -> str:
    canonical = json.dumps(ref_config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def ref_checkpoint_doc(*, stage, iteration, cfg, policy, opts, discs=None, disc_opts=None,
                       curriculum=None) -> dict:
    """What ``save_checkpoint`` wrote, before ``json.dump(doc, f, sort_keys=True)``."""
    doc = {
        "format_version": 2,
        "stage": stage,
        "iteration": iteration,
        "config_hash": ref_config_hash(cfg),
        "config": ref_config_to_dict(cfg),
        "policy": ref_policy_to_dict(policy),
        "optimizers": {k: ref_adam_state_dict(v) for k, v in opts.items()},
    }
    if discs is not None:
        doc["discriminators"] = {
            "alpha_gp": discs.alpha_gp,
            "nets": [ref_net_to_dict(n) for n in discs.nets],
        }
        doc["disc_optimizers"] = [ref_adam_state_dict(o) for o in (disc_opts or [])]
    if curriculum is not None:
        doc["curriculum"] = [
            {"kind": c.kind, "difficulty": c.difficulty,
             "promotions": c.promotions, "demotions": c.demotions}
            for c in curriculum
        ]
    return doc


def ref_discriminators_from_doc(doc):
    d = doc["discriminators"]
    return DiscriminatorSet(nets=[ref_net_from_dict(n) for n in d["nets"]], alpha_gp=d["alpha_gp"])


def ref_heightfield_to_json_dict(hf) -> dict:
    return {
        "format_version": 1,
        "cell_size": hf.cell_size,
        "heights": [float(h) for h in hf.heights],
        "void": [bool(v) for v in hf.void],
        "obstacles": [
            {"kind": o.kind, "value": o.value, "start": o.start, "end": o.end, "surface": o.surface}
            for o in hf.obstacles
        ],
        "kind": hf.kind,
        "difficulty": hf.difficulty,
    }


def ref_heightfield_from_json_dict(d):
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported heightfield version: {d.get('format_version')}")
    return Heightfield(
        cell_size=d["cell_size"],
        heights=np.array(d["heights"], dtype=np.float64),
        void=np.array(d["void"], dtype=bool),
        obstacles=[Obstacle(**o) for o in d["obstacles"]],
        kind=d["kind"],
        difficulty=d["difficulty"],
    )


def ref_clip_to_json_dict(clip) -> dict:
    return {
        "format_version": 1,
        "gait_id": clip.gait_id,
        "frame_rate": clip.frame_rate,
        "name": clip.name,
        "frames": [[float(v) for v in row] for row in clip.frames],
    }


def ref_clip_from_json_dict(d):
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported clip version: {d.get('format_version')}")
    return ReferenceClip(
        gait_id=d["gait_id"],
        frames=np.array(d["frames"], dtype=np.float64),
        frame_rate=d["frame_rate"],
        name=d.get("name", ""),
    )


def ref_report_to_json_dict(report) -> dict:
    return {
        "format_version": 1,
        "method": report.method,
        "gait": report.gait,
        "config_hash": report.config_hash,
        "cells": [
            {"obstacle": c.obstacle, "mode": c.mode, "success_rate": c.success_rate,
             "mean_distance": c.mean_distance, "trials": c.trials, "seeds": c.seeds}
            for c in report.cells
        ],
    }


def ref_report_from_json_dict(d):
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported report version: {d.get('format_version')}")
    return BenchmarkReport(
        method=d["method"],
        gait=d["gait"],
        config_hash=d.get("config_hash", ""),
        cells=[CellResult(**c) for c in d["cells"]],
    )


def ref_latent_report_to_json_dict(report) -> dict:
    return {
        "format_version": 1,
        "coords": [[float(a), float(b)] for a, b in report.coords],
        "silhouette": report.silhouette,
        "degenerate": report.degenerate,
        "gate_usage": {k: [float(x) for x in v] for k, v in report.gate_usage.items()},
        "n_samples": report.n_samples,
    }


def ref_latents_doc(table) -> dict:
    """What ``export-latents`` wrote to latents.json."""
    return {
        "format_version": 1,
        "z_prime": table.z_prime.tolist(),
        "gate_w": table.gate_w.tolist(),
        "gait_labels": table.gait_labels.tolist(),
        "terrain_labels": table.terrain_labels,
    }


def ref_latent_table(d):
    """What ``analyze-latents`` read from latents.json."""
    if d.get("format_version") != 1:
        raise ValueError("unsupported latents file version")
    return LatentTable(
        z_prime=np.array(d["z_prime"]),
        gate_w=np.array(d["gate_w"]),
        gait_labels=np.array(d["gait_labels"]),
        terrain_labels=d["terrain_labels"],
    )
