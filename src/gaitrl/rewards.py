"""Reward terms: locomotion set, gait-command-gated set, and composition.

Each term returns its raw (unweighted) value; weights live in the config so
logs can carry both, and a weight of 0 turns a term off.  Stage 1 enables
only the locomotion set; stage 2 adds the adversarial style reward (computed
in :mod:`gaitrl.amp`) and the gait terms, both routed by the active gait
command.

Two rows are published with literal positive weights on error/spread
expressions (squat height, feet distance).  Applied literally they pay the
agent for being wrong, so they are evaluated with the evident penalty/bonus
intent.  Rows with no planar quantity are evaluated on documented stand-ins:
lateral foot spread uses fore/aft separation, and posture deviation uses the
ankles (``POSTURE_JOINTS``) instead of the arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .biped import BipedState
from .env import CommandState
from .refmotion import GAIT_HIGH_KNEES, GAIT_SQUAT

DEFAULT_WEIGHTS = {
    "track_lin_vel": 2.0,
    "track_ang_vel": 2.0,
    "joint_acc": -5e-7,
    "joint_vel": -1e-3,
    "action_rate": -0.03,
    "action_smoothness": -0.05,
    "ang_vel_pitch": -0.05,
    "joint_power": -2.5e-5,
    "feet_stumble": -1.0,
    "posture_deviation": -0.5,
    "joint_pos_limits": -2.0,
    "joint_vel_limits": -1.0,
    "torque_limits": -1.0,
    "feet_distance": 0.5,
    "feet_slippage": -0.25,
    "feet_force": -2.5e-4,
    "collision": -15.0,
    "stuck": -1.0,
    "cheat": -2.0,
    "y_offset": -2.0,
    "knee_height": 2.0,
    "squat_height": 2.0,
}

STYLE_WEIGHT = 5.0

POSTURE_JOINTS = (2, 5)  # the ankles stand in for the arm-deviation row


@dataclass
class RewardConfig:
    weights: dict[str, float] = field(default_factory=dict)
    style_weight: float = STYLE_WEIGHT
    tracking_sigma: float = 0.25
    gait_sigma: float = 0.25
    knee_lift_target: float = 0.58
    squat_height_target: float = 0.68
    f_min_force: float = 90.0  # N, ~1.5x standing weight per foot
    d_min_feet: float = 0.18  # m, fore/aft separation floor
    heading_limit: float = 1.0  # rad
    stuck_v: float = 0.1
    stuck_cmd: float = 0.2
    # floor the per-step total at zero for the learner (a net-negative step
    # income otherwise makes early termination the optimal policy); the
    # logged breakdown always keeps the exact signed sum
    only_positive_total: bool = True
    soft_limit_frac: float = 0.9
    joint_vel_soft: float = 12.0  # rad/s
    torque_soft_frac: float = 0.9

    def __post_init__(self):
        for name in ("tracking_sigma", "gait_sigma"):  # the kernels divide by them
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in self.weights:
            if name not in DEFAULT_WEIGHTS:
                raise ValueError(f"weights.{name}: unknown reward term")
        self.weights = {**DEFAULT_WEIGHTS, **self.weights}

    def weight(self, name: str) -> float:
        return self.weights[name]


@dataclass
class RewardBreakdown:
    raw: dict = field(default_factory=dict)
    weighted: dict = field(default_factory=dict)
    r_l: float = 0.0
    r_s: float = 0.0
    r_g: float = 0.0
    total: float = 0.0


# -- locomotion terms ---------------------------------------------------------
#
# The per-joint rows run on Python floats.  Each sum starts at 0.0 and adds
# the joints in index order, which is exactly what np.sum does on these
# 6-vectors; the builtin sum() would not do (Python >= 3.12 compensates).
# ``x if x > 0.0 or x != x else 0.0`` is np.maximum(x, 0.0): NaN passes and
# -0.0 becomes 0.0.


def locomotion_rewards(
    state: BipedState,
    commands: CommandState,
    a_t: np.ndarray,
    a_prev: np.ndarray,
    a_prev2: np.ndarray,
    cfg: RewardConfig,
    model,
) -> RewardBreakdown:
    """Evaluate every locomotion-table row on the post-step state.

    The soft joint and torque limits are derived from ``cfg`` and ``model``
    on every call, so a changed config takes effect at once.
    """
    st = state
    jp = st.joint_pos.tolist()
    jv = st.joint_vel.tolist()
    ja = st.joint_acc.tolist()
    jt = st.joint_torque.tolist()
    at, ap, app = a_t.tolist(), a_prev.tolist(), a_prev2.tolist()
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
    for j in POSTURE_JOINTS:
        posture += abs(jp[j] - model.nominal_pose[j])
    verr = commands.v_cmd - st.vx
    werr = commands.w_cmd - st.yaw_rate
    (f_lx, f_lz), (f_rx, f_rz) = st.contact_force.tolist()
    (v_lx, v_lz), (v_rx, v_rz) = st.foot_vel.tolist()
    left, right = st.contact.tolist()
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
    weights = cfg.weights
    weighted = {}
    total = 0.0
    for name, value in raw.items():
        wv = weights[name] * value
        weighted[name] = wv
        total += wv
    return RewardBreakdown(raw=raw, weighted=weighted, r_l=total)


# -- gait terms ---------------------------------------------------------------


def gait_rewards(
    state: BipedState, gait: np.ndarray, cfg: RewardConfig
) -> RewardBreakdown:
    """Gait-command-routed terms; non-commanded gaits contribute exactly zero."""
    bd = RewardBreakdown()
    g = gait.tolist()
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
        # published +2.0 on a squared error reads as a penalty
        squat = -((cfg.squat_height_target - base_height) ** 2)
    bd.raw["squat_height"] = squat
    bd.weighted["squat_height"] = cfg.weight("squat_height") * squat

    # the 0.0 start of the sum keeps a -0.0 pair at +0.0
    bd.r_g = 0.0 + bd.weighted["knee_height"] + bd.weighted["squat_height"]
    return bd


def total_reward(
    loco: RewardBreakdown,
    style_raw: float,
    gait_bd: RewardBreakdown,
    cfg: RewardConfig,
) -> RewardBreakdown:
    """Compose the total; per-term logging is preserved.  At stage 1 the caller
    passes ``style_raw = 0.0`` and an all-zero command's gait terms: both add 0.0."""
    r_s = cfg.style_weight * style_raw
    return RewardBreakdown(
        raw={**loco.raw, **gait_bd.raw, "style": style_raw},
        weighted={**loco.weighted, **gait_bd.weighted, "style": r_s},
        r_l=loco.r_l,
        r_s=r_s,
        r_g=gait_bd.r_g,
        total=loco.r_l + r_s + gait_bd.r_g,
    )
