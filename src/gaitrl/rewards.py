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

The env axis.  Each function scores N envs in one call, from their state
rows as the env batch holds them (``[N, STATE_WIDTH]``), and returns
``[N, n_terms]`` arrays (:class:`RewardBreakdown`).  Every value has the
bits of the per-env float formulation (``tests/oracles.py``), because the
batch keeps its operation order:

- the per-joint sums add the joints in index order from 0.0, column by
  column, not through ``np.sum``;
- ``math.exp``, ``math.hypot`` and the squat term's float ``**`` are
  applied per element, where numpy's would differ in the last bit;
- the knee term uses ``np.exp``, as the float formulation did;
- the weighted terms are summed in table order from 0.0;
- the trainer's ``mean_track`` and ``mean_total_reward`` accumulate per
  env, in env order, and not through ``np.sum``.

A non-finite row (a diverged step, which the caller scores zero with
:meth:`RewardBreakdown.clear`) raises no numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .biped import (
    ACTION,
    CONTACT,
    FOOT,
    FOOT_VEL,
    FORCE,
    HEADING,
    KNEE,
    N_COLLISIONS,
    N_JOINTS,
    PITCH_RATE,
    Q,
    QD,
    QDD,
    TAU,
    VX,
    Y_OFFSET,
    YAW_RATE,
    Z,
)
from .codec import NON_NEGATIVE, POSITIVE, UNIT, Bounded
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
class RewardConfig(Bounded):
    weights: dict[str, float] = field(default_factory=dict)
    style_weight: Annotated[float, NON_NEGATIVE] = STYLE_WEIGHT  # 0: no style term
    tracking_sigma: Annotated[float, POSITIVE] = 0.25  # the kernels divide by the sigmas
    gait_sigma: Annotated[float, POSITIVE] = 0.25
    knee_lift_target: Annotated[float, POSITIVE] = 0.58
    squat_height_target: Annotated[float, POSITIVE] = 0.68
    f_min_force: Annotated[float, NON_NEGATIVE] = 90.0  # N, ~1.5x standing weight per foot
    d_min_feet: Annotated[float, NON_NEGATIVE] = 0.18  # m, fore/aft separation floor
    heading_limit: Annotated[float, NON_NEGATIVE] = 1.0  # rad
    stuck_v: Annotated[float, NON_NEGATIVE] = 0.1
    stuck_cmd: Annotated[float, NON_NEGATIVE] = 0.2
    # floor the per-step total at zero for the learner (a net-negative step
    # income otherwise makes early termination the optimal policy); the
    # logged breakdown always keeps the exact signed sum
    only_positive_total: bool = True
    soft_limit_frac: Annotated[float, UNIT] = 0.9
    joint_vel_soft: Annotated[float, NON_NEGATIVE] = 12.0  # rad/s
    torque_soft_frac: Annotated[float, UNIT] = 0.9

    def __post_init__(self):
        super().__post_init__()
        for name in self.weights:
            if name not in DEFAULT_WEIGHTS:
                raise ValueError(f"weights.{name}: unknown reward term")
        self.weights = {**DEFAULT_WEIGHTS, **self.weights}

    def weight(self, name: str) -> float:
        return self.weights[name]


LOCOMOTION_TERMS = (
    "track_lin_vel", "track_ang_vel", "joint_acc", "joint_vel", "action_rate",
    "action_smoothness", "ang_vel_pitch", "joint_power", "feet_stumble", "posture_deviation",
    "joint_pos_limits", "joint_vel_limits", "torque_limits", "feet_distance", "feet_slippage",
    "feet_force", "collision", "stuck", "cheat", "y_offset",
)
GAIT_TERMS = ("knee_height", "squat_height")
# the locomotion terms that sum a quantity over the joints
JOINT_SUMS = ("joint_acc", "joint_vel", "action_rate", "action_smoothness", "joint_power",
              "joint_pos_limits", "joint_vel_limits", "torque_limits")


@dataclass(eq=False)
class RewardBreakdown:
    """The reward terms of N envs, one row each: ``raw`` and ``weighted`` are
    ``[N, len(names)]`` (columns in ``names`` order); ``r_l``, ``r_s``,
    ``r_g`` and ``total`` are ``[N]``."""

    names: tuple[str, ...]
    raw: np.ndarray
    weighted: np.ndarray
    r_l: np.ndarray
    r_s: np.ndarray
    r_g: np.ndarray
    total: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """The weighted term ``name`` of every env."""
        return self.weighted[:, self.names.index(name)]

    def clear(self, rows: np.ndarray) -> None:
        """Score ``rows`` zero on every term (a diverged step)."""
        for a in (self.raw, self.weighted, self.r_l, self.r_s, self.r_g, self.total):
            a[rows] = 0.0


def _weigh(names: tuple, raw: np.ndarray, cfg: RewardConfig) -> tuple[np.ndarray, np.ndarray]:
    """The weighted terms, and their sum per env in column order from 0.0."""
    weighted = raw * np.array([cfg.weights[name] for name in names])
    total = np.zeros(len(raw))
    for c in range(len(names)):
        total += weighted[:, c]
    return weighted, total


def _pos(x: np.ndarray) -> np.ndarray:
    """``np.maximum(x, 0.0)`` as the float terms take it, in place: NaN
    passes and -0.0 becomes 0.0."""
    np.copyto(x, 0.0, where=x <= 0.0)
    return x


def _max0(x: np.ndarray) -> np.ndarray:
    """Python's ``max(x, 0.0)``: ``x`` unless ``0.0 > x``."""
    return np.where(0.0 > x, 0.0, x)


# -- locomotion terms ---------------------------------------------------------


def locomotion_rewards(
    state: np.ndarray, commands: np.ndarray, cfg: RewardConfig, model
) -> RewardBreakdown:
    """Every locomotion-table row of N post-step states.

    ``state`` holds float state rows with the last three actions
    (``[N, STATE_WIDTH]``, :data:`gaitrl.biped.STATE_FIELDS`) and
    ``commands`` each env's ``(v_cmd, w_cmd)``.  The soft joint and torque
    limits are derived from ``cfg`` and ``model`` on every call, so a
    changed config takes effect at once.
    """
    n, nj = len(state), N_JOINTS
    frac = cfg.soft_limit_frac
    soft_lo, soft_hi = [], []
    for lo, hi in zip(model.joint_lower, model.joint_upper):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * frac
        soft_lo.append(mid - half)
        soft_hi.append(mid + half)
    t_soft = [t * cfg.torque_soft_frac for t in model.torque_limit]
    jp, jv = state[:, Q:QD], state[:, QD:QDD]
    ja, jt = state[:, QDD:TAU], state[:, TAU:FOOT]
    a_t, a_p, a_pp = (state[:, ACTION + k * nj : ACTION + (k + 1) * nj] for k in range(3))
    raw = np.empty((n, len(LOCOMOTION_TERMS)))
    with np.errstate(all="ignore"):
        # each per-joint quantity as a [N, N_JOINTS] block of one array,
        # written in place; its sums over the joints follow
        per_joint = np.empty((n, len(JOINT_SUMS), nj))
        q = per_joint.transpose(1, 0, 2)
        np.multiply(ja, ja, out=q[0])
        np.multiply(jv, jv, out=q[1])
        d1 = np.subtract(a_t, a_p, out=q[2])
        d2 = np.subtract(d1, np.subtract(a_p, a_pp, out=q[3]), out=q[3])
        np.multiply(d2, d2, out=d2)
        np.multiply(d1, d1, out=d1)
        np.multiply(np.abs(jt, out=q[4]), np.abs(jv), out=q[4])
        np.add(_pos(np.subtract(soft_lo, jp, out=q[5])), _pos(jp - soft_hi), out=q[5])
        _pos(np.subtract(np.abs(jv, out=q[6]), cfg.joint_vel_soft, out=q[6]))
        _pos(np.subtract(np.abs(jt, out=q[7]), t_soft, out=q[7]))
        sums = np.zeros((n, len(JOINT_SUMS)))
        for j in range(nj):
            sums += per_joint[:, :, j]
        raw[:, [LOCOMOTION_TERMS.index(name) for name in JOINT_SUMS]] = sums
        posture = np.zeros(n)
        for j in POSTURE_JOINTS:
            posture += np.abs(jp[:, j] - model.nominal_pose[j])
        v_cmd, w_cmd = commands[:, 0], commands[:, 1]
        sigma = cfg.tracking_sigma
        verr = v_cmd - state[:, VX]
        werr = w_cmd - state[:, YAW_RATE]
        left, right = state[:, CONTACT] != 0.0, state[:, CONTACT + 1] != 0.0
        force, vel = state[:, FORCE : FORCE + 4], state[:, FOOT_VEL : FOOT_VEL + 4].tolist()
        hypot = math.hypot
        cols = {
            "track_lin_vel": [math.exp(v) for v in (-(verr * verr) / sigma).tolist()],
            "track_ang_vel": [math.exp(v) for v in (-(werr * werr) / sigma).tolist()],
            "ang_vel_pitch": state[:, PITCH_RATE] * state[:, PITCH_RATE],
            "posture_deviation": posture,
            "feet_stumble": (left & (np.abs(force[:, 0]) >= 3.0 * np.abs(force[:, 1])))
            | (right & (np.abs(force[:, 2]) >= 3.0 * np.abs(force[:, 3]))),
            "feet_distance": -_max0(
                cfg.d_min_feet - np.abs(state[:, FOOT] - state[:, FOOT + 2])),
            "feet_slippage": state[:, CONTACT] * [hypot(v[0], v[1]) for v in vel]
            + state[:, CONTACT + 1] * [hypot(v[2], v[3]) for v in vel],
            "feet_force": _max0(force[:, 1] - cfg.f_min_force)
            + _max0(force[:, 3] - cfg.f_min_force),
            "collision": state[:, N_COLLISIONS],
            "stuck": (np.abs(state[:, VX]) <= cfg.stuck_v)
            & (np.array([hypot(v, w) for v, w in commands.tolist()]) >= cfg.stuck_cmd),
            "cheat": np.abs(state[:, HEADING]) > cfg.heading_limit,
            "y_offset": np.abs(state[:, Y_OFFSET]),
        }
        for name, values in cols.items():
            raw[:, LOCOMOTION_TERMS.index(name)] = values
        weighted, r_l = _weigh(LOCOMOTION_TERMS, raw, cfg)
    zero = np.zeros(n)
    return RewardBreakdown(LOCOMOTION_TERMS, raw, weighted, r_l, zero, zero, r_l)


# -- gait terms ---------------------------------------------------------------


def gait_rewards(state: np.ndarray, gaits: np.ndarray, cfg: RewardConfig) -> RewardBreakdown:
    """Gait-command-routed terms of N post-step states (``[N, STATE_WIDTH]``)
    under their gait commands (``[N, n_gaits]``); non-commanded gaits
    contribute exactly zero."""
    n = len(state)
    # the first maximum of a command, none for an all-zero one
    active = np.where((gaits != 0.0).any(axis=1), gaits.argmax(axis=1), -1)
    raw = np.empty((n, len(GAIT_TERMS)))
    with np.errstate(all="ignore"):
        err = np.abs(cfg.knee_lift_target - state[:, KNEE : KNEE + 2].max(axis=1))
        raw[:, 0] = np.where(active == GAIT_HIGH_KNEES, np.exp(-err / cfg.gait_sigma), 0.0)
        lz, rz = state[:, FOOT + 1], state[:, FOOT + 3]
        error = cfg.squat_height_target - (state[:, Z] - np.where(rz < lz, rz, lz))
        # published +2.0 on a squared error reads as a penalty; the square is
        # Python's float pow, not np.square (they differ in the last bit), but
        # where that pow would overflow and raise (only a diverged state's)
        raw[:, 1] = np.where(active == GAIT_SQUAT,
                             [-(e**2) if abs(e) < 1e150 else -(e * e) for e in error.tolist()], 0.0)
        weighted, r_g = _weigh(GAIT_TERMS, raw, cfg)
    zero = np.zeros(n)
    return RewardBreakdown(GAIT_TERMS, raw, weighted, zero, zero, r_g, r_g)


def total_reward(
    loco: RewardBreakdown,
    style_raw: np.ndarray,
    gait_bd: RewardBreakdown,
    cfg: RewardConfig,
) -> RewardBreakdown:
    """Compose the totals; per-term logging is preserved.  At stage 1 the caller
    passes a zero ``style_raw`` and all-zero gait commands: both add 0.0."""
    r_s = cfg.style_weight * style_raw
    return RewardBreakdown(
        names=(*loco.names, *gait_bd.names, "style"),
        raw=np.concatenate([loco.raw, gait_bd.raw, style_raw[:, None]], axis=1),
        weighted=np.concatenate([loco.weighted, gait_bd.weighted, r_s[:, None]], axis=1),
        r_l=loco.r_l,
        r_s=r_s,
        r_g=gait_bd.r_g,
        total=loco.r_l + r_s + gait_bd.r_g,
    )
