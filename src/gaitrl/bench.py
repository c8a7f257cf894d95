"""Benchmark harness, gait-modulation evaluation, and latent-space analysis.

The traversal benchmark mirrors the training-time evaluation protocol: fresh
track per trial, success means reaching the goal distance within the time
limit without a termination, and the reported distance averages over every
trial including failures.  Each trial writes a JSONL trace from which the
report numbers are exactly recomputable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Annotated, ClassVar

import numpy as np

from .biped import N_JOINTS, PITCH, STATE_WIDTH, TIME, VX, X, Z, BipedModel
from .codec import POSITIVE, Bounded, encode, write_json
from .config import RunConfig, config_hash
from .env import CommandState, DRConfig, EnvConfig, TerrainEnv, one_hot
from .policy import ActorCritic
from .refmotion import GAIT_NAMES
from .rewards import LOCOMOTION_TERMS, RewardConfig, locomotion_rewards
from .terrain import build_benchmark_track, generate_terrain

REPORT_FORMAT_VERSION = 1
TRACE_FORMAT_VERSION = 1
# every trace line: the bytes of json.dumps(..., sort_keys=True), from one encoder
_TRACE_JSON = json.JSONEncoder(sort_keys=True)


@dataclass
class BenchmarkSuite(Bounded):
    cells: tuple = (
        ("gap", "easy"), ("gap", "hard"),
        ("stair", "easy"), ("stair", "hard"),
        ("step", "easy"), ("step", "hard"),
    )
    trials: Annotated[int, POSITIVE] = 200
    seed_base: int = 0
    timeout_s: Annotated[float, POSITIVE] = 40.0
    goal_m: Annotated[float, POSITIVE] = 14.0


@dataclass
class CellResult:
    obstacle: str
    mode: str
    success_rate: float
    mean_distance: float
    trials: int
    seeds: list


@dataclass
class BenchmarkReport:
    format_version: ClassVar[int] = REPORT_FORMAT_VERSION
    method: str
    gait: str
    cells: list[CellResult]
    config_hash: str = ""

    def to_json_dict(self) -> dict:
        """The report document, as ``report_<method>.json`` holds it."""
        return encode(self)

    def text_table(self) -> str:
        lines = [f"method: {self.method}   gait: {self.gait}"]
        header = f"{'terrain':<14}{'Succ.':>8}{'Dist.':>9}{'trials':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for c in self.cells:
            lines.append(
                f"{c.obstacle + ' (' + c.mode + ')':<14}{c.success_rate:>8.3f}"
                f"{c.mean_distance:>9.3f}{c.trials:>8d}"
            )
        return "\n".join(lines)


class PolicyController:
    """Deterministic-evaluation wrapper around a trained policy.

    With ``gait_id``, the policy sees that gait command in place of the
    observation's own; without it, the observation's.
    """

    def __init__(self, policy: ActorCritic, gait_id: int | None = None):
        self.policy = policy
        self.gait = one_hot(gait_id, policy.dims["d_gait"]) if gait_id is not None else None

    def act(self, bundle, state):
        if self.gait is not None:
            bundle = bundle.with_gait(self.gait)
        action = self.policy.act(bundle)
        bound = self.policy.model.action_bound
        # np.clip as two ufuncs: same values (NaN included), less call overhead
        return np.minimum(np.maximum(action, -bound), bound)


def eval_episode(controller, terrain, model: BipedModel, env_cfg: EnvConfig, *,
                 v_cmd: float, gait_id: int | None, max_episode_s: float, seed: int):
    """One evaluation episode, a control step at a time.

    Evaluation runs without external pushes (those are a training-time
    disturbance) and with identity domain randomization.  Yields
    ``(env, bundle, action, result)`` per step, where ``bundle`` is the
    observation ``action`` was chosen from and ``env`` is past the step; ends
    after the step that ends the episode, and a caller may stop earlier.
    """
    cfg = EnvConfig(
        **{**env_cfg.__dict__, "max_episode_s": max_episode_s, "push_vel_max": 0.0}
    )
    env = TerrainEnv(model, cfg, seed=seed)
    gait = one_hot(gait_id, cfg.n_gaits) if gait_id is not None else np.zeros(cfg.n_gaits)
    env.reset(terrain, DRConfig(), CommandState(v_cmd=v_cmd, gait=gait))
    while True:
        bundle = env.bundle
        action = controller.act(bundle, env.state)
        res = env.step(action)
        yield env, bundle, action, res
        if res.done:
            return


def _finite_or_none(v: float):
    return v if math.isfinite(v) else None


TRIAL_V_CMD = 0.6  # m/s, the forward velocity command of every benchmark trial
# a trial's trace scores and writes its steps this many at a time, in one
# reward call a chunk, so its memory does not grow with the trial's length
TRACE_CHUNK = 256


def run_trial(
    controller,
    terrain,
    model: BipedModel,
    env_cfg: EnvConfig,
    *,
    gait_id: int | None = None,
    timeout_s: float = 40.0,
    goal_m: float = 14.0,
    seed: int = 0,
    trace_file=None,
    reward_cfg: RewardConfig | None = None,
) -> dict:
    """One evaluation episode (see :func:`eval_episode`) at the velocity
    command ``TRIAL_V_CMD``; returns the trial summary.

    The trace keeps each step's state row, action and distance, and scores
    the reward terms of each ``TRACE_CHUNK`` steps, and of the last steps
    when the trial ends, in one call with ``reward_cfg`` (the default
    ``RewardConfig()`` when omitted), writing one line per step.  A step
    that ends ``"diverged"`` is scored zero on every term, as the trainer
    scores it, and its non-finite state fields are written as ``null``, so
    every trace line is strict JSON.
    """
    reward_cfg = reward_cfg if reward_cfg is not None else RewardConfig()
    distance = 0.0
    success = False
    episode = eval_episode(
        controller, terrain, model, env_cfg,
        v_cmd=TRIAL_V_CMD, gait_id=gait_id, max_episode_s=timeout_s, seed=seed,
    )
    if trace_file is not None:
        # a chunk of steps: each step's state row, action and distance
        chunk = np.empty((TRACE_CHUNK, STATE_WIDTH + N_JOINTS + 1))
    # the episode ends on a terminating step, so the loop ends on one or on the goal
    for steps, (env, _, action, res) in enumerate(episode, 1):
        distance = max(res.distance, distance)
        if trace_file is not None:
            k = (steps - 1) % TRACE_CHUNK
            if k == 0 and steps > 1:  # the chunk is full, and the trial goes on
                _write_trace(trace_file, chunk, steps - 1 - TRACE_CHUNK, "none",
                             env.batch.commands()[env.index], reward_cfg, model)
            chunk[k, :STATE_WIDTH] = env.batch.state[env.index]
            chunk[k, STATE_WIDTH:-1] = action
            chunk[k, -1] = res.distance
        if res.distance >= goal_m:
            success = True
            break
    if trace_file is not None:
        n = (steps - 1) % TRACE_CHUNK + 1
        _write_trace(trace_file, chunk[:n], steps - n, res.termination,
                     env.batch.commands()[env.index], reward_cfg, model)
    return {
        "success": success,
        "distance": min(max(distance, 0.0), goal_m),
        "termination": "goal" if success else res.termination,
        "steps": steps,
        "seed": seed,
    }


def _write_trace(trace_file, rows, first_step, termination, commands, reward_cfg, model) -> None:
    """One trace line per step of ``rows`` (state row, action, distance), the
    steps after ``first_step``: the step's state, action, distance and
    weighted locomotion terms, scored in one call.  The last row carries
    ``termination``."""
    n = len(rows)
    states = rows[:, :STATE_WIDTH]
    weighted = locomotion_rewards(
        states, np.broadcast_to(commands, (n, 2)), reward_cfg, model
    ).weighted
    # the chunk's floats, as Python floats, in one call per column group
    fields = states[:, [TIME, X, Z, PITCH, VX]].tolist()
    actions, distances = rows[:, STATE_WIDTH:-1].tolist(), rows[:, -1].tolist()
    weighted = weighted.tolist()
    for k in range(n):
        t, x, z, pitch, vx = fields[k]
        term = termination if k == n - 1 else "none"
        trace_file.write(
            _TRACE_JSON.encode({
                "step": first_step + k + 1,
                "t": _finite_or_none(round(t, 6)),
                "x": _finite_or_none(x),
                "z": _finite_or_none(z),
                "pitch": _finite_or_none(pitch),
                "vx": _finite_or_none(vx),
                "action": [round(a, 6) for a in actions[k]],
                "rewards": {} if term == "diverged" else dict(zip(LOCOMOTION_TERMS, weighted[k])),
                "distance": distances[k],
                "termination": term,
            })
            + "\n"
        )


def run_benchmark(
    controller,
    cfg: RunConfig,
    suite: BenchmarkSuite,
    method: str = "policy",
    gait_id: int | None = None,
    out_dir: str | None = None,
) -> BenchmarkReport:
    """The full Succ./Dist. sweep over the suite's obstacle cells."""
    gait_name = GAIT_NAMES[gait_id] if gait_id is not None else "none"
    cells = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for obstacle, mode in suite.cells:
        trace_file = None
        if out_dir:
            trace_path = os.path.join(out_dir, f"trace_{method}_{obstacle}_{mode}.jsonl")
            trace_file = open(trace_path, "w")
        successes = 0
        dist_sum = 0.0
        seeds = []
        for trial in range(suite.trials):
            seed = suite.seed_base + trial
            seeds.append(seed)
            if obstacle == "flat":
                # degenerate cell used to audit the harness arithmetic
                terrain = generate_terrain("flat", 0.0, seed, cfg.terrain)
            else:
                terrain = build_benchmark_track(obstacle, mode, seed, cfg.terrain)
            if trace_file is not None:
                trace_file.write(_TRACE_JSON.encode(
                    {"trial": trial, "seed": seed, "format_version": TRACE_FORMAT_VERSION}
                ) + "\n")
            out = run_trial(
                controller, terrain, cfg.model, cfg.env,
                gait_id=gait_id,
                timeout_s=suite.timeout_s,
                goal_m=suite.goal_m,
                seed=seed,
                trace_file=trace_file,
                reward_cfg=cfg.rewards,
            )
            if trace_file is not None:
                trace_file.write(_TRACE_JSON.encode({"trial_end": trial, **out}) + "\n")
            successes += int(out["success"])
            dist_sum += out["distance"]
        if trace_file is not None:
            trace_file.close()
        cells.append(
            CellResult(
                obstacle=obstacle,
                mode=mode,
                success_rate=successes / suite.trials,
                mean_distance=dist_sum / suite.trials,
                trials=suite.trials,
                seeds=seeds,
            )
        )
    report = BenchmarkReport(
        method=method, gait=gait_name, cells=cells, config_hash=config_hash(cfg)
    )
    if out_dir:
        write_json(os.path.join(out_dir, f"report_{method}.json"), report, indent=2)
        with open(os.path.join(out_dir, f"report_{method}.txt"), "w") as f:
            f.write(report.text_table() + "\n")
    return report


def recompute_cell_from_trace(trace_path, goal_m: float = 14.0) -> tuple[float, float]:
    """Audit: re-derive (Succ., Dist.) for one cell from its trial trace."""
    successes = 0
    distances = []
    with open(trace_path) as f:
        for line in f:
            rec = json.loads(line)
            if "trial_end" in rec:
                successes += int(rec["success"])
                distances.append(rec["distance"])
    if not distances:
        raise ValueError(f"no trials in trace {trace_path}")
    return successes / len(distances), float(np.mean(distances))


# -- gait reward modulation ----------------------------------------------------


def measure_gait_attribute(
    policy: ActorCritic,
    cfg: RunConfig,
    gait_id: int,
    attribute: str,
    n_rollouts: int = 10,
    rollout_s: float = 6.0,
    seed: int = 0,
    terrain_kind: str = "flat",
) -> tuple[float, float]:
    """Mean and std of an achieved gait feature over evaluation rollouts.

    ``attribute``: "squat_height" (mean base height above the lower foot) or
    "knee_lift" (mean per-cycle swing-knee apex above local ground).
    """
    if attribute not in ("squat_height", "knee_lift"):
        raise ValueError(f"unknown gait attribute: {attribute!r}")
    controller = PolicyController(policy, gait_id=gait_id)
    per_rollout = []
    for k in range(n_rollouts):
        terrain = generate_terrain(terrain_kind, 0.0, seed + k, cfg.terrain)
        values = []
        apex = 0.0
        prev_max = 0.0
        for env, _, _, _ in eval_episode(
            controller, terrain, cfg.model, cfg.env,
            v_cmd=0.4, gait_id=gait_id, max_episode_s=rollout_s, seed=seed + k,
        ):
            st = env.state
            if attribute == "squat_height":
                values.append(st.z - min(st.foot_pos[0, 1], st.foot_pos[1, 1]))
            else:
                cur = float(np.max(st.knee_heights))
                # record apexes: local maxima of the swing knee height
                if cur < prev_max - 1e-3 and prev_max > 0.0:
                    values.append(apex)
                    apex = 0.0
                apex = max(apex, cur)
                prev_max = cur
        if values:
            per_rollout.append(float(np.mean(values)))
    if not per_rollout:
        raise RuntimeError("no usable rollouts for gait measurement")
    return float(np.mean(per_rollout)), float(np.std(per_rollout))


def run_gait_modulation(
    checkpoints: list[tuple[ActorCritic, RunConfig, str]],
    gait_id: int,
    attribute: str,
    n_rollouts: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Achieved-vs-target table for policies trained with different targets."""
    rows = []
    for policy, cfg, label in checkpoints:
        target = (
            cfg.rewards.squat_height_target
            if attribute == "squat_height"
            else cfg.rewards.knee_lift_target
        )
        mean, std = measure_gait_attribute(
            policy, cfg, gait_id, attribute, n_rollouts=n_rollouts, seed=seed
        )
        rows.append(
            {
                "label": label,
                "attribute": attribute,
                "target": target,
                "achieved_mean": mean,
                "achieved_std": std,
                "rollouts": n_rollouts,
            }
        )
    return rows


# -- latent analysis -------------------------------------------------------------


@dataclass
class LatentReport:
    format_version: ClassVar[int] = 1
    coords: np.ndarray  # [N, 2] deterministic linear projection
    silhouette: float | None
    degenerate: bool
    gate_usage: dict[str, np.ndarray]  # gait label -> mean gate weights
    n_samples: int


def pca_2d(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-component PCA with a fixed sign convention (first nonzero loading > 0)."""
    centered = data - data.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(len(data) - 1, 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:2]
    comps = vecs[:, order].T
    if comps.shape[0] < 2:
        comps = np.vstack([comps, np.zeros((2 - comps.shape[0], data.shape[1]))])
    for i in range(2):
        nz = np.nonzero(np.abs(comps[i]) > 1e-12)[0]
        if len(nz) and comps[i, nz[0]] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T, comps


def silhouette_score(data: np.ndarray, labels: np.ndarray) -> float:
    """Plain euclidean silhouette over the given labeling.

    Each row's distances to every row are taken one row at a time, so the
    working set is ``[n, d]``, not the ``[n, n, d]`` of all differences."""
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least two clusters")
    scores = []
    for i in range(len(data)):
        same = labels == labels[i]
        n_same = same.sum()
        if n_same <= 1:
            scores.append(0.0)
            continue
        d = data[i] - data
        dist = np.sqrt(np.sum(d * d, axis=1))
        a = dist[same].sum() / (n_same - 1)
        b = min(dist[labels == u].mean() for u in uniq if u != labels[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def analyze_latents(table) -> LatentReport:
    """Projection + clustering quality for an exported residual-latent table."""
    z = np.asarray(table.z_prime, dtype=np.float64)
    labels = np.asarray(table.gait_labels)
    n = len(z)
    if n == 0:
        raise ValueError("empty latent table")
    degenerate = bool(np.all(np.abs(z - z[0]) < 1e-12))
    if degenerate:
        coords = np.zeros((n, 2))
        sil = None
    else:
        coords, _ = pca_2d(z)
        sil = silhouette_score(z, labels) if len(np.unique(labels)) >= 2 else None
    usage: dict = {}
    for g in np.unique(labels):
        usage[str(int(g))] = np.asarray(table.gate_w)[labels == g].mean(axis=0)
    return LatentReport(
        coords=coords,
        silhouette=sil,
        degenerate=degenerate,
        gate_usage=usage,
        n_samples=n,
    )


def collect_latent_samples(
    policy: ActorCritic,
    cfg: RunConfig,
    terrain_kinds: tuple = ("flat", "gap", "step"),
    steps_per_combo: int = 40,
    seed: int = 0,
):
    """Rollout samples (bundle, terrain label) across gaits and terrains; each
    bundle holds the gait command it was collected under."""
    samples = []
    for kind in terrain_kinds:
        for gid in range(cfg.env.n_gaits):
            terrain = generate_terrain(kind, 0.3, seed, cfg.terrain)
            episode = eval_episode(
                PolicyController(policy, gait_id=gid), terrain, cfg.model, cfg.env,
                v_cmd=0.5, gait_id=gid, max_episode_s=cfg.env.max_episode_s, seed=seed,
            )
            for _, (_, bundle, _, _) in zip(range(steps_per_combo), episode):
                samples.append((bundle, kind))
    return samples
