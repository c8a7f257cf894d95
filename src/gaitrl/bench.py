"""Benchmark harness, gait-modulation evaluation, and latent-space analysis.

The traversal benchmark mirrors the training-time evaluation protocol: fresh
track per trial, success means reaching the goal distance within the time
limit without a termination, and the reported distance averages over every
trial including failures.  Each trial writes a JSONL trace from which the
report numbers are exactly recomputable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .biped import BipedModel, N_JOINTS
from .config import RunConfig, config_hash
from .env import CommandState, DRConfig, EnvConfig, TerrainEnv, one_hot
from .policy import ActorCritic
from .refmotion import GAIT_NAMES
from .rewards import RewardConfig, locomotion_rewards
from .terrain import build_benchmark_track, generate_terrain

REPORT_FORMAT_VERSION = 1
TRACE_FORMAT_VERSION = 1


@dataclass
class BenchmarkSuite:
    cells: tuple = (
        ("gap", "easy"), ("gap", "hard"),
        ("stair", "easy"), ("stair", "hard"),
        ("step", "easy"), ("step", "hard"),
    )
    trials: int = 200
    seed_base: int = 0
    timeout_s: float = 40.0
    goal_m: float = 14.0


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
    method: str
    gait: str
    cells: list
    config_hash: str = ""
    format_version: int = REPORT_FORMAT_VERSION

    def to_json_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "method": self.method,
            "gait": self.gait,
            "config_hash": self.config_hash,
            "cells": [
                {
                    "obstacle": c.obstacle,
                    "mode": c.mode,
                    "success_rate": c.success_rate,
                    "mean_distance": c.mean_distance,
                    "trials": c.trials,
                    "seeds": c.seeds,
                }
                for c in self.cells
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BenchmarkReport":
        if d.get("format_version") != REPORT_FORMAT_VERSION:
            raise ValueError(f"unsupported report version: {d.get('format_version')}")
        return cls(
            method=d["method"],
            gait=d["gait"],
            config_hash=d.get("config_hash", ""),
            cells=[CellResult(**c) for c in d["cells"]],
        )

    def cell(self, obstacle: str, mode: str) -> CellResult:
        for c in self.cells:
            if c.obstacle == obstacle and c.mode == mode:
                return c
        raise KeyError((obstacle, mode))

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
    """Deterministic-evaluation wrapper around a trained policy."""

    def __init__(self, policy: ActorCritic, gait_id: int | None = None):
        self.policy = policy
        self.gait_id = gait_id
        n = policy.arch.n_gaits
        self.gait = one_hot(gait_id, n) if gait_id is not None else None

    def act(self, bundle, commands, state):
        gait = self.gait
        if self.policy.mode.stage >= 2 and gait is None:
            gait = commands.gait
        res = self.policy.act(bundle, gait, deterministic=True)
        bound = self.policy.model.action_bound
        # np.clip as two ufuncs: same values (NaN included), less call overhead
        return np.minimum(np.maximum(res.action, -bound), bound)


def run_trial(
    controller,
    terrain,
    model: BipedModel,
    env_cfg: EnvConfig,
    *,
    v_cmd: float = 0.6,
    gait_id: int | None = None,
    timeout_s: float = 40.0,
    goal_m: float = 14.0,
    seed: int = 0,
    trace_file=None,
    reward_cfg: RewardConfig | None = None,
) -> dict:
    """One evaluation episode; returns the trial summary.

    Trials run without external pushes (those are a training-time
    disturbance) and with identity domain randomization.  The trace scores
    its reward terms with ``reward_cfg`` (the default ``RewardConfig()``
    when omitted).
    """
    cfg_ep = EnvConfig(
        **{**env_cfg.__dict__, "max_episode_s": timeout_s, "push_vel_max": 0.0}
    )
    env = TerrainEnv(model, cfg_ep, seed=seed)
    gait = one_hot(gait_id, cfg_ep.n_gaits) if gait_id is not None else np.zeros(cfg_ep.n_gaits)
    bundle = env.reset(terrain, DRConfig.identity(), CommandState(v_cmd=v_cmd, gait=gait))
    reward_cfg = reward_cfg if reward_cfg is not None else RewardConfig()
    a_prev = np.zeros(N_JOINTS)
    a_prev2 = np.zeros(N_JOINTS)
    distance = 0.0
    success = False
    termination = "timeout"
    steps = 0
    while True:
        action = controller.act(bundle, env.commands, env.state)
        res = env.step(action)
        steps += 1
        distance = max(res.distance, distance)
        if trace_file is not None:
            bd = locomotion_rewards(
                env.state, env.commands, action, a_prev, a_prev2, cfg_ep.dt,
                reward_cfg, model,
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
        bundle = res.bundle
    return {
        "success": success,
        "distance": min(max(distance, 0.0), goal_m),
        "termination": termination,
        "steps": steps,
        "seed": seed,
    }


def run_benchmark(
    controller,
    cfg: RunConfig,
    suite: BenchmarkSuite,
    method: str = "policy",
    gait_id: int | None = None,
    out_dir: str | None = None,
) -> BenchmarkReport:
    """The full Succ./Dist. sweep over the suite's obstacle cells."""
    if suite.trials < 1:
        raise ValueError("suite needs at least one trial per cell")
    gait_name = GAIT_NAMES[gait_id] if gait_id is not None else "none"
    cells = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for obstacle, mode in suite.cells:
        trace_path = None
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
                terrain = generate_terrain(
                    "flat", 0.0, seed,
                    track_length=cfg.terrain.track_length,
                    cell_size=cfg.terrain.cell_size,
                )
            else:
                terrain = build_benchmark_track(
                    obstacle, mode, seed,
                    track_length=cfg.terrain.track_length,
                    cell_size=cfg.terrain.cell_size,
                    start_clear=cfg.terrain.start_clear,
                )
            if trace_file is not None:
                trace_file.write(
                    json.dumps(
                        {"trial": trial, "seed": seed, "format_version": TRACE_FORMAT_VERSION},
                        sort_keys=True,
                    )
                    + "\n"
                )
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
                trace_file.write(json.dumps({"trial_end": trial, **out}, sort_keys=True) + "\n")
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
        with open(os.path.join(out_dir, f"report_{method}.json"), "w") as f:
            json.dump(report.to_json_dict(), f, sort_keys=True, indent=2)
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
    controller = PolicyController(policy, gait_id=gait_id)
    per_rollout = []
    for k in range(n_rollouts):
        env_cfg = EnvConfig(**{**cfg.env.__dict__, "max_episode_s": rollout_s})
        env = TerrainEnv(cfg.model, env_cfg, seed=seed + k)
        terrain = generate_terrain(
            terrain_kind, 0.0, seed=seed + k,
            track_length=cfg.terrain.track_length,
            cell_size=cfg.terrain.cell_size,
        )
        bundle = env.reset(
            terrain, DRConfig.identity(),
            CommandState(v_cmd=0.4, gait=one_hot(gait_id, env_cfg.n_gaits)),
        )
        values = []
        apex = 0.0
        prev_max = 0.0
        while True:
            res = env.step(controller.act(bundle, env.commands, env.state))
            st = env.state
            if attribute == "squat_height":
                values.append(st.z - min(st.foot_pos[0, 1], st.foot_pos[1, 1]))
            elif attribute == "knee_lift":
                cur = float(np.max(st.knee_heights))
                # record apexes: local maxima of the swing knee height
                if cur < prev_max - 1e-3 and prev_max > 0.0:
                    values.append(apex)
                    apex = 0.0
                apex = max(apex, cur)
                prev_max = cur
            else:
                raise ValueError(f"unknown gait attribute: {attribute!r}")
            if res.done:
                break
            bundle = res.bundle
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
    coords: np.ndarray  # [N, 2] deterministic linear projection
    silhouette: float | None
    degenerate: bool
    gate_usage: dict  # gait label -> mean gate weights
    n_samples: int

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "coords": [[float(a), float(b)] for a, b in self.coords],
            "silhouette": self.silhouette,
            "degenerate": self.degenerate,
            "gate_usage": {k: [float(x) for x in v] for k, v in self.gate_usage.items()},
            "n_samples": self.n_samples,
        }


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
    """Plain euclidean silhouette over the given labeling."""
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
    """Rollout samples (bundle, gait, terrain label) across gaits and terrains."""
    samples = []
    for kind in terrain_kinds:
        for gid in range(cfg.env.n_gaits):
            env = TerrainEnv(cfg.model, cfg.env, seed=seed)
            terrain = generate_terrain(
                kind, 0.3, seed=seed,
                track_length=cfg.terrain.track_length,
                cell_size=cfg.terrain.cell_size,
            )
            gait = one_hot(gid, cfg.env.n_gaits)
            bundle = env.reset(
                terrain, DRConfig.identity(), CommandState(v_cmd=0.5, gait=gait)
            )
            controller = PolicyController(policy, gait_id=gid)
            for _ in range(steps_per_combo):
                samples.append((bundle.copy(), gait.copy(), kind))
                res = env.step(controller.act(bundle, env.commands, env.state))
                if res.done:
                    break
                bundle = res.bundle
    return samples
