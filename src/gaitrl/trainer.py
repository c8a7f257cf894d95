"""Two-stage training: rollouts, curriculum, gait scheduling, checkpoints.

Stage 1 learns terrain locomotion from locomotion rewards alone.  Stage 2
attaches the residual mixture of experts to a stage-1 checkpoint, turns on
the per-gait discriminators and gait-routed rewards, and trains everything
together (base parts at the base learning rate, residual parts at their
own).  Everything is single-threaded and keyed off one run seed, so a
(config, seed) pair reproduces checkpoints and metrics byte for byte.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .amp import (
    DiscriminatorSet,
    WindowBuffer,
    amp_update,
    make_discriminators,
    style_reward,
)
from .biped import N_JOINTS
from .config import RunConfig, config_hash, config_to_dict
from .env import CommandState, TerrainEnv, one_hot, sample_dr
from .nets import AdamState, net_from_dict, net_to_dict
from .policy import ActorCritic, BundleBatch, PolicyMode, gaussian_log_prob_batch
from .ppo import RolloutBuffer, make_optimizers, ppo_update
from .refmotion import WINDOW_LEN, default_clip_set, reference_windows
from .rewards import RewardBreakdown, gait_rewards, locomotion_rewards, total_reward
from .terrain import generate_terrain

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1


class TrainingDiverged(RuntimeError):
    pass


# -- curriculum ---------------------------------------------------------------


@dataclass
class CurriculumState:
    kind: str
    difficulty: float = 0.0
    promotions: int = 0
    demotions: int = 0


def update_curriculum(state: CurriculumState, traversal_frac: float, cfg) -> CurriculumState:
    """Promote/demote one difficulty step on episode performance, clamped to [0, 1]."""
    d = state.difficulty
    promotions, demotions = state.promotions, state.demotions
    if traversal_frac >= cfg.promote:
        d = min(1.0, d + cfg.delta)
        promotions += 1
    elif traversal_frac <= cfg.demote:
        d = max(0.0, d - cfg.delta)
        demotions += 1
    return CurriculumState(state.kind, d, promotions, demotions)


# -- gait schedule --------------------------------------------------------------


class GaitScheduler:
    """Hold a one-hot gait command for a fixed period, then redraw."""

    def __init__(self, period_s: float, distribution, transitions: bool = True, n_gaits: int = 3):
        self.period_s = period_s
        self.distribution = np.asarray(distribution, dtype=np.float64)
        self.distribution = self.distribution / self.distribution.sum()
        self.transitions = transitions
        self.n_gaits = n_gaits
        self.segment = -1
        self.current = 0

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.n_gaits, p=self.distribution))

    def command_at(self, time: float, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
        """One-hot command for this instant; second value flags a resample."""
        seg = int(time / self.period_s + 1e-9)
        changed = False
        if seg != self.segment:
            if self.segment < 0 or self.transitions:
                self.current = self.draw(rng)
                changed = True
            self.segment = seg
        return one_hot(self.current, self.n_gaits), changed


# -- per-environment worker -----------------------------------------------------


class EnvWorker:
    def __init__(self, index: int, cfg: RunConfig, stage: int, seed_seq: np.random.SeedSequence):
        self.index = index
        self.cfg = cfg
        self.stage = stage
        child = seed_seq.spawn(2)
        self.rng = np.random.default_rng(child[0])
        self.env = TerrainEnv(cfg.model, cfg.env, seed=int(child[1].generate_state(1)[0]))
        kinds = cfg.terrain.kinds
        self.curr = CurriculumState(
            kind=kinds[index % len(kinds)], difficulty=cfg.curriculum.init_difficulty
        )
        self.scheduler = GaitScheduler(
            cfg.gaits.period_s, cfg.gaits.distribution, cfg.gaits.transitions, cfg.env.n_gaits
        )
        self.bundle = None
        self.gait = np.zeros(cfg.env.n_gaits)
        self.frames: deque = deque(maxlen=WINDOW_LEN)
        self.frame_segments: deque = deque(maxlen=WINDOW_LEN)
        self.segment_id = 0
        self.a_prev = np.zeros(N_JOINTS)
        self.a_prev2 = np.zeros(N_JOINTS)
        self.episodes = 0

    def begin_episode(self) -> None:
        terrain = generate_terrain(
            self.curr.kind,
            self.curr.difficulty if self.cfg.curriculum.enabled else 0.0,
            seed=int(self.rng.integers(2**31)),
            track_length=self.cfg.terrain.track_length,
            cell_size=self.cfg.terrain.cell_size,
            start_clear=self.cfg.terrain.start_clear,
        )
        dr = sample_dr(self.rng, enabled=self.cfg.train.dr_enabled)
        v_lo, v_hi = self.cfg.commands.v_range
        w_lo, w_hi = self.cfg.commands.w_range
        commands = CommandState(
            v_cmd=float(self.rng.uniform(v_lo, v_hi)),
            w_cmd=float(self.rng.uniform(w_lo, w_hi)),
            gait=np.zeros(self.cfg.env.n_gaits),
        )
        self.scheduler.segment = -1
        self.bundle = self.env.reset(terrain, dr, commands)
        if self.stage >= 2:
            self.gait, _ = self.scheduler.command_at(0.0, self.rng)
            self.env.commands.gait = self.gait.copy()
        else:
            self.gait = np.zeros(self.cfg.env.n_gaits)
        self.frames.clear()
        self.frame_segments.clear()
        self.segment_id += 1
        self.a_prev = np.zeros(N_JOINTS)
        self.a_prev2 = np.zeros(N_JOINTS)
        self.episodes += 1

    def maybe_resample_gait(self) -> None:
        if self.stage < 2:
            return
        gait, changed = self.scheduler.command_at(self.env.state.time, self.rng)
        if changed:
            self.gait = gait
            self.env.commands.gait = gait.copy()
            self.segment_id += 1

    def finish_episode(self, distance: float) -> None:
        frac = max(distance, 0.0) / self.cfg.terrain.track_length
        if self.cfg.curriculum.enabled:
            self.curr = update_curriculum(self.curr, frac, self.cfg.curriculum)


# -- checkpointing ---------------------------------------------------------------


def save_checkpoint(path, *, stage, iteration, cfg, policy, opts, discs=None,
                    disc_opts=None, curriculum=None) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "stage": stage,
        "iteration": iteration,
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "policy": policy.to_dict(),
        "optimizers": {k: v.state_dict() for k, v in opts.items()},
    }
    if discs is not None:
        doc["discriminators"] = {
            "alpha_gp": discs.alpha_gp,
            "nets": [net_to_dict(n) for n in discs.nets],
        }
        doc["disc_optimizers"] = [o.state_dict() for o in (disc_opts or [])]
    if curriculum is not None:
        doc["curriculum"] = [
            {"kind": c.kind, "difficulty": c.difficulty,
             "promotions": c.promotions, "demotions": c.demotions}
            for c in curriculum
        ]
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def load_checkpoint(path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {doc.get('format_version')}")
    return doc


def policy_from_checkpoint(doc: dict, cfg: RunConfig) -> ActorCritic:
    return ActorCritic.from_dict(doc["policy"], cfg.model, cfg.env)


def discriminators_from_checkpoint(doc: dict) -> DiscriminatorSet:
    d = doc["discriminators"]
    return DiscriminatorSet(nets=[net_from_dict(n) for n in d["nets"]], alpha_gp=d["alpha_gp"])


# -- the training loop ------------------------------------------------------------


class Trainer:
    def __init__(
        self,
        cfg: RunConfig,
        seed: int,
        stage: int,
        out_dir: str | None = None,
        stage1_checkpoint: dict | None = None,
        resume: dict | None = None,
    ):
        # a private copy: the blind switch below must not reach the caller
        cfg = copy.deepcopy(cfg)
        cfg.env.blind = cfg.train.blind or cfg.env.blind
        self.cfg = cfg
        self.seed = seed
        self.stage = stage
        self.out_dir = out_dir
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

        ss = np.random.SeedSequence(seed)
        init_ss, self.train_ss, amp_ss, env_root = ss.spawn(4)
        self.train_rng = np.random.default_rng(self.train_ss)
        self.amp_rng = np.random.default_rng(amp_ss)

        if resume is not None and resume.get("stage") != stage:
            raise ValueError(
                f"cannot resume a stage-{resume.get('stage')} checkpoint at stage {stage}"
            )

        mode = PolicyMode(
            stage=stage,
            residual_fusion=cfg.mode.residual_fusion,
            one_stage=cfg.mode.one_stage,
            n_experts=cfg.mode.n_experts,
        )
        if resume is not None:
            self.policy = ActorCritic.from_dict(resume["policy"], cfg.model, cfg.env)
        elif stage == 1 and stage1_checkpoint is not None:
            # warm start: adopt the whole stage-1 policy, fresh everything else
            self.policy = ActorCritic.from_dict(stage1_checkpoint["policy"], cfg.model, cfg.env)
        else:
            self.policy = ActorCritic(
                cfg.model, cfg.env, cfg.arch, mode, seed=int(init_ss.generate_state(1)[0])
            )
            if stage >= 2 and stage1_checkpoint is not None:
                self.policy.load_stage1_weights(stage1_checkpoint["policy"])
            elif stage >= 2 and not mode.one_stage:
                raise ValueError("stage 2 needs a stage-1 checkpoint unless one_stage is set")

        self.opts = make_optimizers(self.policy, cfg.ppo)
        if resume is not None:
            for name, state in resume.get("optimizers", {}).items():
                if name in self.opts:
                    self.opts[name] = AdamState.from_state_dict(state)

        self.discs = None
        self.disc_opts = None
        self.refs = None
        self.policy_windows = None
        if stage >= 2:
            window_dim = WINDOW_LEN * N_JOINTS
            if resume is not None and "discriminators" in resume:
                self.discs = discriminators_from_checkpoint(resume)
                self.disc_opts = [
                    AdamState.from_state_dict(s) for s in resume.get("disc_optimizers", [])
                ]
            else:
                self.discs = make_discriminators(
                    cfg.env.n_gaits,
                    window_dim,
                    np.random.default_rng(amp_ss.spawn(1)[0]),
                    hidden=cfg.amp.disc_hidden,
                    alpha_gp=cfg.amp.alpha_gp,
                )
                self.disc_opts = [
                    AdamState(n.params(), lr=cfg.amp.disc_lr) for n in self.discs.nets
                ]
            clips = default_clip_set(cfg.gaits.clip_params, cfg.gaits.clip_seed, cfg.model)
            self.refs = reference_windows(clips)
            self.policy_windows = WindowBuffer(cfg.env.n_gaits, window_dim, cfg.amp.buffer_size)

        env_seeds = env_root.spawn(cfg.ppo.n_envs)
        self.workers = [
            EnvWorker(i, cfg, stage, env_seeds[i]) for i in range(cfg.ppo.n_envs)
        ]
        if resume is not None:
            for w, c in zip(self.workers, resume.get("curriculum", [])):
                w.curr = CurriculumState(**c)
        for w in self.workers:
            w.begin_episode()

        self.iteration = resume["iteration"] if resume is not None else 0
        self.metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
        if self.metrics_path:
            self._start_metrics(resume is not None)
        self._low_tracking_streak = 0

    def _start_metrics(self, resuming: bool) -> None:
        """Start ``metrics.jsonl``: empty for a fresh run; on resume, the lines
        up to the checkpoint's iteration, kept byte for byte.

        The lines after the checkpoint's iteration were appended after it was
        saved, so a crash can leave a partial last line; keeping stops at the
        first line that is not a whole JSON record.
        """
        kept = []
        if resuming and os.path.exists(self.metrics_path):
            with open(self.metrics_path) as f:
                for line in f:
                    try:
                        iteration = json.loads(line)["iteration"]
                    except (ValueError, KeyError, TypeError):
                        break
                    if not line.endswith("\n") or iteration > self.iteration:
                        break
                    kept.append(line)
        with open(self.metrics_path, "w") as f:
            f.writelines(kept)

    # -- rollout ----------------------------------------------------------------

    def collect_rollout(self, buffer: RolloutBuffer) -> dict:
        cfg = self.cfg
        pol = self.policy
        std = np.exp(pol.log_std)
        track_sum = 0.0
        style_sum = 0.0
        style_count = 0
        total_sum = 0.0
        ep_distances = []
        per_gait_style = np.zeros(cfg.env.n_gaits)
        per_gait_count = np.zeros(cfg.env.n_gaits)

        for t in range(cfg.ppo.horizon):
            for w in self.workers:
                w.maybe_resample_gait()
            batch = BundleBatch.stack([w.bundle for w in self.workers])
            gaits = np.stack([w.gait for w in self.workers]) if self.stage >= 2 else None
            means, _ = pol.actor_mean(batch, gaits)
            values, _ = pol.critic_value(batch.m, batch.e, gaits)
            noise = np.stack([w.rng.standard_normal(N_JOINTS) for w in self.workers])
            actions = np.clip(
                means + std * noise, -cfg.model.action_bound, cfg.model.action_bound
            )
            logps = gaussian_log_prob_batch(actions, means, pol.log_std)

            for i, w in enumerate(self.workers):
                a_t = actions[i]
                pre_bundle = w.bundle
                res = w.env.step(a_t)
                st = w.env.state

                if res.termination == "diverged":
                    # the state is non-finite: the step scores zero on every
                    # term (an empty breakdown) and adds no style window
                    log.warning("env %d diverged at step %d; episode ended", i, t)
                    bd = RewardBreakdown()
                else:
                    loco = locomotion_rewards(
                        st, w.env.commands, a_t, w.a_prev, w.a_prev2, cfg.env.dt,
                        cfg.rewards, cfg.model,
                    )
                    style_raw = 0.0
                    if self.stage >= 2:
                        w.frames.append(st.joint_pos.copy())
                        w.frame_segments.append(w.segment_id)
                        if len(w.frames) == WINDOW_LEN:
                            window = np.concatenate(list(w.frames))
                            style_raw = style_reward(window, w.gait, self.discs)
                            gid = int(np.argmax(w.gait))
                            per_gait_style[gid] += style_raw
                            per_gait_count[gid] += 1
                            style_sum += style_raw
                            style_count += 1
                            if len(set(w.frame_segments)) == 1:
                                self.policy_windows.add(gid, window[None, :])
                        gait_bd = gait_rewards(st, w.gait, cfg.rewards)
                    else:
                        gait_bd = gait_rewards(st, np.zeros(cfg.env.n_gaits), cfg.rewards)
                    bd = total_reward(loco, style_raw, gait_bd, self.stage, cfg.rewards)
                reward = max(bd.total, 0.0) if cfg.rewards.only_positive_total else bd.total
                track_sum += bd.weighted.get("track_lin_vel", 0.0)
                total_sum += reward

                if res.termination == "timeout":
                    v_term, _ = pol.critic_value(
                        res.bundle.m, res.bundle.e,
                        w.gait[None, :] if self.stage >= 2 else None,
                    )
                    reward += cfg.ppo.gamma * float(v_term[0])

                buffer.add_step(
                    t, i, pre_bundle, w.gait, a_t, float(logps[i]), float(values[i]),
                    reward, res.done, bd,
                )
                w.a_prev2 = w.a_prev
                w.a_prev = a_t
                if res.done:
                    ep_distances.append(res.distance)
                    w.finish_episode(res.distance)
                    w.begin_episode()
                else:
                    w.bundle = res.bundle

        batch = BundleBatch.stack([w.bundle for w in self.workers])
        gaits = np.stack([w.gait for w in self.workers]) if self.stage >= 2 else None
        values, _ = self.policy.critic_value(batch.m, batch.e, gaits)
        buffer.values[cfg.ppo.horizon] = values
        buffer.mark_filled()

        steps = cfg.ppo.horizon * cfg.ppo.n_envs
        stats = {
            "mean_track": track_sum / steps,
            "mean_total_reward": total_sum / steps,
            "mean_style": (style_sum / style_count) if style_count else 0.0,
            "mean_ep_distance": float(np.mean(ep_distances)) if ep_distances else 0.0,
            "episodes_finished": len(ep_distances),
            "mean_difficulty": float(np.mean([w.curr.difficulty for w in self.workers])),
        }
        if self.stage >= 2:
            for g in range(cfg.env.n_gaits):
                stats[f"style_gait{g}"] = (
                    per_gait_style[g] / per_gait_count[g] if per_gait_count[g] else 0.0
                )
        return stats

    # -- iterations ---------------------------------------------------------------

    def run(self, iterations: int | None = None) -> list[dict]:
        cfg = self.cfg
        iterations = iterations if iterations is not None else cfg.ppo.iterations
        history = []
        for _ in range(iterations):
            buffer = RolloutBuffer(
                cfg.ppo.horizon, cfg.ppo.n_envs, self.policy.dims, cfg.env.n_gaits, N_JOINTS
            )
            roll_stats = self.collect_rollout(buffer)
            amp_stats = {}
            if self.stage >= 2:
                amp_stats = amp_update(
                    self.discs, self.refs, self.policy_windows, self.disc_opts,
                    self.amp_rng, cfg.amp.batch_size, cfg.amp.updates_per_iter,
                )
            ppo_stats = ppo_update(self.policy, buffer, cfg.ppo, self.opts, self.train_rng)
            self.iteration += 1

            entry = {"iteration": self.iteration, **roll_stats, **ppo_stats}
            if self.stage >= 2:
                entry["r_s_mean"] = float(np.mean(buffer.r_s))
                entry["r_g_mean"] = float(np.mean(buffer.r_g))
                entry["r_l_mean"] = float(np.mean(buffer.r_l))
                for k, v in amp_stats.items():
                    if isinstance(v, dict) and not v.get("skipped"):
                        entry[f"{k}_mean_real"] = v["mean_real"]
                        entry[f"{k}_mean_fake"] = v["mean_fake"]
                        entry[f"{k}_loss"] = v["loss"]
            else:
                entry["r_s_mean"] = 0.0
                entry["r_g_mean"] = 0.0
                entry["r_l_mean"] = float(np.mean(buffer.r_l))
            history.append(entry)
            if self.metrics_path:
                with open(self.metrics_path, "a") as f:
                    f.write(json.dumps(entry, sort_keys=True) + "\n")

            self._divergence_guard(entry)
            if self.out_dir and self.iteration % cfg.train.checkpoint_every == 0:
                self.save(os.path.join(self.out_dir, f"checkpoint_{self.iteration:06d}.json"))
        if self.out_dir:
            self.save(os.path.join(self.out_dir, "checkpoint_final.json"))
        return history

    def _divergence_guard(self, entry: dict) -> None:
        cfg = self.cfg.train
        floor = cfg.divergence_floor * self.cfg.rewards.weight("track_lin_vel")
        if self.iteration <= cfg.divergence_warmup:
            return
        if entry["mean_track"] < floor:
            self._low_tracking_streak += 1
        else:
            self._low_tracking_streak = 0
        if self._low_tracking_streak >= cfg.divergence_patience:
            raise TrainingDiverged(
                f"mean tracking reward below {floor:.3f} for "
                f"{self._low_tracking_streak} iterations at iteration {self.iteration}"
            )

    def save(self, path) -> None:
        save_checkpoint(
            path,
            stage=self.stage,
            iteration=self.iteration,
            cfg=self.cfg,
            policy=self.policy,
            opts=self.opts,
            discs=self.discs,
            disc_opts=self.disc_opts,
            curriculum=[w.curr for w in self.workers],
        )


def train_stage1(cfg: RunConfig, seed: int, out_dir: str | None = None,
                 iterations: int | None = None,
                 warm_start: dict | None = None) -> tuple[Trainer, list[dict]]:
    trainer = Trainer(cfg, seed, stage=1, out_dir=out_dir, stage1_checkpoint=warm_start)
    history = trainer.run(iterations)
    return trainer, history


def train_stage2(cfg: RunConfig, stage1_checkpoint: dict | None, seed: int,
                 out_dir: str | None = None, iterations: int | None = None) -> tuple[Trainer, list[dict]]:
    if stage1_checkpoint is not None and cfg.mode.one_stage:
        raise ValueError("one_stage training must not load a stage-1 checkpoint")
    trainer = Trainer(cfg, seed, stage=2, out_dir=out_dir, stage1_checkpoint=stage1_checkpoint)
    history = trainer.run(iterations)
    return trainer, history
