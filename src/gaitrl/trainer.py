"""Two-stage training: rollouts, curriculum, gait scheduling, checkpoints.

Stage 1 learns terrain locomotion from locomotion rewards alone.  Stage 2
attaches the residual mixture of experts to a stage-1 policy, turns on the
per-gait discriminators and gait-routed rewards, and trains everything
together (base parts at the base learning rate, residual parts at their
own).  The gait schedule draws each env's command anew at every period, so
stage 2 learns to switch gaits; it writes the command through
``TerrainEnv.set_gait``, so the command reaches the policy, the critic and
the rollout buffer as the observation's gait block.  Style runs on the env
axis: the schedule and the style frames are the trainer's ``[N]`` and
``[N, d]`` columns, and each step scores every full window in one
``style_reward`` call, one stacked pass per gait's discriminator with each
row at the bits of a batch of one.

A run is ``Trainer(...).run()``, and ``Trainer.__init__`` alone decides what
it starts from: a resume takes a checkpoint at the run's stage and runs
under that checkpoint's config; a warm start (stage 1) takes a stage-1
policy whole, and stage 2 takes its actor; a ``mode.one_stage`` run has no
stage 1 and starts from a fresh policy.  A policy taken whole must have the
run's arch and mode (``cfg.mode`` at the run's stage), an actor the run's
arch, and every net the run's observation widths, so a checkpoint's config
describes its policy; a ``ValueError`` names the first field that differs.
The run writes nothing into its config.
An iteration's updates are all or nothing: one :class:`gaitrl.nets.Snapshot`
of the policy, the discriminators and their Adam states is taken before
them, and a non-finite loss or gradient in the AMP or the PPO update
restores all of it.  That iteration's metrics line records ``nan_aborted``
and which update met it (``nan_update``: ``"disc<g>"`` or ``"ppo"``), and
the run goes on; the divergence guard still decides when a run stops.

Everything is single-threaded and keyed off one run seed, so a (config,
seed) pair reproduces checkpoints and metrics byte for byte.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import json
import logging
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import ClassVar

import numpy as np

from .amp import (
    DiscriminatorSet,
    WindowBuffer,
    amp_update,
    disc_parts,
    make_discriminators,
    style_reward,
)
from .biped import N_JOINTS, Q, QD, TIME
from .codec import decode, read_json, write_json
from .config import RunConfig, config_hash
from .env import CommandState, EnvBatch, TerrainEnv, one_hot, sample_dr
from .nets import AdamState, Snapshot
from .policy import ActorCritic, BundleBatch, PolicyState, gaussian_log_prob_batch
from .ppo import RolloutBuffer, make_optimizers, policy_parts, ppo_update
from .refmotion import WINDOW_LEN, default_clip_set, reference_windows
from .rewards import gait_rewards, locomotion_rewards, total_reward
from .terrain import generate_terrain

log = logging.getLogger(__name__)

# 2: nets and their Adam moments are float32, and packed arrays record their dtype
CHECKPOINT_FORMAT_VERSION = 2


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


# -- per-environment worker -----------------------------------------------------


@functools.lru_cache(maxsize=8)  # the workers of a run share one
def _gait_cdf(distribution: tuple) -> np.ndarray:
    """The cumulative probabilities of ``distribution`` normalized to sum to
    one, read-only, by ``Generator.choice``'s arithmetic: the cumulative sum
    of the normalized ``p``, divided by its last value."""
    p = np.asarray(distribution, dtype=np.float64)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class EnvWorker:
    """One env of the rollout, and what training adds to it: the worker's
    rng (terrain, DR, commands, gaits, exploration noise) and its terrain
    curriculum.  The episode's own state (observation, commands, actions)
    is the env's; the gait schedule and the style frames are the trainer's
    columns.  ``gait_cdf`` holds the cumulative probabilities of the gait
    distribution the worker draws from."""

    def __init__(self, index: int, cfg: RunConfig, stage: int, seed_seq: np.random.SeedSequence,
                 envs: EnvBatch | None = None):
        self.index = index
        self.cfg = cfg
        self.stage = stage
        child = seed_seq.spawn(2)
        self.rng = np.random.default_rng(child[0])
        self.env = TerrainEnv(cfg.model, cfg.env, seed=int(child[1].generate_state(1)[0]), batch=envs)
        kinds = cfg.terrain.kinds
        self.curr = CurriculumState(
            kind=kinds[index % len(kinds)], difficulty=cfg.curriculum.init_difficulty
        )
        self.gait_cdf = _gait_cdf(tuple(cfg.gaits.distribution))

    def begin_episode(self) -> None:
        """Start the env's next episode: the worker's rng draws the terrain
        seed, the DR vector, ``v_cmd``, ``w_cmd`` and, at stage 2, the gait,
        in that order (the ``gaitrl.env`` docstring, "The episode start")."""
        cfg, rng = self.cfg, self.rng
        terrain = generate_terrain(
            self.curr.kind,
            self.curr.difficulty if cfg.curriculum.enabled else 0.0,
            int(rng.integers(2**31)),
            cfg.terrain,
        )
        dr = sample_dr(rng, enabled=cfg.train.dr_enabled)
        (v_lo, v_hi), (w_lo, w_hi) = cfg.commands.v_range, cfg.commands.w_range
        v_cmd, w_cmd = float(rng.uniform(v_lo, v_hi)), float(rng.uniform(w_lo, w_hi))
        gait = self.draw_gait() if self.stage >= 2 else np.zeros(cfg.env.n_gaits)
        self.env.reset(terrain, dr, CommandState(v_cmd, w_cmd, gait))

    def draw_gait(self) -> np.ndarray:
        """A one-hot gait command drawn by inverse CDF from one double: the
        index and the generator state ``rng.choice(n, p=p)`` gives for the
        normalized distribution ``p``, without its per-call checks."""
        n = len(self.gait_cdf)
        return one_hot(int(self.gait_cdf.searchsorted(self.rng.random(), side="right")), n)

    def finish_episode(self, distance: float) -> None:
        frac = max(distance, 0.0) / self.cfg.terrain.track_length
        if self.cfg.curriculum.enabled:
            self.curr = update_curriculum(self.curr, frac, self.cfg.curriculum)


# -- checkpointing ---------------------------------------------------------------


@dataclass
class Checkpoint:
    """A training run's state: what ``checkpoint_*.json`` holds."""

    format_version: ClassVar[int] = CHECKPOINT_FORMAT_VERSION
    stage: int
    iteration: int
    config_hash: str
    config: RunConfig
    policy: PolicyState
    optimizers: dict[str, AdamState] = field(default_factory=dict)
    discriminators: DiscriminatorSet | None = None
    disc_optimizers: list[AdamState] | None = None
    curriculum: list[CurriculumState] | None = None

    def __post_init__(self):
        # the stage's policy, and the discriminators at stage 2 only
        if self.policy.mode.stage != self.stage:
            raise ValueError(f"policy: a stage-{self.policy.mode.stage} policy at stage {self.stage}")
        if self.stage < 2:
            if self.discriminators is not None or self.disc_optimizers is not None:
                raise ValueError("discriminators: a stage-1 checkpoint has none")
        elif self.discriminators is None:
            raise ValueError("discriminators: missing; a stage-2 checkpoint has discriminators")
        elif len(self.disc_optimizers or ()) != self.discriminators.n_gaits:
            raise ValueError("disc_optimizers: a stage-2 checkpoint has one per discriminator")


def load_checkpoint(path) -> Checkpoint:
    return read_json(Checkpoint, path)


def _stage1_policy(stage1_checkpoint) -> PolicyState:
    """The policy of a ``Checkpoint``, or of a mapping that holds a policy
    document under ``"policy"`` (``{"policy": policy.to_dict()}``)."""
    if isinstance(stage1_checkpoint, Checkpoint):
        # the run trains the policy's arrays in place
        return copy.deepcopy(stage1_checkpoint.policy)
    return decode(PolicyState, stage1_checkpoint["policy"], "policy")


def _check_fits(what: str, theirs, mine, path: str = "") -> None:
    """Raise a ``ValueError`` naming the first field (under ``path``, nested
    sections field by field) in which ``theirs``, the checkpoint's ``what``,
    differs from the run's ``mine``, a dataclass of the same type."""
    for f in fields(mine):
        a, b = getattr(theirs, f.name), getattr(mine, f.name)
        if is_dataclass(b):
            _check_fits(what, a, b, f"{path}{f.name}.")
        elif a != b:
            raise ValueError(f"{path}{f.name}: the checkpoint's {what} has {a}, the run {b}")


# -- the training loop ------------------------------------------------------------

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> None:
    """Have the C allocator keep the memory a PPO update frees for the next
    minibatch, instead of handing it back to the OS and faulting it in again.

    By default glibc maps each block over 128 KiB afresh and trims a free
    heap top over 128 KiB; it raises both thresholds only when a large
    mapped block is freed.  An update allocates and frees several MB per
    minibatch, and below an 8 MiB trim threshold a default stage-1 update
    took about 50,000 page faults (200 MB touched anew) instead of none.
    Fixed thresholds keep that from depending on which arrays the process
    happened to free before.  Without glibc's ``mallopt`` this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, 4 << 20)
        libc.mallopt(M_TRIM_THRESHOLD, 16 << 20)
    except (AttributeError, OSError, TypeError):
        pass


class Trainer:
    def __init__(
        self,
        cfg: RunConfig,
        seed: int,
        stage: int,
        out_dir: str | None = None,
        stage1_checkpoint: Checkpoint | dict | None = None,
        resume: Checkpoint | None = None,
    ):
        resume = copy.deepcopy(resume)  # the run trains its arrays in place
        keep_freed_memory()
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

        # what the run starts from (the module docstring lists the cases)
        stage1 = _stage1_policy(stage1_checkpoint) if stage1_checkpoint is not None else None
        if resume is not None and stage1 is not None:
            raise ValueError("resume and stage1_checkpoint are exclusive")
        if stage1 is not None and stage1.mode.stage != 1:
            raise ValueError(
                f"stage1_checkpoint: a stage-{stage1.mode.stage} policy, not a stage-1 one"
            )
        if cfg.mode.one_stage and (stage < 2 or stage1 is not None):
            raise ValueError("mode.one_stage trains stage 2 from scratch; it has no stage 1")
        if stage >= 2 and resume is None and stage1 is None and not cfg.mode.one_stage:
            raise ValueError("stage 2 needs a stage-1 checkpoint unless one_stage is set")

        mode = replace(cfg.mode, stage=stage)
        taken = resume.policy if resume is not None else stage1 if stage == 1 else None
        if taken is not None:
            # a resume or a warm start adopts the whole policy
            _check_fits("policy", taken.mode, mode, "mode.")
            _check_fits("policy", taken.arch, cfg.arch, "arch.")
            if resume is not None:
                _check_fits("config", resume.config, cfg)
            self.policy = ActorCritic.from_state(taken, cfg.model, cfg.env)
        else:
            self.policy = ActorCritic(
                cfg.model, cfg.env, cfg.arch, mode, seed=int(init_ss.generate_state(1)[0])
            )
            if stage1 is not None:  # stage 2 takes the actor only
                _check_fits("policy", stage1.arch, cfg.arch, "arch.")
                self.policy.load_stage1_weights(stage1)

        self.opts = make_optimizers(self.policy, cfg.ppo)
        if resume is not None:
            for name, state in resume.optimizers.items():
                if name in self.opts:
                    self.opts[name] = state

        self.discs = None
        self.disc_opts = None
        self.refs = None
        self.policy_windows = None
        if stage >= 2:
            window_dim = WINDOW_LEN * N_JOINTS
            if resume is not None:
                self.discs = resume.discriminators
                self.disc_opts = resume.disc_optimizers
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

        n = cfg.ppo.n_envs
        env_seeds = env_root.spawn(n)
        self.envs = EnvBatch(cfg.model, cfg.env, n)
        self.workers = [EnvWorker(i, cfg, stage, env_seeds[i], self.envs) for i in range(n)]
        if resume is not None:
            for w, c in zip(self.workers, resume.curriculum or []):
                w.curr = c
        # the stage-2 style state, one row per env.  ``frames``: the last
        # WINDOW_LEN frames of joint angles, oldest first, in the
        # discriminators' dtype, so a frame is rounded once, as it is
        # written, and the discriminators and the policy buffer read it
        # without a cast; a style window once the episode has WINDOW_LEN
        # frames (``n_frames``).  ``frames_in_segment``: the frames since the
        # episode began or the gait was last drawn; a window joins the policy
        # buffer only if all its frames follow that.  ``gait_period``: the
        # index of the ``cfg.gaits.period_s`` period whose gait the env holds.
        self.frames = np.zeros((n, WINDOW_LEN * N_JOINTS),
                               self.discs.dtype if self.discs is not None else np.float32)
        self.n_frames = np.zeros(n, np.intp)
        self.frames_in_segment = np.zeros(n, np.intp)
        self.gait_period = np.zeros(n, np.intp)
        self._begin_episodes(list(range(n)))

        self.iteration = resume.iteration if resume is not None else 0
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

    def _begin_episodes(self, rows: list[int]) -> None:
        """Start the next episode of the envs ``rows``, in env order; their
        style columns start over (no frame, the gait of period 0)."""
        for i in rows:
            self.workers[i].begin_episode()
        self.n_frames[rows] = self.frames_in_segment[rows] = self.gait_period[rows] = 0

    def schedule_gaits(self) -> None:
        """Draw a new gait for each env whose clock has entered a new gait
        period, in env order, each from its worker's rng."""
        period = (self.envs.state[:, TIME] / self.cfg.gaits.period_s + 1e-9).astype(np.intp)
        changed = period != self.gait_period
        for i in np.flatnonzero(changed).tolist():
            w = self.workers[i]
            w.env.set_gait(w.draw_gait())
        self.gait_period = period
        self.frames_in_segment[changed] = 0

    def collect_rollout(self, buffer: RolloutBuffer) -> dict:
        """One rollout of ``cfg.ppo.horizon`` control steps into ``buffer``.

        Each step is one pass over the env axis, but for the per-env
        physics (``TerrainEnv.step``): the policy reads the batch's rows as
        they are, the rewards score every env in one call, and the
        statistics accumulate per env in env order.  At stage 2 the gait
        schedule and the style frames are the trainer's columns, and style
        is scored in one ``style_reward`` call per step: one stacked pass
        per gait's discriminator, each row at the bits of a batch of one.
        """
        cfg = self.cfg
        pol = self.policy
        envs = self.envs
        n = cfg.ppo.n_envs
        n_gaits = cfg.env.n_gaits
        std = np.exp(pol.log_std)
        noise = np.empty((n, N_JOINTS))
        style_raw = np.zeros(n)
        track_sum = 0.0
        style_sum = 0.0
        style_count = 0
        total_sum = 0.0
        ep_distances = []
        per_gait_style = np.zeros(n_gaits)
        per_gait_count = np.zeros(n_gaits)

        for t in range(cfg.ppo.horizon):
            if self.stage >= 2:
                self.schedule_gaits()
            batch = BundleBatch(envs.rows, envs.layout.slices)
            means, _ = pol.actor_mean(batch)
            values, _ = pol.critic_value(batch)
            for w, row in zip(self.workers, noise):
                w.rng.standard_normal(out=row)
            actions = np.clip(
                means + std * noise, -cfg.model.action_bound, cfg.model.action_bound
            )
            logps = gaussian_log_prob_batch(actions, means, pol.log_std)

            results = [w.env.step(a) for w, a in zip(self.workers, actions)]
            diverged = np.array([res.termination == "diverged" for res in results])
            for i in np.flatnonzero(diverged).tolist():
                # the state is non-finite: the step scores zero on every term
                # and adds no style window
                log.warning("env %d diverged at step %d; episode ended", i, t)
            # the steps leave the commands as they were
            gaits = envs.gaits()
            if self.stage >= 2:
                kept = ~diverged
                frames = self.frames
                frames[kept] = np.concatenate((frames[kept, N_JOINTS:], envs.state[kept, Q:QD]), 1)
                self.n_frames += kept
                self.frames_in_segment += kept
                scored = kept & (self.n_frames >= WINDOW_LEN)
                gait_ids = gaits.argmax(axis=1)
                scores = style_reward(frames[scored], gait_ids[scored], self.discs)
                style_raw[:] = 0.0
                style_raw[scored] = scores
                # a window joins the policy buffer if all its frames follow the last gait draw
                buffered = scored & (self.frames_in_segment >= WINDOW_LEN)
                for gid in range(n_gaits):
                    rows = buffered & (gait_ids == gid)
                    if rows.any():
                        self.policy_windows.add(gid, frames[rows])
                scored_ids = gait_ids[scored]
                for gid, score in zip(scored_ids.tolist(), scores.tolist()):
                    per_gait_style[gid] += score
                    style_sum += score
                per_gait_count += np.bincount(scored_ids, minlength=n_gaits)
                style_count += len(scores)
            # at stage 1 style_raw is zero and the gaits all zero: both add 0.0
            loco = locomotion_rewards(envs.state, envs.commands(), cfg.rewards, cfg.model)
            bd = total_reward(loco, style_raw, gait_rewards(envs.state, gaits, cfg.rewards),
                              cfg.rewards)
            bd.clear(diverged)
            rewards = bd.total.copy()
            if cfg.rewards.only_positive_total:
                rewards[0.0 > rewards] = 0.0  # max(total, 0.0): NaN passes
            for v in bd.column("track_lin_vel").tolist():
                track_sum += v
            for v in rewards.tolist():
                total_sum += v

            for i, res in enumerate(results):
                if res.termination == "timeout":
                    v_term, _ = pol.critic_value(BundleBatch.stack([self.workers[i].env.bundle]))
                    rewards[i] += cfg.ppo.gamma * float(v_term[0])
            dones = [res.done for res in results]
            ended = [i for i, done in enumerate(dones) if done]
            for i in ended:
                ep_distances.append(results[i].distance)
                self.workers[i].finish_episode(results[i].distance)
            self._begin_episodes(ended)
            buffer.add_step(t, batch, actions, logps, values, rewards, dones, bd)

        values, _ = pol.critic_value(BundleBatch.stack([w.env.bundle for w in self.workers]))
        buffer.values[cfg.ppo.horizon] = values

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
        for i in range(iterations):
            buffer = RolloutBuffer(cfg.ppo.horizon, cfg.ppo.n_envs, self.policy.dims, N_JOINTS)
            roll_stats = self.collect_rollout(buffer)
            # everything the iteration's updates touch, restored if either aborts
            snap = Snapshot(policy_parts(self.policy, self.opts)
                            + (disc_parts(self.discs, self.disc_opts) if self.stage >= 2 else []))
            amp_stats = {}
            if self.stage >= 2:
                amp_stats = amp_update(
                    self.discs, self.refs, self.policy_windows, self.disc_opts,
                    self.amp_rng, snap, cfg.amp.batch_size, cfg.amp.updates_per_iter,
                )
            # an aborted AMP update aborts the iteration: no PPO update follows it
            ppo_stats = amp_stats if amp_stats.get("nan_aborted") else ppo_update(
                self.policy, buffer, cfg.ppo, self.opts, self.train_rng, snap)
            self.iteration += 1

            entry = {
                "iteration": self.iteration, **roll_stats, **ppo_stats,
                "r_s_mean": float(np.mean(buffer.r_s)),
                "r_g_mean": float(np.mean(buffer.r_g)),
                "r_l_mean": float(np.mean(buffer.r_l)),
            }
            for k, v in amp_stats.items():
                if isinstance(v, dict) and not v.get("skipped"):
                    entry[f"{k}_mean_real"] = v["mean_real"]
                    entry[f"{k}_mean_fake"] = v["mean_fake"]
                    entry[f"{k}_loss"] = v["loss"]
            history.append(entry)
            if self.metrics_path:
                with open(self.metrics_path, "a") as f:
                    f.write(json.dumps(entry, sort_keys=True) + "\n")

            self._divergence_guard(entry)
            # the run's last iteration is written once, as checkpoint_final.json
            if self.out_dir and i < iterations - 1 and self.iteration % cfg.train.checkpoint_every == 0:
                write_json(os.path.join(self.out_dir, f"checkpoint_{self.iteration:06d}.json"),
                           self.checkpoint())
        if self.out_dir:
            write_json(os.path.join(self.out_dir, "checkpoint_final.json"), self.checkpoint())
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

    def checkpoint(self) -> Checkpoint:
        """The run's state as it is (no copy), for the codec."""
        return Checkpoint(
            stage=self.stage,
            iteration=self.iteration,
            config_hash=config_hash(self.cfg),
            config=self.cfg,
            policy=self.policy.state(),
            optimizers=self.opts,
            discriminators=self.discs,
            disc_optimizers=self.disc_opts,
            curriculum=[w.curr for w in self.workers],
        )

