import dataclasses
import json
import math
import os

import numpy as np
import pytest

import gaitrl.amp as amp_mod
import gaitrl.ppo as ppo_mod
import gaitrl.trainer as trainer_mod
from gaitrl.biped import N_JOINTS
from gaitrl.cli import cli
from gaitrl.codec import encode
from gaitrl.config import (
    ABLATIONS,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from gaitrl.env import TerrainEnv, one_hot
from gaitrl.policy import ActorCritic, BundleBatch, gaussian_log_prob_batch
from gaitrl.ppo import RolloutBuffer
from gaitrl.trainer import (
    CurriculumState,
    EnvWorker,
    Trainer,
    load_checkpoint,
    update_curriculum,
)

from oracles import env_commands, no_rewards, ref_normalize, save_config


def tiny_cfg(**over):
    cfg = RunConfig()
    cfg.terrain.kinds = ("flat",)
    cfg.train.dr_enabled = False
    cfg.env.push_vel_max = 0.0
    cfg.env.max_episode_s = 2.0
    cfg.ppo.n_envs = 4
    cfg.ppo.horizon = 12
    cfg.ppo.minibatch = 24
    cfg.ppo.epochs = 2
    cfg.arch.d_f = 6
    cfg.arch.d_z = 8
    cfg.arch.encoder_hidden = (8,)
    cfg.arch.trunk_hidden = (10,)
    cfg.arch.expert_hidden = (6,)
    cfg.arch.gate_hidden = (5,)
    cfg.arch.critic_hidden = (12,)
    cfg.amp.disc_hidden = (12,)
    cfg.curriculum.enabled = False
    for k, v in over.items():
        parts = k.split(".")
        obj = cfg
        for p in parts[:-1]:
            obj = getattr(obj, p)
        setattr(obj, parts[-1], v)
    return cfg


class TestTrainerConfig:
    def test_trainer_leaves_the_callers_config_unchanged(self):
        # env.blind is the one blind switch: the run reads no scan, and writes
        # nothing into the config it is given
        cfg = tiny_cfg(**{"env.blind": True})
        before = config_to_dict(cfg)
        trainer = Trainer(cfg, seed=0, stage=1)
        T, N = cfg.ppo.horizon, cfg.ppo.n_envs
        buffer = RolloutBuffer(T, N, trainer.policy.dims, N_JOINTS)
        trainer.collect_rollout(buffer)
        trainer.run(1)
        assert config_to_dict(cfg) == before
        # every scan the policy reads is the normalized zero scan
        blind = ref_normalize(cfg.model, cfg.env, "scans", np.zeros(2 * cfg.env.scan_points))
        assert (buffer.batch(np.arange(T * N)).scans == blind).all()
        assert all((w.env.bundle.scans == blind).all() for w in trainer.workers)
        seeing = Trainer(tiny_cfg(), seed=0, stage=1)
        assert all((w.env.bundle.scans != blind).any() for w in seeing.workers)

    def test_one_stage_has_no_stage_1(self):
        with pytest.raises(ValueError, match="one_stage"):
            Trainer(tiny_cfg(**{"mode.one_stage": True}), seed=0, stage=1)


class TestCurriculum:
    CFG = RunConfig().curriculum

    def test_promotion_adds_one_step(self):
        st = CurriculumState("gap", 0.5)
        out = update_curriculum(st, 1.0, self.CFG)
        assert out.difficulty == pytest.approx(0.6)
        assert out.promotions == 1

    def test_demotion_clamped_at_zero(self):
        st = CurriculumState("gap", 0.0)
        out = update_curriculum(st, 0.0, self.CFG)
        assert out.difficulty == 0.0
        assert out.demotions == 1

    def test_promotion_clamped_at_one(self):
        st = CurriculumState("stair", 0.95)
        out = update_curriculum(st, 0.9, self.CFG)
        assert out.difficulty == 1.0

    def test_between_thresholds_holds(self):
        st = CurriculumState("step", 0.4)
        out = update_curriculum(st, 0.6, self.CFG)
        assert out.difficulty == pytest.approx(0.4)

    def test_alternating_oscillates_within_one_band(self):
        # exhaustive walk of the two-state machine from every start level
        for start in np.linspace(0.0, 1.0, 11):
            st = CurriculumState("gap", float(start))
            seen = set()
            for k in range(40):
                frac = 1.0 if k % 2 == 0 else 0.0
                st = update_curriculum(st, frac, self.CFG)
                assert 0.0 <= st.difficulty <= 1.0
                seen.add(round(st.difficulty, 6))
            assert len(seen) <= 2
            lo, hi = min(seen), max(seen)
            assert hi - lo <= self.CFG.delta + 1e-9


class TestGaitScheduler:
    """The gait schedule of a stage-2 ``Trainer``'s columns, on the env's clock."""

    @staticmethod
    def trainer(period_s, distribution, seed):
        cfg = tiny_cfg(**{"gaits.period_s": period_s, "gaits.distribution": distribution,
                          "mode.one_stage": True, "ppo.n_envs": 1})
        return Trainer(cfg, seed, stage=2)

    @staticmethod
    def commands(trainer, steps):
        """The gait the env holds at each control step, the clock set by hand."""
        seen = []
        w = trainer.workers[0]
        for step in range(steps):
            w.env.state.time = step * 0.02
            trainer.schedule_gaits()
            assert trainer.gait_period.tolist() == [int(step * 0.02 / w.cfg.gaits.period_s + 1e-9)]
            gait = env_commands(w.env).gait
            seen.append(int(np.argmax(gait)))
            assert w.env.bundle.gait.tobytes() == gait.astype(np.float32).tobytes()
        return seen

    def test_command_constant_within_period(self):
        seen = self.commands(self.trainer(4.0, (0.3, 0.4, 0.3), seed=0), 400)  # 8 s at 50 Hz
        assert len(set(seen[:200])) == 1
        assert len(set(seen[200:400])) == 1

    def test_degenerate_distribution(self):
        trainer = self.trainer(1.0, (1.0, 0.0, 0.0), seed=1)
        assert self.commands(trainer, 500) == [0] * 500

    @pytest.mark.parametrize("distribution", [
        (1 / 3, 1 / 3, 1 / 3), (5.0, 3.0, 2.0), (0.1, 0.2, 0.7), (1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0), (0.0, 2.0, 0.0), (1e-9, 1.0, 1e-9), (0.3, 0.7), (1.0,),
    ])
    def test_a_draw_is_what_generator_choice_draws(self, distribution):
        # the index and the generator state after it, draw by draw
        n = len(distribution)
        cfg = tiny_cfg(**{"gaits.distribution": distribution, "env.n_gaits": n})
        p = np.asarray(distribution, dtype=np.float64)
        p = p / p.sum()
        for seed in range(40):
            w = EnvWorker(0, cfg, stage=2, seed_seq=np.random.SeedSequence(seed))
            ref = np.random.default_rng()
            ref.bit_generator.state = w.rng.bit_generator.state
            for _ in range(50):
                assert w.draw_gait().tolist() == one_hot(int(ref.choice(n, p=p)), n).tolist()
                assert w.rng.bit_generator.state == ref.bit_generator.state

    def test_draw_frequencies_match_distribution(self):
        probs = np.array([0.5, 0.3, 0.2])
        w = self.trainer(1.0, (5.0, 3.0, 2.0), seed=2).workers[0]  # normalized by the worker
        n = 10_000
        draws = np.array([int(np.argmax(w.draw_gait())) for _ in range(n)])
        for g in range(3):
            freq = np.mean(draws == g)
            sigma = np.sqrt(probs[g] * (1 - probs[g]) / n)
            assert abs(freq - probs[g]) < 3 * sigma


class TestStyleOnTheEnvAxis:
    def test_a_step_scores_style_in_one_call_and_adds_once_per_gait(self, monkeypatch):
        # episodes end and gait periods turn inside the rollout
        cfg = tiny_cfg(**{"mode.one_stage": True, "env.max_episode_s": 0.3,
                          "gaits.period_s": 0.14, "ppo.horizon": 24})
        trainer = Trainer(cfg, seed=4, stage=2)
        assert trainer.frames.dtype == trainer.discs.dtype == np.float32
        steps, scored, adds = [], [], []
        style_reward, add = trainer_mod.style_reward, trainer_mod.WindowBuffer.add
        schedule = Trainer.schedule_gaits

        def counted_schedule(self):
            steps.append(len(steps))
            return schedule(self)

        def counted_style_reward(windows, gait_ids, discs):
            scored.append((len(steps), len(windows)))
            return style_reward(windows, gait_ids, discs)

        def counted_add(self, gait_id, windows):
            adds.append((len(steps), gait_id))
            return add(self, gait_id, windows)

        monkeypatch.setattr(Trainer, "schedule_gaits", counted_schedule)
        monkeypatch.setattr(trainer_mod, "style_reward", counted_style_reward)
        monkeypatch.setattr(trainer_mod.WindowBuffer, "add", counted_add)
        buffer = RolloutBuffer(cfg.ppo.horizon, cfg.ppo.n_envs, trainer.policy.dims, N_JOINTS)
        stats = trainer.collect_rollout(buffer)
        assert buffer.dones.sum() > 0
        assert len(steps) == cfg.ppo.horizon
        assert [step for step, _ in scored] == list(range(1, cfg.ppo.horizon + 1))
        assert sum(n for _, n in scored) > 0 and stats["mean_style"] > 0.0
        assert len(adds) == len(set(adds)) > 0  # at most one add per gait per step
        assert all(0 <= gid < cfg.env.n_gaits for _, gid in adds)


class TestExplorationNoise:
    def test_a_draw_into_a_row_is_a_draw_of_standard_normal(self):
        # collect_rollout draws each worker's noise into its row of one array
        for seed in range(20):
            into, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
            noise = np.empty((3, N_JOINTS))
            for row in noise:
                into.standard_normal(out=row)
            expected = np.stack([fresh.standard_normal(N_JOINTS) for _ in range(3)])
            assert noise.tobytes() == expected.tobytes()
            assert into.bit_generator.state == fresh.bit_generator.state


class TestStage1:
    def test_runs_and_logs_without_style_terms(self, tmp_path):
        cfg = tiny_cfg()
        trainer = Trainer(cfg, seed=0, stage=1, out_dir=str(tmp_path))
        hist = trainer.run(2)
        assert len(hist) == 2
        for h in hist:
            assert h["r_s_mean"] == 0.0
            assert h["r_g_mean"] == 0.0
        lines = open(tmp_path / "metrics.jsonl").read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["iteration"] == 1
        assert (tmp_path / "checkpoint_final.json").exists()

    def test_each_iteration_is_written_once(self, tmp_path):
        # the last iteration is a multiple of checkpoint_every, and its
        # checkpoint is checkpoint_final.json alone
        cfg = tiny_cfg(**{"train.checkpoint_every": 1})
        Trainer(cfg, seed=0, stage=1, out_dir=str(tmp_path)).run(3)
        written = sorted(p.name for p in tmp_path.glob("checkpoint_*.json"))
        assert written == ["checkpoint_000001.json", "checkpoint_000002.json",
                           "checkpoint_final.json"]
        assert load_checkpoint(tmp_path / "checkpoint_final.json").iteration == 3

    def test_same_seed_identical_metrics_and_checkpoints(self, tmp_path):
        cfg_dict = config_to_dict(tiny_cfg())
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = config_from_dict(cfg_dict)
            Trainer(cfg, seed=7, stage=1, out_dir=str(out)).run(2)
            outs.append(out)
        m1 = (outs[0] / "metrics.jsonl").read_bytes()
        m2 = (outs[1] / "metrics.jsonl").read_bytes()
        assert m1 == m2
        c1 = (outs[0] / "checkpoint_final.json").read_bytes()
        c2 = (outs[1] / "checkpoint_final.json").read_bytes()
        assert c1 == c2

    def test_different_seed_differs(self, tmp_path):
        cfg = tiny_cfg()
        h1 = Trainer(cfg, seed=1, stage=1).run(1)
        cfg = tiny_cfg()
        h2 = Trainer(cfg, seed=2, stage=1).run(1)
        assert h1[0]["mean_total_reward"] != h2[0]["mean_total_reward"]


def buffer_arrays(buffer: RolloutBuffer) -> dict:
    """Every float array of ``buffer``, by name."""
    return {name: v for name, v in vars(buffer).items()
            if isinstance(v, np.ndarray) and v.dtype.kind == "f"}


def nan_filled(buffer: RolloutBuffer) -> RolloutBuffer:
    """``buffer`` with every entry NaN, so that a row a rollout leaves unwritten shows."""
    for rows in buffer_arrays(buffer).values():
        rows.fill(np.nan)
    return buffer


def assert_every_row_written(buffer: RolloutBuffer) -> None:
    for name, rows in buffer_arrays(buffer).items():
        assert np.isfinite(rows).all(), name


class TestRollout:
    def test_each_buffer_row_is_the_batch_the_policy_acted_on(self):
        # re-scoring a stored row gives its stored log-probs and values bit
        # for bit; a row that holds another step's observation does not
        cfg = tiny_cfg(**{"mode.one_stage": True})
        trainer = Trainer(cfg, seed=3, stage=2)
        pol = trainer.policy
        T, N = cfg.ppo.horizon, cfg.ppo.n_envs
        buffer = nan_filled(RolloutBuffer(T, N, pol.dims, N_JOINTS))
        trainer.collect_rollout(buffer)
        assert_every_row_written(buffer)
        assert buffer.gait.any()
        for t in range(T):
            row = buffer.batch(np.arange(t * N, (t + 1) * N))
            means, _ = pol.actor_mean(row)
            logps = gaussian_log_prob_batch(buffer.actions[t], means, pol.log_std)
            assert logps.tobytes() == buffer.log_probs[t].tobytes(), t
            values, _ = pol.critic_value(row)
            assert values.astype(np.float64).tobytes() == buffer.values[t].tobytes(), t

    def test_the_buffer_rebuilds_every_batch_the_policy_acted_on(self, monkeypatch):
        # short episodes, scan delays of 0 and 1 steps, a gait period of three
        # control steps and one diverging env: every row the buffer rebuilds
        # is the batch the actor read, bit for bit
        cfg = tiny_cfg(**{"mode.one_stage": True, "env.max_episode_s": 0.2,
                          "train.dr_enabled": True, "gaits.period_s": 0.06})
        trainer = Trainer(cfg, seed=3, stage=2)
        T, N = cfg.ppo.horizon, cfg.ppo.n_envs
        seen = []
        actor_mean = ActorCritic.actor_mean

        def recording_actor_mean(policy, batch):
            seen.append(BundleBatch(batch.rows.copy(), batch.slices))
            return actor_mean(policy, batch)

        monkeypatch.setattr(ActorCritic, "actor_mean", recording_actor_mean)
        delays = set()
        for rollout in range(3):
            if rollout == 2:
                trainer.workers[1].env.state.vx = math.nan
            seen.clear()
            buffer = RolloutBuffer(T, N, trainer.policy.dims, N_JOINTS)
            trainer.collect_rollout(buffer)
            delays |= {w.env.dr.scan_delay_steps() for w in trainer.workers}
            assert buffer.dones.sum() >= N
            rebuilt = buffer.batch(np.arange(T * N))
            for t, acted in enumerate(seen):
                got = rebuilt.rows[t * N : (t + 1) * N]
                assert got.tobytes() == acted.rows.tobytes(), (rollout, t)
        assert delays == {0, 1}
        assert buffer.dones[0, 1] == 1.0  # the poisoned env diverged at once

        # a batch with one history float or one previous-scan float one ulp off is refused
        d_o, K = buffer.o.shape[2], buffer.scan.shape[2]
        rows_slices = seen[0].slices
        for t, (block, col) in enumerate((("hist", 0), ("hist", d_o), ("scans", K - 1))):
            fresh = RolloutBuffer(T, N, trainer.policy.dims, N_JOINTS)
            for s in range(t + 1):
                fresh.add_step(s, seen[s], buffer.actions[s], buffer.log_probs[s],
                               buffer.values[s], buffer.rewards[s], buffer.dones[s],
                               no_rewards(N))
            rows = seen[t + 1].rows.copy()
            col += rows_slices[block].start
            rows[2, col] = np.nextafter(rows[2, col], np.float32(np.inf))
            edited = BundleBatch(rows, rows_slices)
            with pytest.raises(ValueError, match="history or previous scan"):
                fresh.add_step(t + 1, edited, buffer.actions[t + 1], buffer.log_probs[t + 1],
                               buffer.values[t + 1], buffer.rewards[t + 1],
                               buffer.dones[t + 1], no_rewards(N))

    def test_a_gait_resample_reaches_the_observation(self, monkeypatch):
        # a gait period of three control steps: commands change mid-episode,
        # and every row must hold the command its env acted under
        cfg = tiny_cfg(**{"mode.one_stage": True, "gaits.period_s": 0.06})
        trainer = Trainer(cfg, seed=3, stage=2)
        held = []
        step = TerrainEnv.step

        def recording_step(env, action):
            held.append(env_commands(env).gait)
            return step(env, action)

        monkeypatch.setattr(TerrainEnv, "step", recording_step)
        T, N = cfg.ppo.horizon, cfg.ppo.n_envs
        buffer = RolloutBuffer(T, N, trainer.policy.dims, N_JOINTS)
        trainer.collect_rollout(buffer)
        held = np.array(held).reshape(T, N, cfg.env.n_gaits)
        resampled = (held[1:] != held[:-1]).any(axis=2) & (buffer.dones[:-1] == 0.0)
        assert resampled.any()
        assert buffer.batch(np.arange(T * N)).gait.tobytes() == held.astype(np.float32).tobytes()

    def test_every_stage1_row_scores_no_style_and_no_gait_terms(self):
        # not just on average: a gait term can take either sign, so a mean of
        # 0.0 would not show that each row is 0.0 (bytes: +0.0, not -0.0)
        cfg = tiny_cfg()
        trainer = Trainer(cfg, seed=3, stage=1)
        T, N = cfg.ppo.horizon, cfg.ppo.n_envs
        buffer = nan_filled(RolloutBuffer(T, N, trainer.policy.dims, N_JOINTS))
        trainer.collect_rollout(buffer)
        assert_every_row_written(buffer)
        zeros = np.zeros((T, N)).tobytes()
        assert buffer.r_s.tobytes() == zeros
        assert buffer.r_g.tobytes() == zeros
        assert buffer.r_l.all()


class TestStage2:
    def stage1_ckpt(self, tmp_path):
        cfg = tiny_cfg()
        Trainer(cfg, seed=0, stage=1, out_dir=str(tmp_path / "s1")).run(1)
        return load_checkpoint(tmp_path / "s1" / "checkpoint_final.json")

    def test_iteration_zero_matches_stage1_actions(self, tmp_path):
        from gaitrl.env import CommandState, DRConfig, TerrainEnv, one_hot
        from gaitrl.terrain import generate_terrain

        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg()
        pol1 = ActorCritic.from_state(ckpt.policy, cfg.model, cfg.env)
        trainer2 = Trainer(cfg, seed=3, stage=2, stage1_checkpoint=ckpt)
        pol2 = trainer2.policy
        env = TerrainEnv(cfg.model, cfg.env, seed=5)
        env.reset(generate_terrain("flat", 0.0, seed=1),
                  DRConfig(), CommandState(v_cmd=0.5, gait=one_hot(0, 3)))
        rng = np.random.default_rng(0)
        for _ in range(25):
            res = env.step(rng.uniform(-0.3, 0.3, 6))
            a1 = pol1.act(env.bundle)
            a2 = pol2.act(env.bundle.with_gait(one_hot(int(rng.integers(0, 3)), 3)))
            np.testing.assert_array_equal(a1, a2)
            if res.done:
                break

    def test_fixed_gait_routes_style_to_single_discriminator(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg(**{"gaits.distribution": (0.0, 1.0, 0.0)})
        trainer = Trainer(cfg, seed=4, stage=2, stage1_checkpoint=ckpt)
        trainer.run(2)
        # only the commanded gait's buffer collects policy windows
        assert trainer.policy_windows.size(1) > 0
        assert trainer.policy_windows.size(0) == 0
        assert trainer.policy_windows.size(2) == 0

    @pytest.mark.parametrize("period_s,windows", [(0.08, False), (0.1, True)])
    def test_style_windows_never_span_a_gait_redraw(self, period_s, windows):
        # the gait is redrawn every 4 (0.08 s) or 5 (0.1 s) control steps; a
        # style window spans 5 frames, so only the 5-step period has windows
        # of a single gait for the discriminators to learn from
        cfg = tiny_cfg(**{"mode.one_stage": True, "gaits.period_s": period_s})
        trainer = Trainer(cfg, seed=3, stage=2)
        hist = trainer.run(2)
        assert all(h["mean_style"] > 0 for h in hist)
        sizes = [trainer.policy_windows.size(g) for g in range(cfg.env.n_gaits)]
        assert (sum(sizes) > 0) == windows

    def test_one_stage_skips_checkpoint(self):
        cfg = tiny_cfg()
        cfg.mode.one_stage = True
        hist = Trainer(cfg, seed=5, stage=2).run(1)
        assert len(hist) == 1
        with pytest.raises(ValueError):
            Trainer(cfg, seed=5, stage=2, stage1_checkpoint={"policy": {}}).run(1)

    def test_one_stage_takes_no_stage1_checkpoint(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg(**{"mode.one_stage": True})
        with pytest.raises(ValueError, match="one_stage"):
            Trainer(cfg, seed=5, stage=2, stage1_checkpoint=ckpt)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_a_stage2_policy_is_no_stage1_checkpoint(self, stage):
        # the mapping form skips the checkpoint's own stage check
        s2 = Trainer(tiny_cfg(**{"mode.one_stage": True}), seed=5, stage=2).policy.to_dict()
        with pytest.raises(ValueError, match="^stage1_checkpoint: a stage-2 policy"):
            Trainer(tiny_cfg(), seed=0, stage=stage, stage1_checkpoint={"policy": s2})

    def test_resume_and_stage1_checkpoint_are_exclusive(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        with pytest.raises(ValueError, match="exclusive"):
            Trainer(tiny_cfg(), seed=0, stage=1, stage1_checkpoint=ckpt, resume=ckpt)

    def test_stage2_without_checkpoint_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            Trainer(cfg, seed=0, stage=2).run(1)

    def test_dz_mismatch_rejected(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg()
        cfg.arch.d_z = 16
        # a checkpoint, and the mapping form that is decoded on the way in
        for stage1 in (ckpt, {"policy": encode(ckpt.policy)}):
            with pytest.raises(
                ValueError, match=r"^arch\.d_z: the checkpoint's policy has 8, the run 16$"
            ):
                Trainer(cfg, seed=0, stage=2, stage1_checkpoint=stage1)

    def test_metrics_include_style_and_gait_components(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg()
        hist = Trainer(cfg, seed=6, stage=2, stage1_checkpoint=ckpt).run(2)
        h = hist[-1]
        assert "mean_style" in h
        assert "style_gait0" in h
        assert "r_s_mean" in h and "r_g_mean" in h

    @pytest.mark.parametrize("start", ["warm-start", "resume", "stage-2"])
    def test_a_checkpoint_describes_its_policy_once(self, tmp_path, start):
        # a stage-1 checkpoint at d_f 6 and 3 experts, taken over under its own
        # config and under two others: a run the trainer sets up writes a
        # checkpoint whose config has the policy's arch and mode
        ckpt = self.stage1_ckpt(tmp_path)
        stage = 2 if start == "stage-2" else 1
        taken = {"resume": ckpt} if start == "resume" else {"stage1_checkpoint": ckpt}
        started = []
        for change in ({}, {"arch.d_f": 4}, {"mode.n_experts": 4}):
            out = tmp_path / start / ("-".join(change) or "same")
            try:
                trainer = Trainer(
                    tiny_cfg(**change), seed=1, stage=stage, out_dir=str(out), **taken
                )
            except ValueError:
                assert not os.listdir(out)
                continue
            trainer.run(1)
            written = load_checkpoint(out / "checkpoint_final.json")
            assert written.config.arch == written.policy.arch
            assert dataclasses.replace(written.config.mode, stage=stage) == written.policy.mode
            started.append(change)
        # stage 2 takes the actor only, so the expert count is the run's to choose
        assert started == ([{}, {"mode.n_experts": 4}] if start == "stage-2" else [{}])


class TestCheckpointRoundTrip:
    def test_checkpoint_restores_policy_and_curriculum(self, tmp_path):
        cfg = tiny_cfg()
        cfg.curriculum.enabled = True
        cfg.terrain.kinds = ("gap",)
        trainer = Trainer(cfg, seed=0, stage=1, out_dir=str(tmp_path))
        trainer.run(1)
        ckpt = load_checkpoint(tmp_path / "checkpoint_final.json")
        assert ckpt.stage == 1
        assert ckpt.iteration == 1
        assert ckpt.curriculum == [w.curr for w in trainer.workers]
        assert len(ckpt.curriculum) == cfg.ppo.n_envs
        pol = ActorCritic.from_state(ckpt.policy, cfg.model, cfg.env)
        for a, b in zip(pol.trunk.params(), trainer.policy.trunk.params()):
            np.testing.assert_array_equal(a, b)
        assert ckpt.config_hash == config_hash(cfg)

    @pytest.mark.parametrize("ablation", ["plain", *ABLATIONS])
    def test_the_checkpoint_hash_is_the_one_inspect_config_prints(self, tmp_path, capsys,
                                                                    ablation):
        # the run writes the config it is given: its checkpoint carries that
        # config and its hash, for the plain run and for every ablation
        config = tmp_path / "config.json"
        save_config(tiny_cfg(), config)
        flags = ["--config", str(config)]
        if ablation != "plain":
            flags += ["--ablation", ablation]
        train = "train-stage2" if ablation == "more-os" else "train-stage1"
        out = tmp_path / "run"
        assert cli([train, *flags, "--iterations", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli(["inspect-config", *flags]) == 0
        printed = capsys.readouterr().out
        ckpt = load_checkpoint(out / "checkpoint_final.json")
        assert printed.endswith(f"\nconfig_hash: {ckpt.config_hash}\n")
        assert ckpt.config_hash == config_hash(ckpt.config)
        assert config_to_dict(ckpt.config) == json.loads(printed.rsplit("config_hash:", 1)[0])

    def test_curriculum_difficulty_stays_in_bounds_during_training(self, tmp_path):
        cfg = tiny_cfg()
        cfg.curriculum.enabled = True
        cfg.curriculum.init_difficulty = 0.0
        cfg.terrain.kinds = ("gap", "step")
        trainer = Trainer(cfg, seed=1, stage=1)
        trainer.run(3)
        for w in trainer.workers:
            assert 0.0 <= w.curr.difficulty <= 1.0


class TestResume:
    def test_resume_keeps_the_metrics_history(self, tmp_path):
        cfg = tiny_cfg(**{"train.checkpoint_every": 2})
        out = tmp_path / "run"
        Trainer(cfg, seed=4, stage=1, out_dir=str(out)).run(2)
        first = (out / "metrics.jsonl").read_bytes()
        resume = load_checkpoint(out / "checkpoint_final.json")
        Trainer(cfg, seed=4, stage=1, out_dir=str(out), resume=resume).run(2)
        lines = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        assert b"".join(lines[:2]) == first
        assert [json.loads(line)["iteration"] for line in lines] == [1, 2, 3, 4]

    def test_resume_from_an_earlier_checkpoint_drops_the_later_lines(self, tmp_path):
        cfg = tiny_cfg(**{"train.checkpoint_every": 1})
        out = tmp_path / "run"
        Trainer(cfg, seed=4, stage=1, out_dir=str(out)).run(3)
        first = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        resume = load_checkpoint(out / "checkpoint_000001.json")
        Trainer(cfg, seed=4, stage=1, out_dir=str(out), resume=resume).run(1)
        lines = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert lines[0] == first[0]
        assert [json.loads(line)["iteration"] for line in lines] == [1, 2]

    def test_resume_drops_a_truncated_trailing_line(self, tmp_path):
        cfg = tiny_cfg(**{"train.checkpoint_every": 2})
        out = tmp_path / "run"
        Trainer(cfg, seed=4, stage=1, out_dir=str(out)).run(3)
        lines = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        # a crash while writing line 3 leaves part of it
        (out / "metrics.jsonl").write_bytes(b"".join(lines[:2]) + lines[2][:20])
        resume = load_checkpoint(out / "checkpoint_000002.json")
        Trainer(cfg, seed=4, stage=1, out_dir=str(out), resume=resume).run(1)
        kept = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert kept[:2] == lines[:2]
        assert [json.loads(line)["iteration"] for line in kept] == [1, 2, 3]

    def test_fresh_run_starts_an_empty_file(self, tmp_path):
        (tmp_path / "metrics.jsonl").write_text('{"iteration": 9}\n')
        Trainer(tiny_cfg(), seed=4, stage=1, out_dir=str(tmp_path)).run(1)
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["iteration"] for line in lines] == [1]


class TestDivergingEnv:
    ROWS = ("actions", "log_probs", "values", "rewards", "dones", "r_l", "r_s", "r_g")

    @pytest.mark.parametrize("stage", [1, 2])
    def test_diverging_env_ends_only_its_own_episode(self, monkeypatch, stage):
        over = {"mode.one_stage": True} if stage == 2 else {}
        buffers = []
        update = trainer_mod.ppo_update

        def keep_buffer(policy, buffer, *args):
            buffers.append(buffer)
            return update(policy, buffer, *args)

        monkeypatch.setattr(trainer_mod, "ppo_update", keep_buffer)
        poked, plain = (Trainer(tiny_cfg(**over), seed=5, stage=stage) for _ in range(2))
        poked.run(1)
        plain.run(1)
        poked.workers[1].env.state.vx = math.nan
        entry = poked.run(1)[0]
        plain.run(1)

        assert not entry.get("nan_aborted")
        assert all(math.isfinite(v) for v in entry.values() if isinstance(v, (int, float)))
        got, want = buffers[2], buffers[3]
        assert got.dones[0, 1] == 1.0 and got.rewards[0, 1] == 0.0
        T, N = got.horizon, got.n_envs
        others = [i for i in range(N) if i != 1]
        got_obs, want_obs = (buf.batch(np.arange(T * N)) for buf in (got, want))
        for name in self.ROWS:
            a, b = (getattr(buf, name)[:, others] for buf in (got, want))
            assert a.tobytes() == b.tobytes(), name
        a, b = (obs.rows.reshape(T, N, -1)[:, others] for obs in (got_obs, want_obs))
        assert a.tobytes() == b.tobytes()
        # the diverged env started a new episode and kept stepping
        assert np.isfinite(got_obs.o.reshape(T, N, -1)[1:, 1]).all()
        assert got.dones[1:, 1].sum() < got.horizon - 1


def held_state(trainer: Trainer) -> list:
    """The bytes of every parameter and Adam moment an iteration's updates
    can touch, and each Adam step count: the policy's and the discriminators'."""
    params = [p for ps in trainer.policy.components().values() for p in ps]
    params += [p for net in trainer.discs.nets for p in net.params()]
    opts = [*trainer.opts.values(), *trainer.disc_opts]
    arrays = params + [a for o in opts for a in (*o.m, *o.v)]
    return [a.tobytes() for a in arrays] + [o.step_count for o in opts]


class TestIterationRollback:
    """A non-finite loss or gradient in either update of an iteration puts
    back the policy, the discriminators and every Adam state as they were
    before the iteration's updates, and the run goes on."""

    def trainer(self) -> Trainer:
        trainer = Trainer(tiny_cfg(**{"mode.one_stage": True}), seed=3, stage=2)
        trainer.run(1)  # every gait's window buffer holds windows: no discriminator is skipped
        assert all(trainer.policy_windows.size(g) > 0 for g in range(trainer.discs.n_gaits))
        return trainer

    def test_a_nan_in_discriminator_1s_gradient_restores_everything(self, monkeypatch):
        trainer = self.trainer()
        before = held_state(trainer)
        disc0 = [p.tobytes() for p in trainer.discs.nets[0].params()]
        moved = []
        loss_and_grads = amp_mod.discriminator_loss

        def nan_in_disc1(net, *args):
            loss, grads, metrics = loss_and_grads(net, *args)
            if net is trainer.discs.nets[1]:
                moved.append([p.tobytes() for p in trainer.discs.nets[0].params()] != disc0)
                grads.params()[0][0, 0] = np.nan  # the first weight gradient
            return loss, grads, metrics

        monkeypatch.setattr(amp_mod, "discriminator_loss", nan_in_disc1)
        entry = trainer.run(1)[0]
        assert moved == [True]  # discriminator 0 had stepped
        assert entry["nan_aborted"] is True and entry["nan_update"] == "disc1"
        assert held_state(trainer) == before
        monkeypatch.undo()
        assert "nan_aborted" not in trainer.run(1)[0]

    def test_a_nan_ppo_loss_after_an_amp_update_restores_everything(self, monkeypatch):
        trainer = self.trainer()
        before = held_state(trainer)
        discs = [p.tobytes() for net in trainer.discs.nets for p in net.params()]
        moved = []
        loss_and_grads = ppo_mod.ppo_loss_and_grads

        def nan_loss(*args):
            loss, grads, stats = loss_and_grads(*args)
            if not moved:
                moved.append([p.tobytes() for net in trainer.discs.nets for p in net.params()]
                             != discs)
                loss = math.nan
            return loss, grads, stats

        monkeypatch.setattr(ppo_mod, "ppo_loss_and_grads", nan_loss)
        entry = trainer.run(1)[0]
        assert moved == [True]  # the AMP update had stepped the discriminators
        assert entry["nan_aborted"] is True and entry["nan_update"] == "ppo"
        assert held_state(trainer) == before
        monkeypatch.undo()
        assert "nan_aborted" not in trainer.run(1)[0]
