import json
import math
import os

import numpy as np
import pytest

import gaitrl.trainer as trainer_mod
from gaitrl.config import RunConfig, config_from_dict, config_to_dict
from gaitrl.trainer import (
    CurriculumState,
    GaitScheduler,
    Trainer,
    load_checkpoint,
    policy_from_checkpoint,
    save_checkpoint,
    train_stage1,
    train_stage2,
    update_curriculum,
)


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
        cfg = tiny_cfg(**{"train.blind": True})
        before = config_to_dict(cfg)
        trainer = Trainer(cfg, seed=0, stage=1)
        assert config_to_dict(cfg) == before
        assert cfg.env.blind is False
        assert trainer.cfg.env.blind is True
        assert not trainer.workers[0].bundle.scans.any()


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
    def test_command_constant_within_period(self):
        sched = GaitScheduler(period_s=4.0, distribution=(0.3, 0.4, 0.3))
        rng = np.random.default_rng(0)
        seen = []
        for step in range(400):  # 8 s at 50 Hz
            cmd, _ = sched.command_at(step * 0.02, rng)
            seen.append(int(np.argmax(cmd)))
        assert len(set(seen[:200])) == 1
        assert len(set(seen[200:400])) == 1

    def test_degenerate_distribution(self):
        sched = GaitScheduler(period_s=1.0, distribution=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(1)
        for step in range(500):
            cmd, _ = sched.command_at(step * 0.02, rng)
            assert np.argmax(cmd) == 0

    def test_draw_frequencies_match_distribution(self):
        probs = np.array([0.5, 0.3, 0.2])
        sched = GaitScheduler(period_s=1.0, distribution=probs)
        rng = np.random.default_rng(2)
        n = 10_000
        draws = np.array([sched.draw(rng) for _ in range(n)])
        for g in range(3):
            freq = np.mean(draws == g)
            sigma = np.sqrt(probs[g] * (1 - probs[g]) / n)
            assert abs(freq - probs[g]) < 3 * sigma

    def test_transitions_disabled_holds_first_draw(self):
        sched = GaitScheduler(period_s=0.5, distribution=(1 / 3, 1 / 3, 1 / 3), transitions=False)
        rng = np.random.default_rng(3)
        first, _ = sched.command_at(0.0, rng)
        for t in np.arange(0.0, 10.0, 0.02):
            cmd, changed = sched.command_at(float(t), rng)
            np.testing.assert_array_equal(cmd, first)


class TestStage1:
    def test_runs_and_logs_without_style_terms(self, tmp_path):
        cfg = tiny_cfg()
        trainer, hist = train_stage1(cfg, seed=0, out_dir=str(tmp_path), iterations=2)
        assert len(hist) == 2
        for h in hist:
            assert h["r_s_mean"] == 0.0
            assert h["r_g_mean"] == 0.0
        lines = open(tmp_path / "metrics.jsonl").read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["iteration"] == 1
        assert (tmp_path / "checkpoint_final.json").exists()

    def test_same_seed_identical_metrics_and_checkpoints(self, tmp_path):
        cfg_dict = config_to_dict(tiny_cfg())
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = config_from_dict(cfg_dict)
            train_stage1(cfg, seed=7, out_dir=str(out), iterations=2)
            outs.append(out)
        m1 = (outs[0] / "metrics.jsonl").read_bytes()
        m2 = (outs[1] / "metrics.jsonl").read_bytes()
        assert m1 == m2
        c1 = (outs[0] / "checkpoint_final.json").read_bytes()
        c2 = (outs[1] / "checkpoint_final.json").read_bytes()
        assert c1 == c2

    def test_different_seed_differs(self, tmp_path):
        cfg = tiny_cfg()
        _, h1 = train_stage1(cfg, seed=1, iterations=1)
        cfg = tiny_cfg()
        _, h2 = train_stage1(cfg, seed=2, iterations=1)
        assert h1[0]["mean_total_reward"] != h2[0]["mean_total_reward"]


class TestStage2:
    def stage1_ckpt(self, tmp_path):
        cfg = tiny_cfg()
        trainer, _ = train_stage1(cfg, seed=0, out_dir=str(tmp_path / "s1"), iterations=1)
        return load_checkpoint(tmp_path / "s1" / "checkpoint_final.json")

    def test_iteration_zero_matches_stage1_actions(self, tmp_path):
        from gaitrl.env import CommandState, DRConfig, TerrainEnv, one_hot
        from gaitrl.terrain import generate_terrain

        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg()
        pol1 = policy_from_checkpoint(ckpt, cfg)
        trainer2 = Trainer(cfg, seed=3, stage=2, stage1_checkpoint=ckpt)
        pol2 = trainer2.policy
        env = TerrainEnv(cfg.model, cfg.env, seed=5)
        env.reset(generate_terrain("flat", 0.0, seed=1),
                  DRConfig.identity(), CommandState(v_cmd=0.5, gait=one_hot(0, 3)))
        rng = np.random.default_rng(0)
        for _ in range(25):
            res = env.step(rng.uniform(-0.3, 0.3, 6))
            a1 = pol1.act(res.bundle, deterministic=True)
            a2 = pol2.act(res.bundle, one_hot(int(rng.integers(0, 3)), 3), deterministic=True)
            np.testing.assert_array_equal(a1.action, a2.action)
            if res.done:
                break

    def test_fixed_gait_routes_style_to_single_discriminator(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg(**{"gaits.distribution": (0.0, 1.0, 0.0)})
        trainer, hist = train_stage2(cfg, ckpt, seed=4, iterations=2)
        # only the commanded gait's buffer collects policy windows
        assert trainer.policy_windows.size(1) > 0
        assert trainer.policy_windows.size(0) == 0
        assert trainer.policy_windows.size(2) == 0

    def test_one_stage_skips_checkpoint(self):
        cfg = tiny_cfg()
        cfg.mode.one_stage = True
        trainer, hist = train_stage2(cfg, None, seed=5, iterations=1)
        assert len(hist) == 1
        with pytest.raises(ValueError):
            train_stage2(cfg, {"policy": {}}, seed=5, iterations=1)

    def test_stage2_without_checkpoint_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            train_stage2(cfg, None, seed=0, iterations=1)

    def test_dz_mismatch_rejected(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg()
        cfg.arch.d_z = 16
        with pytest.raises(ValueError):
            Trainer(cfg, seed=0, stage=2, stage1_checkpoint=ckpt)

    def test_metrics_include_style_and_gait_components(self, tmp_path):
        ckpt = self.stage1_ckpt(tmp_path)
        cfg = tiny_cfg()
        _, hist = train_stage2(cfg, ckpt, seed=6, iterations=2)
        h = hist[-1]
        assert "mean_style" in h
        assert "style_gait0" in h
        assert "r_s_mean" in h and "r_g_mean" in h


class TestCheckpointRoundTrip:
    def test_checkpoint_restores_policy_and_curriculum(self, tmp_path):
        cfg = tiny_cfg()
        cfg.curriculum.enabled = True
        cfg.terrain.kinds = ("gap",)
        trainer, _ = train_stage1(cfg, seed=0, out_dir=str(tmp_path), iterations=1)
        doc = load_checkpoint(tmp_path / "checkpoint_final.json")
        assert doc["stage"] == 1
        assert doc["iteration"] == 1
        assert len(doc["curriculum"]) == cfg.ppo.n_envs
        pol = policy_from_checkpoint(doc, cfg)
        for a, b in zip(pol.trunk.params(), trainer.policy.trunk.params()):
            np.testing.assert_array_equal(a, b)
        from gaitrl.config import config_hash

        assert doc["config_hash"] == config_hash(cfg)

    def test_curriculum_difficulty_stays_in_bounds_during_training(self, tmp_path):
        cfg = tiny_cfg()
        cfg.curriculum.enabled = True
        cfg.curriculum.init_difficulty = 0.0
        cfg.terrain.kinds = ("gap", "step")
        trainer, _ = train_stage1(cfg, seed=1, iterations=3)
        for w in trainer.workers:
            assert 0.0 <= w.curr.difficulty <= 1.0


class TestResume:
    def test_resume_keeps_the_metrics_history(self, tmp_path):
        cfg = tiny_cfg(**{"train.checkpoint_every": 2})
        out = tmp_path / "run"
        train_stage1(cfg, seed=4, out_dir=str(out), iterations=2)
        first = (out / "metrics.jsonl").read_bytes()
        resume = load_checkpoint(out / "checkpoint_000002.json")
        Trainer(tiny_cfg(), seed=4, stage=1, out_dir=str(out), resume=resume).run(2)
        lines = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        assert b"".join(lines[:2]) == first
        assert [json.loads(line)["iteration"] for line in lines] == [1, 2, 3, 4]

    def test_resume_from_an_earlier_checkpoint_drops_the_later_lines(self, tmp_path):
        cfg = tiny_cfg(**{"train.checkpoint_every": 1})
        out = tmp_path / "run"
        train_stage1(cfg, seed=4, out_dir=str(out), iterations=3)
        first = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        resume = load_checkpoint(out / "checkpoint_000001.json")
        Trainer(tiny_cfg(), seed=4, stage=1, out_dir=str(out), resume=resume).run(1)
        lines = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert lines[0] == first[0]
        assert [json.loads(line)["iteration"] for line in lines] == [1, 2]

    def test_resume_drops_a_truncated_trailing_line(self, tmp_path):
        cfg = tiny_cfg(**{"train.checkpoint_every": 2})
        out = tmp_path / "run"
        train_stage1(cfg, seed=4, out_dir=str(out), iterations=3)
        lines = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        # a crash while writing line 3 leaves part of it
        (out / "metrics.jsonl").write_bytes(b"".join(lines[:2]) + lines[2][:20])
        resume = load_checkpoint(out / "checkpoint_000002.json")
        Trainer(tiny_cfg(), seed=4, stage=1, out_dir=str(out), resume=resume).run(1)
        kept = (out / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        assert kept[:2] == lines[:2]
        assert [json.loads(line)["iteration"] for line in kept] == [1, 2, 3]

    def test_fresh_run_starts_an_empty_file(self, tmp_path):
        (tmp_path / "metrics.jsonl").write_text('{"iteration": 9}\n')
        train_stage1(tiny_cfg(), seed=4, out_dir=str(tmp_path), iterations=1)
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["iteration"] for line in lines] == [1]


class TestDivergingEnv:
    ROWS = ("o", "hist", "scans", "m", "e", "gait", "actions", "log_probs", "values",
            "rewards", "dones", "r_l", "r_s", "r_g")

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
        others = [i for i in range(poked.cfg.ppo.n_envs) if i != 1]
        for name in self.ROWS:
            a, b = getattr(got, name)[:, others], getattr(want, name)[:, others]
            assert a.tobytes() == b.tobytes(), name
        # the diverged env started a new episode and kept stepping
        assert np.isfinite(got.o[1:, 1]).all() and got.dones[1:, 1].sum() < got.horizon - 1
