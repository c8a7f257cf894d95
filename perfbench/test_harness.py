"""Smoke test of the benchmark harness at a tiny config.

Run from the repository root:  python3 -m pytest -q perfbench

It checks that the tracer patches each function at the name its caller
looks up, that every layer records calls on each workload that should
exercise it (and none on the others), and exact call-count invariants, so
a later refactor cannot silently zero out a layer.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gaitrl.biped  # noqa: E402
import gaitrl.env  # noqa: E402
from gaitrl.config import RunConfig  # noqa: E402

import run  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402
from workloads import SETUPS, make_workload, run_workload  # noqa: E402


def tiny_cfg(**over):
    """The tiny_cfg shape of tests/test_trainer.py."""
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


def harness_cfg():
    # short episodes, so resets happen inside two traced iterations; a small
    # window buffer, so the stage-2 warm-up ends; short benchmark trials
    return tiny_cfg(**{
        "env.max_episode_s": 0.2,
        "amp.buffer_size": 16,
        "bench.timeout_s": 0.2,
    })


TRAIN_LAYERS = {
    "biped.substep", "biped.pd_torques",
    "env.TerrainEnv.step", "env.TerrainEnv.reset", "env.sample_dr",
    "terrain.generate_terrain",
    "rewards.locomotion_rewards", "rewards.gait_rewards", "rewards.total_reward",
    "policy.ActorCritic.actor_mean", "policy.ActorCritic.critic_value",
    "policy.ActorCritic.actor_backward", "policy.BundleBatch.stack",
    "ppo.ppo_update", "ppo.ppo_loss_and_grads", "ppo.compute_gae", "ppo.RolloutBuffer.add_step",
    "nets.adam_step", "nets.clip_grad_norm",
    "trainer.Trainer.collect_rollout", "trainer.EnvWorker.begin_episode",
}
EXPECTED = {
    "train-s1": TRAIN_LAYERS,
    "train-s2": TRAIN_LAYERS | {"amp.style_reward", "amp.WindowBuffer.add", "amp.amp_update"},
    "eval-bench": {
        "biped.substep", "biped.pd_torques",
        "env.TerrainEnv.step", "env.TerrainEnv.reset",
        "terrain.build_benchmark_track", "rewards.locomotion_rewards",
        "policy.ActorCritic.actor_mean", "policy.BundleBatch.stack", "policy.ActorCritic.act",
        "bench.run_trial",
    },
}


def test_tracer_wraps_the_names_callers_look_up():
    tracer = Tracer()
    bound = set(tracer.bindings())
    for name in (
        "gaitrl.env.substep", "gaitrl.env.pd_torques",
        "gaitrl.trainer.style_reward", "gaitrl.trainer.generate_terrain",
        "gaitrl.trainer.locomotion_rewards", "gaitrl.ppo.adam_step", "gaitrl.amp.adam_step",
        "gaitrl.bench.locomotion_rewards", "gaitrl.bench.build_benchmark_track",
        "gaitrl.bench.run_trial", "gaitrl.env.TerrainEnv.step", "gaitrl.policy.BundleBatch.stack",
    ):
        assert name in bound
    original = gaitrl.biped.substep
    with tracer.active():
        assert gaitrl.env.substep is not original
    assert gaitrl.env.substep is original


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_layer_records_calls_where_expected(tmp_path, name):
    cfg = harness_cfg()
    tracer = Tracer()
    res = run_workload(make_workload(name, str(tmp_path), cfg), seed=3, seconds=0, tracer=tracer)
    calls = tracer.summary()["calls"]
    assert {n for n in NAMES if calls[n] > 0} == EXPECTED[name]
    assert all(o.failed == 0 for o in res.outcomes())
    # an operation's wall time covers its samples and leaves out its pauses
    assert all(sum(o.samples) <= o.wall for o in res.outcomes())
    plain = sum(1 for was_traced, o in res.timed if not was_traced for _ in o.samples)
    assert len(res.calibration_s) >= plain
    assert len(res.setup_s) >= SETUPS + plain

    traced = [o for was_traced, o in res.timed if was_traced]
    assert calls["biped.substep"] == cfg.env.substeps * calls["env.TerrainEnv.step"]
    if name.startswith("train"):
        assert calls["env.TerrainEnv.step"] == cfg.ppo.n_envs * cfg.ppo.horizon * len(traced)
        assert calls["trainer.EnvWorker.begin_episode"] == sum(o.episodes_finished for o in traced)
    else:
        assert calls["bench.run_trial"] == sum(o.attempted for o in traced)

    # tracing changes no output: an untraced rerun prints the same digest
    untraced = run_workload(make_workload(name, str(tmp_path), cfg), seed=3, seconds=0)
    assert untraced.digest == res.digest


@pytest.mark.parametrize("stage", [1, 2])
def test_begin_episode_counts_construction_and_finished_episodes(tmp_path, stage):
    cfg = harness_cfg()
    workload = make_workload(f"train-s{stage}", str(tmp_path), cfg)
    tracer = Tracer()
    with tracer.active():
        workload.build(seed=5)
        outcomes = [workload.op() for _ in range(3)]
    calls = tracer.summary()["calls"]
    finished = sum(o.episodes_finished for o in outcomes)
    assert finished > 0
    assert calls["trainer.EnvWorker.begin_episode"] == (
        workload.trainers_per_build * cfg.ppo.n_envs + finished
    )


def test_stage2_warm_up_fills_every_window_buffer(tmp_path):
    workload = make_workload("train-s2", str(tmp_path), harness_cfg())
    workload.build(seed=1)
    assert not workload.buffers_full()
    list(workload.warm_up())
    assert workload.buffers_full()


def test_benchmark_json_lists_the_harness_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics(NAMES)
    assert {w["name"] for w in doc["workloads"]} == set(EXPECTED)
