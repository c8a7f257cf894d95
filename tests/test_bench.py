import json
import struct
import tracemalloc

import numpy as np
import pytest

import gaitrl.bench as bench
from gaitrl.bench import (
    BenchmarkReport,
    BenchmarkSuite,
    analyze_latents,
    collect_latent_samples,
    measure_gait_attribute,
    pca_2d,
    recompute_cell_from_trace,
    run_benchmark,
    run_trial,
    silhouette_score,
)
from gaitrl.biped import N_JOINTS
from gaitrl.codec import decode
from gaitrl.config import RunConfig
from gaitrl.controllers import ConstantController, ScriptedWalker
from gaitrl.policy import LatentTable
from gaitrl.terrain import generate_terrain

from oracles import ref_measure_gait_attribute, ref_run_trial, ref_silhouette_score
from test_inference_oracle import make_policy


def small_cfg():
    cfg = RunConfig()
    return cfg


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def report_cell(report: BenchmarkReport, obstacle: str, mode: str):
    """The report's result for the cell ``(obstacle, mode)``."""
    for c in report.cells:
        if (c.obstacle, c.mode) == (obstacle, mode):
            return c
    raise KeyError((obstacle, mode))


class TestRunTrial:
    def test_walker_reaches_goal_on_flat(self):
        cfg = small_cfg()
        walker = ScriptedWalker(cfg.model)
        terrain = generate_terrain("flat", 0.0, seed=0)
        out = run_trial(walker, terrain, cfg.model, cfg.env, timeout_s=40.0, goal_m=14.0, seed=0)
        assert out["success"] is True
        assert out["distance"] == pytest.approx(14.0)
        assert out["termination"] == "goal"

    def test_faller_scores_zero(self):
        cfg = small_cfg()
        faller = ConstantController(np.full(N_JOINTS, 4.0))
        terrain = generate_terrain("flat", 0.0, seed=0)
        out = run_trial(faller, terrain, cfg.model, cfg.env, timeout_s=10.0, seed=0)
        assert out["success"] is False
        assert out["distance"] < 0.5


class TestTraceRewards:
    def test_trace_scores_rewards_with_the_runs_reward_config(self, tmp_path):
        cfg = small_cfg()
        cfg.rewards.weights = {**cfg.rewards.weights, "collision": 0.0, "track_lin_vel": 7.0}
        suite = BenchmarkSuite(cells=(("flat", "easy"),), trials=1, timeout_s=0.2)
        run_benchmark(ScriptedWalker(cfg.model), cfg, suite, method="walker",
                      out_dir=str(tmp_path))
        with open(tmp_path / "trace_walker_flat_easy.jsonl") as f:
            steps = [r for r in map(json.loads, f) if "step" in r]
        assert steps
        for r in steps:
            assert repr(r["rewards"]["collision"]) == "0.0"  # zero weight, +0.0
            assert 0.0 < r["rewards"]["track_lin_vel"] <= 7.0
        assert max(r["rewards"]["track_lin_vel"] for r in steps) > 2.0


class PoisonAtStep:
    """ScriptedWalker that sets ``state.vx = nan`` as it acts for step ``k`` of each trial."""

    def __init__(self, model, k, dt):
        self.walker = ScriptedWalker(model)
        self.t_poison = (k - 1) * dt

    def act(self, bundle, state):
        action = self.walker.act(bundle, state)
        if abs(state.time - self.t_poison) < 1e-9:
            state.vx = float("nan")
        return action


def strict_constant(token):
    raise ValueError(f"non-JSON token {token}")


class TestDivergedTrace:
    def test_trace_of_a_diverged_step_is_strict_json(self, tmp_path):
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("gap", "easy"),), trials=2, seed_base=0)
        controller = PoisonAtStep(cfg.model, 10, cfg.env.dt)
        report = run_benchmark(controller, cfg, suite, method="nan", out_dir=str(tmp_path))
        trace = tmp_path / "trace_nan_gap_easy.jsonl"
        with open(trace) as f:
            records = [json.loads(line, parse_constant=strict_constant) for line in f]
        diverged = [r for r in records if r.get("termination") == "diverged" and "step" in r]
        assert [r["step"] for r in diverged] == [10, 10]
        for r in diverged:
            assert r["rewards"] == {}
            assert r["vx"] is None
            assert all(isinstance(r[k], float) for k in ("t", "x", "z", "pitch", "distance"))
        ends = [r for r in records if "trial_end" in r]
        assert [r["termination"] for r in ends] == ["diverged", "diverged"]
        succ, dist = recompute_cell_from_trace(trace, goal_m=suite.goal_m)
        cell = report_cell(report, "gap", "easy")
        assert succ == cell.success_rate
        assert dist == cell.mean_distance


class TestPushFreeEvaluation:
    def test_squat_measure_does_not_depend_on_push_strength(self):
        policy = make_policy(2)
        measured, kept_pushes = [], []
        for push_vel_max in (0.0, 0.5):
            cfg = small_cfg()
            cfg.env.push_interval_s = 0.1
            cfg.env.push_vel_max = push_vel_max
            measured.append(measure_gait_attribute(policy, cfg, 2, "squat_height", n_rollouts=3))
            kept_pushes.append(
                ref_measure_gait_attribute(policy, cfg, 2, "squat_height", n_rollouts=3)
            )
        # with the training-time pushes kept, the pushes do reach these rollouts
        assert kept_pushes[0] != kept_pushes[1]
        assert measured[0] == measured[1] == kept_pushes[0]


class TestStartClear:
    def test_latent_export_and_gait_measurement_lay_tracks_from_start_clear(self, monkeypatch):
        cfg = small_cfg()
        cfg.terrain.start_clear = 0.8
        tracks = []

        def recording(*args, **kwargs):
            tracks.append(generate_terrain(*args, **kwargs))
            return tracks[-1]

        monkeypatch.setattr(bench, "generate_terrain", recording)
        policy = make_policy(2)
        collect_latent_samples(policy, cfg, terrain_kinds=("gap",), steps_per_combo=1)
        measure_gait_attribute(policy, cfg, 2, "squat_height", n_rollouts=1, rollout_s=0.1,
                               terrain_kind="gap")
        assert len(tracks) == cfg.env.n_gaits + 1
        for hf in tracks:
            assert hf.obstacles[0].start == hf.cell_at(0.8)


class TestRunBenchmark:
    def test_flat_suite_degenerate_scores(self, tmp_path):
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("flat", "easy"),), trials=3, seed_base=0)
        walker = ScriptedWalker(cfg.model)
        report = run_benchmark(walker, cfg, suite, method="walker", out_dir=str(tmp_path))
        cell = report_cell(report, "flat", "easy")
        assert cell.success_rate == 1.0
        assert cell.mean_distance == pytest.approx(14.0)

    def test_faller_scores_zero_on_gaps(self):
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("gap", "easy"),), trials=2, seed_base=0)
        faller = ConstantController(np.full(N_JOINTS, 4.0))
        report = run_benchmark(faller, cfg, suite, method="faller")
        cell = report_cell(report, "gap", "easy")
        assert cell.success_rate == 0.0
        assert cell.mean_distance < 0.5

    def test_walker_fails_on_obstacles(self):
        # the blind open-loop gait must trip on real hard obstacles
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("gap", "hard"),), trials=2, seed_base=0)
        walker = ScriptedWalker(cfg.model)
        report = run_benchmark(walker, cfg, suite, method="walker")
        assert report_cell(report, "gap", "hard").success_rate == 0.0

    def test_report_audit_equals_trace_recompute(self, tmp_path):
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("flat", "easy"), ("gap", "easy")), trials=3, seed_base=5)
        walker = ScriptedWalker(cfg.model)
        report = run_benchmark(walker, cfg, suite, method="walker", out_dir=str(tmp_path))
        for cell in report.cells:
            trace = tmp_path / f"trace_walker_{cell.obstacle}_{cell.mode}.jsonl"
            succ, dist = recompute_cell_from_trace(trace, goal_m=suite.goal_m)
            assert succ == cell.success_rate
            assert dist == pytest.approx(cell.mean_distance, abs=1e-12)

    def test_deterministic_report_bytes(self, tmp_path):
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("gap", "easy"),), trials=2, seed_base=3)
        walker = ScriptedWalker(cfg.model)
        run_benchmark(walker, cfg, suite, method="w", out_dir=str(tmp_path / "a"))
        run_benchmark(walker, cfg, suite, method="w", out_dir=str(tmp_path / "b"))
        ra = (tmp_path / "a" / "report_w.json").read_bytes()
        rb = (tmp_path / "b" / "report_w.json").read_bytes()
        assert ra == rb

    def test_report_json_round_trip(self, tmp_path):
        cfg = small_cfg()
        suite = BenchmarkSuite(cells=(("flat", "easy"),), trials=1)
        report = run_benchmark(ScriptedWalker(cfg.model), cfg, suite, method="walker",
                               out_dir=str(tmp_path))
        with open(tmp_path / "report_walker.json") as f:
            back = decode(BenchmarkReport, json.load(f))
        assert (report_cell(back, "flat", "easy").success_rate
                == report_cell(report, "flat", "easy").success_rate)
        assert back.config_hash == report.config_hash
        assert "Succ." in report.text_table()

    def test_zero_trials_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            run_benchmark(ScriptedWalker(cfg.model), cfg, BenchmarkSuite(trials=0))


class TestLatentAnalysis:
    def synthetic_table(self, sep=6.0, n=40, seed=0):
        rng = np.random.default_rng(seed)
        zs, labels = [], []
        for g in range(3):
            center = np.zeros(8)
            center[g] = sep
            zs.append(center + rng.normal(0, 0.4, size=(n, 8)))
            labels += [g] * n
        return LatentTable(
            z_prime=np.concatenate(zs),
            gate_w=np.tile(np.array([0.5, 0.3, 0.2]), (3 * n, 1)),
            gait_labels=np.array(labels),
            terrain_labels=["flat"] * (3 * n),
        )

    def test_well_separated_clusters_score_high(self):
        report = analyze_latents(self.synthetic_table())
        assert not report.degenerate
        assert report.silhouette > 0.5
        assert report.coords.shape == (120, 2)

    def test_identical_latents_flagged_degenerate(self):
        table = LatentTable(
            z_prime=np.ones((10, 4)),
            gate_w=np.full((10, 3), 1 / 3),
            gait_labels=np.array([0, 1, 2] * 3 + [0]),
            terrain_labels=["flat"] * 10,
        )
        report = analyze_latents(table)
        assert report.degenerate
        assert report.silhouette is None
        assert np.all(report.coords == 0.0)

    def test_projection_centering_invariance(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(30, 6))
        c1, _ = pca_2d(data)
        c2, _ = pca_2d(data + 7.5)
        np.testing.assert_allclose(c1, c2, atol=1e-9)

    def test_projection_deterministic_sign(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(25, 5))
        _, comps1 = pca_2d(data)
        _, comps2 = pca_2d(data.copy())
        np.testing.assert_array_equal(comps1, comps2)
        for comp in comps1:
            nz = comp[np.abs(comp) > 1e-12]
            assert nz[0] > 0

    def test_silhouette_bounds_and_validation(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 3))
        labels = rng.integers(0, 2, 20)
        s = silhouette_score(data, labels)
        assert -1.0 <= s <= 1.0
        with pytest.raises(ValueError):
            silhouette_score(data, np.zeros(20))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_silhouette_has_the_bits_of_all_pairwise_differences(self, seed):
        # export-latents' default table: 3 terrains x 3 gaits x 40 steps of d_z 64,
        # with a singleton label, whose row scores 0
        rng = np.random.default_rng(seed)
        labels = np.repeat([0, 1, 2], 120)
        data = rng.normal(0.0, 0.7, (360, 64)) + np.eye(64)[labels] * 2.0
        labels[17] = 3
        assert bits(silhouette_score(data, labels)) == bits(ref_silhouette_score(data, labels))

    def test_silhouette_memory_is_one_row_of_distances(self):
        # bound set before measuring: a few [n, d] float64 rows (184 kB each)
        # at n = 360, d = 64, where all pairwise differences were 66 MB
        rng = np.random.default_rng(4)
        data, labels = rng.normal(size=(360, 64)), np.repeat([0, 1, 2], 120)
        silhouette_score(data, labels)  # what a first call imports and caches stays out
        tracemalloc.start()
        try:
            silhouette_score(data, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_gate_usage_reported_per_gait(self):
        report = analyze_latents(self.synthetic_table())
        assert set(report.gate_usage.keys()) == {"0", "1", "2"}
        for w in report.gate_usage.values():
            assert w.shape == (3,)


def test_a_trace_of_several_chunks_has_the_bytes_of_the_per_step_trace(tmp_path):
    # standing to the timeout: the trace scores its steps a chunk at a time
    cfg = RunConfig()
    terrain = generate_terrain("flat", 0.0, 0, cfg.terrain)
    stand = ConstantController(np.zeros(N_JOINTS))
    traces = []
    for trial in (bench.run_trial, ref_run_trial):
        path = tmp_path / f"{trial.__name__}.jsonl"
        with open(path, "w") as f:
            out = trial(stand, terrain, cfg.model, cfg.env, timeout_s=12.0, trace_file=f)
        traces.append(path.read_bytes())
    assert out["steps"] > 2 * bench.TRACE_CHUNK and out["termination"] == "timeout"
    assert traces[0] == traces[1]
