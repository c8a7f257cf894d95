"""The shared terrain layout and evaluation episode against the per-use code.

``generate_terrain`` and ``build_benchmark_track`` lay their obstacles out
through one routine, and ``run_trial``, ``measure_gait_attribute`` and
``collect_latent_samples`` run their episodes through one generator;
tests/oracles.py keeps the code each used to carry on its own.  Every
comparison is on bytes: heightfield arrays, obstacle floats, trace and report
files, measured tuples and sampled bundles.
"""

from __future__ import annotations

import struct

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitrl.bench as bench
from gaitrl.bench import (
    BenchmarkSuite,
    PolicyController,
    collect_latent_samples,
    measure_gait_attribute,
    run_benchmark,
)
from gaitrl.config import RunConfig
from gaitrl.controllers import ScriptedWalker
from gaitrl.terrain import (
    BENCH_RANGES,
    TERRAIN_KINDS,
    TerrainConfig,
    build_benchmark_track,
    generate_terrain,
)

from oracles import (
    ref_build_benchmark_track,
    ref_collect_latent_samples,
    ref_generate_terrain,
    ref_measure_gait_attribute,
    ref_run_trial,
)
from test_inference_oracle import make_policy

# (track_length, cell_size, start_clear); 9.3 / 0.04 is not a whole number
# of cells, so the layout must stop on the requested length, not the grid's
GEOMETRIES = ((14.0, 0.05, 2.0), (9.3, 0.04, 1.5), (21.0, 0.07, 2.6))
DIFFICULTIES = (0.0, 0.1, 0.25, 0.5, 0.73, 0.9, 1.0)
CELLS = sorted(BENCH_RANGES)


def bits(v) -> bytes:
    return struct.pack("<d", float(v))


def geometry(track_length, cell_size, start_clear) -> TerrainConfig:
    return TerrainConfig(track_length=track_length, cell_size=cell_size, start_clear=start_clear)


def on_section(ref):
    """``ref`` (a reference generator, which takes the geometry as three
    numbers) called the way the pipeline calls a generator: with a ``terrain``
    section."""
    def call(name, variant, seed, terrain):
        return ref(name, variant, seed, terrain.track_length, terrain.cell_size,
                   terrain.start_clear)
    return call


def track_bytes(hf) -> tuple:
    obstacles = [(o.kind, bits(o.value), o.start, o.end, bits(o.surface)) for o in hf.obstacles]
    return (
        hf.heights.dtype, hf.heights.tobytes(), hf.void.dtype, hf.void.tobytes(), obstacles,
        hf.kind, bits(hf.difficulty), bits(hf.cell_size),
    )


class TestLayout:
    @pytest.mark.parametrize("kind", TERRAIN_KINDS)
    def test_curriculum_tracks(self, kind):
        for geom in GEOMETRIES:
            for difficulty in DIFFICULTIES:
                for seed in (*range(20), 2**32 + 5, -3):
                    args = (kind, difficulty, seed)
                    assert track_bytes(generate_terrain(*args, geometry(*geom))) == track_bytes(
                        ref_generate_terrain(*args, *geom)
                    ), (args, geom)

    @pytest.mark.parametrize("obstacle,mode", CELLS)
    def test_benchmark_tracks(self, obstacle, mode):
        for geom in GEOMETRIES:
            for seed in (*range(60), 2**32 + 5, -3):
                args = (obstacle, mode, seed)
                assert track_bytes(build_benchmark_track(*args, geometry(*geom))) == track_bytes(
                    ref_build_benchmark_track(*args, *geom)
                ), (args, geom)

    def test_default_geometry_lays_obstacles(self):
        # the comparisons above are not vacuous: every obstacle kind appears
        for kind in ("gap", "step", "stair"):
            assert generate_terrain(kind, 0.5, seed=1).obstacles
            assert build_benchmark_track(kind, "hard", seed=1).obstacles

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(("gap", "step", "stair")),
        difficulty=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**40),
        track_length=st.floats(3.0, 30.0),
        cell_size=st.sampled_from((0.02, 0.05, 0.1)),
        start_clear=st.floats(0.0, 3.0),
        mode=st.sampled_from(("easy", "hard")),
    )
    def test_any_geometry(self, kind, difficulty, seed, track_length, cell_size, start_clear,
                          mode):
        geom = (track_length, cell_size, start_clear)
        assert track_bytes(generate_terrain(kind, difficulty, seed, geometry(*geom))) == (
            track_bytes(ref_generate_terrain(kind, difficulty, seed, *geom))
        )
        assert track_bytes(build_benchmark_track(kind, mode, seed, geometry(*geom))) == (
            track_bytes(ref_build_benchmark_track(kind, mode, seed, *geom))
        )

    def test_validation_errors_are_unchanged(self):
        for call in (
            lambda f: f("ice", 0.5, 0), lambda f: f("gap", 1.5, 0), lambda f: f("gap", -0.1, 0),
        ):
            with pytest.raises(ValueError) as new:
                call(generate_terrain)
            with pytest.raises(ValueError) as ref:
                call(ref_generate_terrain)
            assert str(new.value) == str(ref.value)
        for args in (("rough", "easy", 0), ("gap", "medium", 0)):
            with pytest.raises(ValueError) as new:
                build_benchmark_track(*args)
            with pytest.raises(ValueError) as ref:
                ref_build_benchmark_track(*args)
            assert str(new.value) == str(ref.value)


def output_tree(path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestEpisodes:
    SUITE = BenchmarkSuite(
        cells=(*BenchmarkSuite().cells, ("flat", "easy")),
        trials=2, seed_base=4, timeout_s=6.0, goal_m=2.0,
    )

    def run_both(self, tmp_path, monkeypatch, controller, method, gait_id=None):
        cfg = RunConfig()
        run_benchmark(controller, cfg, self.SUITE, method=method, gait_id=gait_id,
                      out_dir=str(tmp_path / "new"))
        with monkeypatch.context() as m:
            m.setattr(bench, "run_trial", ref_run_trial)
            m.setattr(bench, "build_benchmark_track", on_section(ref_build_benchmark_track))
            m.setattr(bench, "generate_terrain", on_section(ref_generate_terrain))
            run_benchmark(controller, cfg, self.SUITE, method=method, gait_id=gait_id,
                          out_dir=str(tmp_path / "ref"))
        new, ref = output_tree(tmp_path / "new"), output_tree(tmp_path / "ref")
        assert list(new) == list(ref)
        for name in new:
            assert new[name] == ref[name], name
        return new

    def test_walker_benchmark_bytes(self, tmp_path, monkeypatch):
        tree = self.run_both(tmp_path, monkeypatch, ScriptedWalker(), "walker")
        # both trial endings occur: the goal on flat, a fall on some obstacle
        traces = b"".join(v for k, v in tree.items() if k.startswith("trace_"))
        assert b'"termination": "goal"' in traces
        assert b'"termination": "fall"' in traces

    def test_policy_benchmark_bytes(self, tmp_path, monkeypatch):
        policy = make_policy(2)
        self.run_both(tmp_path, monkeypatch, PolicyController(policy, gait_id=1), "policy",
                      gait_id=1)

    @pytest.mark.parametrize("attribute", ["squat_height", "knee_lift"])
    @pytest.mark.parametrize("rollout_s,terrain_kind", [(6.0, "flat"), (0.3, "gap")])
    def test_gait_attribute(self, attribute, rollout_s, terrain_kind):
        policy = make_policy(2)
        cfg = RunConfig()
        args = (policy, cfg, 2, attribute)
        kw = dict(n_rollouts=3, rollout_s=rollout_s, seed=5, terrain_kind=terrain_kind)
        new = measure_gait_attribute(*args, **kw)
        assert [bits(v) for v in new] == [bits(v) for v in ref_measure_gait_attribute(*args, **kw)]

    def test_latent_samples(self):
        policy = make_policy(2)
        cfg = RunConfig()
        new = collect_latent_samples(policy, cfg, seed=3)
        ref = ref_collect_latent_samples(policy, cfg, seed=3)
        assert len(new) == len(ref) > 0
        for (b, k), (rb, rg, rk) in zip(new, ref):
            for name in ("o", "hist", "scans", "m", "e", "gait"):
                assert getattr(b, name).tobytes() == getattr(rb, name).tobytes(), name
            # the gait each sample was collected under is its bundle's (float32) block
            assert b.gait.tobytes() == rg.astype(np.float32).tobytes() and k == rk

    def test_latent_samples_stop_at_the_step_budget_or_the_episode_end(self):
        policy = make_policy(2)
        cfg = RunConfig()
        cfg.env.max_episode_s = 0.1  # 5 steps, under the budget of 7
        for steps in (0, 3, 7):
            new = collect_latent_samples(policy, cfg, ("flat",), steps_per_combo=steps)
            ref = ref_collect_latent_samples(policy, cfg, ("flat",), steps_per_combo=steps)
            assert len(new) == len(ref) == cfg.env.n_gaits * min(steps, 5)
