import numpy as np
import pytest

from gaitrl.codec import decode, encode, read_json, write_json
from gaitrl.terrain import (
    BENCH_RANGES,
    GAP_RANGE,
    STAIR_RANGE,
    STEP_RANGE,
    Heightfield,
    build_benchmark_track,
    generate_terrain,
)


def gap_widths(hf):
    return [o.value for o in hf.obstacles if o.kind == "gap"]


class TestGenerateTerrain:
    def test_gap_width_at_difficulty_extremes(self):
        lo = generate_terrain("gap", 0.0, seed=3)
        hi = generate_terrain("gap", 1.0, seed=3)
        assert all(abs(w - 0.05) < 1e-12 for w in gap_widths(lo))
        assert all(abs(w - 0.45) < 1e-12 for w in gap_widths(hi))
        assert gap_widths(lo) and gap_widths(hi)

    def test_flat_is_all_zero(self):
        for d in (0.0, 0.37, 1.0):
            hf = generate_terrain("flat", d, seed=9)
            assert np.all(hf.heights == 0.0)
            assert not np.any(hf.void)

    def test_deterministic_in_seed(self):
        a = generate_terrain("stair", 0.6, seed=42)
        b = generate_terrain("stair", 0.6, seed=42)
        np.testing.assert_array_equal(a.heights, b.heights)
        np.testing.assert_array_equal(a.void, b.void)
        c = generate_terrain("stair", 0.6, seed=43)
        assert not np.array_equal(a.heights, c.heights)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_terrain("lava", 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_terrain("gap", 1.5, seed=0)

    @pytest.mark.parametrize("kind,rng_", [("gap", GAP_RANGE), ("step", STEP_RANGE), ("stair", STAIR_RANGE)])
    def test_curriculum_parameters_stay_in_paper_ranges(self, kind, rng_):
        for d in np.linspace(0.0, 1.0, 7):
            hf = generate_terrain(kind, float(d), seed=11)
            vals = [o.value for o in hf.obstacles if o.kind == kind]
            assert vals
            assert all(rng_[0] - 1e-12 <= v <= rng_[1] + 1e-12 for v in vals)

    def test_void_cells_only_in_gaps(self):
        hf = generate_terrain("gap", 0.8, seed=5)
        assert np.any(hf.void)
        for ob in hf.obstacles:
            assert np.all(hf.void[ob.start : ob.end])
        hf2 = generate_terrain("step", 0.8, seed=5)
        assert not np.any(hf2.void)

    def test_surface_at_void_returns_edge_level(self):
        hf = generate_terrain("gap", 1.0, seed=2)
        ob = hf.obstacles[0]
        x_mid = (ob.start + 0.5) * hf.cell_size
        assert hf.is_void(x_mid)
        assert hf.surface_at(x_mid) == ob.surface
        assert hf.height_at(x_mid) == pytest.approx(ob.surface - 1.0)


class TestBenchmarkTrack:
    @pytest.mark.parametrize("obstacle", ["gap", "step", "stair"])
    @pytest.mark.parametrize("mode", ["easy", "hard"])
    def test_parameters_within_mode_range(self, obstacle, mode):
        lo, hi = BENCH_RANGES[(obstacle, mode)]
        for seed in range(5):
            hf = build_benchmark_track(obstacle, mode, seed)
            vals = [o.value for o in hf.obstacles if o.kind == obstacle]
            assert vals
            assert all(lo <= v <= hi for v in vals)

    def test_gap_easy_range(self):
        hf = build_benchmark_track("gap", "easy", 7)
        assert all(0.25 <= w <= 0.4 for w in gap_widths(hf))

    def test_step_hard_range(self):
        hf = build_benchmark_track("step", "hard", 7)
        vals = [o.value for o in hf.obstacles]
        assert all(0.25 <= v <= 0.35 for v in vals)

    def test_track_is_14m(self):
        hf = build_benchmark_track("stair", "easy", 0)
        assert hf.track_length == pytest.approx(14.0)

    def test_same_seed_identical(self):
        a = build_benchmark_track("gap", "hard", 123)
        b = build_benchmark_track("gap", "hard", 123)
        np.testing.assert_array_equal(a.heights, b.heights)
        assert [o.value for o in a.obstacles] == [o.value for o in b.obstacles]


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        hf = generate_terrain("gap", 0.5, seed=17)
        path = tmp_path / "track.json"
        write_json(path, hf)
        back = read_json(Heightfield, path)
        np.testing.assert_array_equal(hf.heights, back.heights)
        np.testing.assert_array_equal(hf.void, back.void)
        assert len(back.obstacles) == len(hf.obstacles)
        assert back.cell_size == hf.cell_size

    def test_version_check(self, tmp_path):
        hf = generate_terrain("flat", 0.0, seed=0)
        d = encode(hf)
        d["format_version"] = 99
        with pytest.raises(ValueError):
            decode(Heightfield, d)
