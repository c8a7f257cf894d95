import numpy as np
import pytest

from gaitrl.biped import BipedModel
from gaitrl.codec import read_json, write_json
from gaitrl.refmotion import (
    ClipParams,
    ReferenceClip,
    default_clip_set,
    gen_reference_clip,
    reference_windows,
    window_stream,
)

from oracles import standing_drop

MODEL = BipedModel()


class TestClipGeneration:
    def test_squat_base_height_near_target(self):
        clip = gen_reference_clip("squat", ClipParams(squat_height_target=0.68), seed=0)
        for frame in clip.frames:
            h = standing_drop(frame, MODEL.thigh_len, MODEL.shin_len, MODEL.foot_len)
            assert abs(h - 0.68) < 0.02

    def test_high_knees_apex_within_5pct_of_lift_target(self):
        target = 0.58
        clip = gen_reference_clip("high_knees", ClipParams(knee_lift_target=target), seed=0)
        # per frame: knee height above ground via independent FK
        import math

        best = -1.0
        for frame in clip.frames:
            base = standing_drop(frame, MODEL.thigh_len, MODEL.shin_len, MODEL.foot_len)
            for side in (0, 1):
                best = max(best, base - MODEL.thigh_len * math.cos(frame[3 * side]))
        assert abs(best - target) / target < 0.05

    def test_periodicity_exact(self):
        params = ClipParams(stride_freq=1.4, n_cycles=3)
        for gait in ("walk", "run", "high_knees", "squat"):
            clip = gen_reference_clip(gait, params, seed=0)
            per = int(round(clip.frame_rate / params.stride_freq)) if gait not in ("run",) else None
            if per is None:
                # run rescales its frequency; recover the cycle from the clip
                per = len(clip.frames) // params.n_cycles
            np.testing.assert_allclose(clip.frames[:per], clip.frames[per : 2 * per], atol=1e-9)

    def test_deterministic_and_seed_shifts_phase(self):
        a = gen_reference_clip("walk", seed=3)
        b = gen_reference_clip("walk", seed=3)
        np.testing.assert_array_equal(a.frames, b.frames)
        c = gen_reference_clip("walk", seed=4)
        assert not np.array_equal(a.frames, c.frames)
        # a phase shift is a roll of the same cycle
        per = len(a.frames) // 4
        np.testing.assert_allclose(np.roll(a.frames, -1, axis=0)[: per - 1], c.frames[: per - 1], atol=1e-12)

    def test_limit_violation_raises(self):
        with pytest.raises(ValueError):
            gen_reference_clip("high_knees", ClipParams(knee_lift_target=2.0), seed=0)
        with pytest.raises(ValueError):
            gen_reference_clip("squat", ClipParams(squat_height_target=0.05), seed=0)

    def test_unknown_gait_rejected(self):
        with pytest.raises(ValueError):
            gen_reference_clip("moonwalk", seed=0)

    def test_walk_and_run_share_gait_id(self):
        assert gen_reference_clip("walk").gait_id == gen_reference_clip("run").gait_id == 0

    def test_frames_within_joint_limits(self):
        for gait in ("walk", "run", "high_knees", "squat"):
            clip = gen_reference_clip(gait)
            assert np.all(clip.frames >= MODEL.lower() - 1e-9)
            assert np.all(clip.frames <= MODEL.upper() + 1e-9)

    def test_implied_base_height_helper_agrees_with_oracle(self):
        clip = gen_reference_clip("walk")
        for frame in clip.frames[::7]:
            ours = MODEL.standing_height(frame)
            oracle = standing_drop(frame, MODEL.thigh_len, MODEL.shin_len, MODEL.foot_len)
            assert ours == pytest.approx(oracle, abs=1e-12)


class TestWindowStream:
    def test_length_5_source_gives_one_window(self):
        frames = np.arange(5 * 6, dtype=float).reshape(5, 6)
        w = window_stream(frames)
        assert w.shape == (1, 30)

    def test_length_L_gives_L_minus_4(self):
        frames = np.random.default_rng(0).normal(size=(37, 6))
        assert window_stream(frames).shape == (33, 30)

    def test_too_short_source_gives_empty(self):
        frames = np.zeros((4, 6))
        w = window_stream(frames)
        assert w.shape == (0, 30)

    def test_window_contents_verbatim(self):
        frames = np.random.default_rng(1).normal(size=(9, 6))
        w = window_stream(frames)
        for i in range(w.shape[0]):
            np.testing.assert_array_equal(w[i], frames[i : i + 5].ravel())


class TestClipIO:
    def test_json_round_trip(self, tmp_path):
        clip = gen_reference_clip("squat", seed=2)
        p = tmp_path / "squat.json"
        write_json(p, clip)
        back = read_json(ReferenceClip, p)
        np.testing.assert_array_equal(clip.frames, back.frames)
        assert back.gait_id == clip.gait_id
        assert back.frame_rate == clip.frame_rate

    def test_default_set_covers_three_gaits(self):
        clips = default_clip_set()
        assert sorted(clips.keys()) == [0, 1, 2]
        assert len(clips[0]) == 2  # walk + run
        refs = reference_windows(clips)
        for gid, wins in refs.items():
            assert wins.shape[0] > 0
            assert wins.shape[1] == 30
