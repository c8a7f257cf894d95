"""Synthetic reference motion clips and sliding joint-angle windows.

Parametric generators replace motion capture at desk scale: each gait is a
periodic joint-angle trajectory built so its defining feature is exact by
construction (crouch depth from the stance leg, swing-knee apex from the
swing hip), which lets tests check the clips with plain forward kinematics.

Walk and run share gait id 0; a single style model covers both speeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Annotated, ClassVar

import numpy as np

from .biped import N_JOINTS, BipedModel
from .codec import NON_NEGATIVE, POSITIVE, Bounded

CLIP_FORMAT_VERSION = 1

GAIT_WALK_RUN, GAIT_HIGH_KNEES, GAIT_SQUAT = 0, 1, 2
GAIT_IDS = {"walk": GAIT_WALK_RUN, "run": GAIT_WALK_RUN, "high_knees": GAIT_HIGH_KNEES,
            "squat": GAIT_SQUAT}
GAIT_NAMES = ("walk_run", "high_knees", "squat")  # indexed by gait id
N_GAITS = len(GAIT_NAMES)

WINDOW_LEN = 5


@dataclass
class ClipParams(Bounded):
    stride_freq: Annotated[float, POSITIVE] = 1.4  # Hz
    hip_amplitude: Annotated[float, NON_NEGATIVE] = 0.4  # rad, walk/run swing
    knee_amplitude: Annotated[float, NON_NEGATIVE] = 0.55  # rad, swing flexion on top of nominal
    knee_lift_target: Annotated[float, POSITIVE] = 0.58  # m, high-knees swing-knee apex
    squat_height_target: Annotated[float, POSITIVE] = 0.68  # m, crouch-walk base height
    squat_wobble: Annotated[float, NON_NEGATIVE] = 0.12  # rad, crouch-walk leg modulation
    n_cycles: Annotated[int, POSITIVE] = 4
    frame_rate: Annotated[float, POSITIVE] = 50.0

    def __post_init__(self):
        super().__post_init__()
        # the run clip strides fastest, so it has the fewest frames per cycle
        if round(self.frame_rate / run_stride_freq(self.stride_freq)) < 4:
            raise ValueError(
                f"stride_freq ({self.stride_freq}) must leave the run clip, which strides at "
                f"max(1.6 * stride_freq, 2.0) Hz, at least 4 frames per cycle at frame_rate "
                f"({self.frame_rate})"
            )


@dataclass
class ReferenceClip:
    format_version: ClassVar[int] = CLIP_FORMAT_VERSION
    gait_id: int
    frames: np.ndarray  # [T, n_joints] rad
    frame_rate: float
    name: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)

    @property
    def duration(self) -> float:
        return len(self.frames) / self.frame_rate


def _hump(phase: float) -> float:
    # one-sided squared sinusoid: swing shaping, exactly zero half the cycle
    s = math.sin(phase)
    return s * s if s > 0.0 else 0.0


def run_stride_freq(stride_freq: float) -> float:
    """The run clip's stride frequency: the walk's raised 1.6 times, to at least 2 Hz."""
    return max(stride_freq * 1.6, 2.0)


def _check_limits(frames: np.ndarray, model: BipedModel) -> None:
    lo, hi = model.lower(), model.upper()
    if np.any(frames < lo - 1e-9) or np.any(frames > hi + 1e-9):
        raise ValueError("clip parameters violate joint limits")


def gen_reference_clip(
    gait: str,
    params: ClipParams | None = None,
    seed: int = 0,
    model: BipedModel | None = None,
) -> ReferenceClip:
    """Build one periodic clip; the seed shifts the starting phase by whole frames."""
    if gait not in GAIT_IDS:
        raise ValueError(f"unknown gait: {gait!r}")
    params = params or ClipParams()
    model = model or BipedModel()
    stride_freq = params.stride_freq
    if gait == "run":
        stride_freq = run_stride_freq(stride_freq)
        params = replace(params, hip_amplitude=params.hip_amplitude * 1.4,
                         knee_amplitude=min(params.knee_amplitude * 1.5, 1.2))
    per_cycle = round(params.frame_rate / stride_freq)  # at least 4 (the ClipParams rule)
    total = per_cycle * params.n_cycles
    shift = seed % per_cycle
    nominal = model.nominal()
    frames = np.zeros((total, N_JOINTS))

    if gait in ("walk", "run"):
        hip0, knee0 = nominal[0], nominal[1]
        for k in range(total):
            phi = 2.0 * math.pi * ((k + shift) % per_cycle) / per_cycle
            for side, ph in ((0, 0.0), (1, math.pi)):
                hip = hip0 + params.hip_amplitude * math.sin(phi + ph)
                knee = knee0 - params.knee_amplitude * _hump(phi + ph + 0.4)
                frames[k, 3 * side : 3 * side + 3] = (hip, knee, -(hip + knee))
    elif gait == "high_knees":
        # solve the swing-hip apex so the knee reaches the lift target exactly
        stand = model.standing_height()
        c = (stand - params.knee_lift_target) / model.thigh_len
        if not -1.0 < c < 1.0:
            raise ValueError("knee lift target unreachable for this model")
        hip_apex = math.acos(c)
        hip0, knee0 = nominal[0], nominal[1]
        for k in range(total):
            phi = 2.0 * math.pi * ((k + shift) % per_cycle) / per_cycle
            for side, ph in ((0, 0.0), (1, math.pi)):
                lift = _hump(phi + ph)
                hip = hip0 + (hip_apex - hip0) * lift
                knee = knee0 - params.knee_amplitude * lift
                frames[k, 3 * side : 3 * side + 3] = (hip, knee, -(hip + knee))
    else:  # squat
        # symmetric crouch whose stance drop equals the target height exactly
        c = (params.squat_height_target - model.foot_len) / (
            model.thigh_len + model.shin_len
        )
        if not 0.0 < c < 1.0:
            raise ValueError("squat height target unreachable for this model")
        bend = math.acos(c)
        for k in range(total):
            phi = 2.0 * math.pi * ((k + shift) % per_cycle) / per_cycle
            for side, ph in ((0, 0.0), (1, math.pi)):
                lift = _hump(phi + ph)
                hip = bend + params.squat_wobble * lift
                knee = -2.0 * bend - params.squat_wobble * lift
                frames[k, 3 * side : 3 * side + 3] = (hip, knee, -(hip + knee))

    _check_limits(frames, model)
    return ReferenceClip(
        gait_id=GAIT_IDS[gait],
        frames=frames,
        frame_rate=params.frame_rate,
        name=gait,
    )


def window_stream(frames: np.ndarray) -> np.ndarray:
    """All stride-1 sliding windows of ``WINDOW_LEN`` frames, each flattened
    oldest-frame-first.

    Returns an empty [0, WINDOW_LEN * n] array for sources shorter than that.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be [T, n_joints]")
    T, n = frames.shape
    if T < WINDOW_LEN:
        return np.zeros((0, WINDOW_LEN * n))
    out = np.empty((T - WINDOW_LEN + 1, WINDOW_LEN * n))
    for i in range(T - WINDOW_LEN + 1):
        out[i] = frames[i : i + WINDOW_LEN].ravel()
    return out


def default_clip_set(
    params: ClipParams | None = None,
    seed: int = 0,
    model: BipedModel | None = None,
) -> dict[int, list[ReferenceClip]]:
    """One clip library per gait id; gait 0 holds both walk and run clips."""
    clips: dict[int, list[ReferenceClip]] = {i: [] for i in range(N_GAITS)}
    for name in ("walk", "run", "high_knees", "squat"):
        clip = gen_reference_clip(name, params, seed, model)
        clips[clip.gait_id].append(clip)
    return clips


def reference_windows(
    clips: dict[int, list[ReferenceClip]]
) -> dict[int, np.ndarray]:
    """Precomputed training windows per gait id."""
    return {
        gid: np.concatenate([window_stream(c.frames) for c in cs])
        if cs
        else np.zeros((0, WINDOW_LEN * N_JOINTS))
        for gid, cs in clips.items()
    }
