"""Synthetic reference motion clips and sliding joint-angle windows.

Parametric generators replace motion capture at desk scale: each gait is a
periodic joint-angle trajectory built so its defining feature is exact by
construction (crouch depth from the stance leg, swing-knee apex from the
swing hip), which lets tests check the clips with plain forward kinematics.

Walk and run share gait id 0; a single style model covers both speeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .biped import N_JOINTS, BipedModel, leg_points

CLIP_FORMAT_VERSION = 1

GAIT_IDS = {"walk": 0, "run": 0, "high_knees": 1, "squat": 2}
GAIT_NAMES = ("walk_run", "high_knees", "squat")
N_GAITS = 3

WINDOW_LEN = 5


@dataclass
class ClipParams:
    stride_freq: float = 1.4  # Hz
    hip_amplitude: float = 0.4  # rad, walk/run swing
    knee_amplitude: float = 0.55  # rad, swing flexion on top of nominal
    knee_lift_target: float = 0.58  # m, high-knees swing-knee apex
    squat_height_target: float = 0.68  # m, crouch-walk base height
    squat_wobble: float = 0.12  # rad, crouch-walk leg modulation
    n_cycles: int = 4
    frame_rate: float = 50.0


@dataclass
class ReferenceClip:
    gait_id: int
    frames: np.ndarray  # [T, n_joints] rad
    frame_rate: float
    name: str = ""

    @property
    def duration(self) -> float:
        return len(self.frames) / self.frame_rate

    def to_json_dict(self) -> dict:
        return {
            "format_version": CLIP_FORMAT_VERSION,
            "gait_id": self.gait_id,
            "frame_rate": self.frame_rate,
            "name": self.name,
            "frames": [[float(v) for v in row] for row in self.frames],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReferenceClip":
        if d.get("format_version") != CLIP_FORMAT_VERSION:
            raise ValueError(f"unsupported clip version: {d.get('format_version')}")
        return cls(
            gait_id=d["gait_id"],
            frames=np.array(d["frames"], dtype=np.float64),
            frame_rate=d["frame_rate"],
            name=d.get("name", ""),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ReferenceClip":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def implied_base_height(frame: np.ndarray, model: BipedModel) -> float:
    """Base-above-ground height if the lowest foot of this frame touches down."""
    drop = -np.inf
    for side in (0, 1):
        _, _, (fx, fz) = leg_points(model, 0.0, 0.0, 0.0, frame[3 * side : 3 * side + 3])
        drop = max(drop, -fz)
    return drop


def swing_knee_height(frame: np.ndarray, model: BipedModel) -> float:
    """Height of the higher knee above ground for a grounded frame."""
    base = implied_base_height(frame, model)
    best = -np.inf
    for side in (0, 1):
        hip = frame[3 * side]
        knee_z = base - model.thigh_len * math.cos(hip)
        best = max(best, knee_z)
    return best


def _hump(phase: float) -> float:
    # one-sided squared sinusoid: swing shaping, exactly zero half the cycle
    s = math.sin(phase)
    return s * s if s > 0.0 else 0.0


def _frames_per_cycle(params: ClipParams) -> int:
    n = int(round(params.frame_rate / params.stride_freq))
    if n < 4:
        raise ValueError("stride frequency too high for the frame rate")
    return n


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
    if gait == "run":
        params = ClipParams(
            stride_freq=max(params.stride_freq * 1.6, 2.0),
            hip_amplitude=params.hip_amplitude * 1.4,
            knee_amplitude=min(params.knee_amplitude * 1.5, 1.2),
            knee_lift_target=params.knee_lift_target,
            squat_height_target=params.squat_height_target,
            n_cycles=params.n_cycles,
            frame_rate=params.frame_rate,
        )
    per_cycle = _frames_per_cycle(params)
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


def window_stream(frames: np.ndarray, width: int = WINDOW_LEN) -> np.ndarray:
    """All stride-1 sliding windows, each flattened oldest-frame-first.

    Returns an empty [0, width * n] array for sources shorter than the width.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("frames must be [T, n_joints]")
    T, n = frames.shape
    if T < width:
        return np.zeros((0, width * n))
    out = np.empty((T - width + 1, width * n))
    for i in range(T - width + 1):
        out[i] = frames[i : i + width].ravel()
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
