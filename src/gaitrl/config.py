"""Structured run configuration: one JSON file drives everything.

Every section maps onto the dataclass that owns those knobs (``TerrainConfig``
lives in terrain.py, ``EnvConfig`` in env.py), and no field repeats another.
Loading is strict (unknown keys are errors, so typos cannot silently fall
back to defaults) and the resolved config has a canonical JSON form whose
SHA-256 is stamped into reports and checkpoints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar

from .biped import BipedModel
from .codec import decode, encode, write_json
from .env import EnvConfig
from .policy import PolicyArch, PolicyMode
from .ppo import PPOConfig
from .refmotion import N_GAITS, ClipParams
from .rewards import RewardConfig
from .terrain import TerrainConfig

CONFIG_FORMAT_VERSION = 1


@dataclass
class CommandConfig:
    v_range: tuple[float, float] = (0.2, 1.0)
    w_range: tuple[float, float] = (-0.5, 0.5)

    def __post_init__(self):
        # each episode draws its commands uniformly from [low, high]
        for name in ("v_range", "w_range"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must have low <= high, got [{low}, {high}]")


@dataclass
class AmpConfig:
    alpha_gp: float = 10.0
    disc_hidden: tuple[int, ...] = (64, 32)
    disc_lr: float = 3e-4
    buffer_size: int = 4096
    batch_size: int = 256
    updates_per_iter: int = 1

    def __post_init__(self):
        for name in ("disc_lr", "buffer_size", "batch_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class GaitConfig:
    period_s: float = 4.0
    distribution: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    clip_params: ClipParams = field(default_factory=ClipParams)
    clip_seed: int = 0

    def __post_init__(self):
        if not self.period_s > 0.0:
            raise ValueError("period_s must be positive")
        # each rollout worker (trainer.EnvWorker) draws gaits with
        # probabilities distribution / sum
        if any(not p >= 0.0 for p in self.distribution):
            raise ValueError("distribution must have no negative entry")
        if not sum(self.distribution) > 0.0:
            raise ValueError("distribution must have a positive sum")


@dataclass
class CurriculumConfig:
    enabled: bool = True
    promote: float = 0.8
    demote: float = 0.4
    delta: float = 0.1
    init_difficulty: float = 0.0

    def __post_init__(self):
        # every env starts at init_difficulty, a terrain's difficulty lies in
        # [0, 1], and a promotion raises it by delta
        if not 0.0 <= self.init_difficulty <= 1.0:
            raise ValueError("init_difficulty must be in [0, 1]")
        if not self.delta >= 0.0:
            raise ValueError("delta must be non-negative")
        # an episode at or above promote promotes, one at or below demote demotes
        if not self.promote > self.demote:
            raise ValueError(f"promote ({self.promote}) must be above demote ({self.demote})")


@dataclass
class BenchConfig:
    trials: int = 200
    timeout_s: float = 40.0
    goal_m: float = 14.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass
class TrainConfig:
    dr_enabled: bool = True
    checkpoint_every: int = 100
    divergence_floor: float = 0.2  # of the max tracking term
    divergence_patience: int = 80
    divergence_warmup: int = 120

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")


@dataclass
class RunConfig:
    format_version: ClassVar[int] = CONFIG_FORMAT_VERSION
    model: BipedModel = field(default_factory=BipedModel)
    env: EnvConfig = field(default_factory=EnvConfig)
    terrain: TerrainConfig = field(default_factory=TerrainConfig)
    commands: CommandConfig = field(default_factory=CommandConfig)
    arch: PolicyArch = field(default_factory=PolicyArch)
    mode: PolicyMode = field(default_factory=PolicyMode)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    amp: AmpConfig = field(default_factory=AmpConfig)
    gaits: GaitConfig = field(default_factory=GaitConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.mode.stage != 1:  # the training command sets a run's stage
            raise ValueError(f"mode.stage is {self.mode.stage}; the training command sets the stage")
        # one gait count across sections, within the reference gaits
        n = self.env.n_gaits
        if not 1 <= n <= N_GAITS:
            raise ValueError(f"env.n_gaits must be in [1, {N_GAITS}] (the reference gaits), got {n}")
        if len(self.gaits.distribution) != n:
            raise ValueError(
                f"gaits.distribution has {len(self.gaits.distribution)} values, "
                f"but env.n_gaits is {n}"
            )


def config_to_dict(cfg: RunConfig) -> dict:
    return encode(cfg)


def config_from_dict(data: dict) -> RunConfig:
    """The config ``data`` describes; a key it leaves out (``format_version``
    too) takes its default, and ``RewardConfig`` completes a partial
    ``rewards.weights`` table."""
    return decode(RunConfig, {"format_version": CONFIG_FORMAT_VERSION, **data})


def canonical_json(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def load_config(path) -> RunConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


def save_config(cfg: RunConfig, path) -> None:
    write_json(path, cfg, indent=2)


# each documented ablation and its edit: a partial config merged section by section
ABLATIONS = {
    "more2": {"mode": {"n_experts": 2}},
    "more3": {"mode": {"n_experts": 3}},
    "more4": {"mode": {"n_experts": 4}},
    "more-a": {"mode": {"residual_fusion": "action"}},
    "more-os": {"mode": {"one_stage": True}},
    "blind": {"env": {"blind": True}},
}


def apply_ablation(cfg: RunConfig, ablation: str | None) -> RunConfig:
    """A copy of ``cfg`` with ``ablation``'s edit; ``cfg`` itself when there is none."""
    if not ablation:
        return cfg
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation: {ablation!r}")
    doc = config_to_dict(cfg)
    for section, values in ABLATIONS[ablation].items():
        doc[section].update(values)
    return config_from_dict(doc)
