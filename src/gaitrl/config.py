"""Structured run configuration: one JSON file drives everything.

Every section maps onto the dataclass that owns those knobs (``TerrainConfig``
lives in terrain.py, ``EnvConfig`` in env.py), and no field repeats another.
Each field states its admissible values beside it (``codec.Bound``), which
building its section checks; ``__post_init__`` holds the cross-field rules.
Loading is strict (unknown keys are errors, so typos cannot silently fall
back to defaults) and the resolved config has a canonical JSON form whose
SHA-256 is stamped into reports and checkpoints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Annotated, ClassVar

from .biped import BipedModel
from .codec import (EACH_POSITIVE, LOW_HIGH, NON_NEGATIVE, POSITIVE, UNIT, Bound, Bounded, decode,
                    encode)
from .env import EnvConfig
from .policy import PolicyArch, PolicyMode
from .ppo import PPOConfig
from .refmotion import N_GAITS, ClipParams
from .rewards import RewardConfig
from .terrain import TerrainConfig

CONFIG_FORMAT_VERSION = 1


@dataclass
class CommandConfig(Bounded):
    # each episode draws its commands uniformly from [low, high]
    v_range: Annotated[tuple[float, float], LOW_HIGH] = (0.2, 1.0)
    w_range: Annotated[tuple[float, float], LOW_HIGH] = (-0.5, 0.5)


@dataclass
class AmpConfig(Bounded):
    alpha_gp: Annotated[float, NON_NEGATIVE] = 10.0  # 0: no gradient penalty
    disc_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = (64, 32)
    disc_lr: Annotated[float, POSITIVE] = 3e-4
    buffer_size: Annotated[int, POSITIVE] = 4096
    batch_size: Annotated[int, POSITIVE] = 256
    updates_per_iter: Annotated[int, POSITIVE] = 1


# each rollout worker (trainer.EnvWorker) draws gaits with probabilities distribution / sum
NO_NEGATIVE_ENTRY = Bound(lambda d: all(p >= 0.0 for p in d), "{name} must have no negative entry")
POSITIVE_SUM = Bound(lambda d: sum(d) > 0.0, "{name} must have a positive sum")


@dataclass
class GaitConfig(Bounded):
    period_s: Annotated[float, POSITIVE] = 4.0
    distribution: Annotated[tuple[float, ...], NO_NEGATIVE_ENTRY, POSITIVE_SUM] = (1 / 3,) * 3
    clip_params: ClipParams = field(default_factory=ClipParams)
    clip_seed: Annotated[int, NON_NEGATIVE] = 0


@dataclass
class CurriculumConfig(Bounded):
    enabled: bool = True
    # a traversal fraction at or above promote promotes, one at or below demote
    # demotes, by delta; a terrain's difficulty, init_difficulty first, lies in [0, 1]
    promote: Annotated[float, UNIT] = 0.8
    demote: Annotated[float, UNIT] = 0.4
    delta: Annotated[float, NON_NEGATIVE] = 0.1
    init_difficulty: Annotated[float, UNIT] = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not self.promote > self.demote:
            raise ValueError(f"promote ({self.promote}) must be above demote ({self.demote})")


@dataclass
class BenchConfig(Bounded):
    trials: Annotated[int, POSITIVE] = 200
    timeout_s: Annotated[float, POSITIVE] = 40.0
    goal_m: Annotated[float, POSITIVE] = 14.0


@dataclass
class TrainConfig(Bounded):
    dr_enabled: bool = True
    checkpoint_every: Annotated[int, POSITIVE] = 100
    divergence_floor: Annotated[float, UNIT] = 0.2  # of the max tracking term; 0: no guard
    divergence_patience: Annotated[int, POSITIVE] = 80
    divergence_warmup: Annotated[int, NON_NEGATIVE] = 120  # 0: guard from the first iteration


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
        # an episode starts on the track, whose length its progress is measured against
        if not self.env.spawn_x < self.terrain.track_length:
            raise ValueError(f"env.spawn_x ({self.env.spawn_x}) must lie on the track, "
                             f"below terrain.track_length ({self.terrain.track_length})")


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
