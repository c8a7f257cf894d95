"""Train stage 1 on flat terrain and print how much the reward rises, per seed.

    PYTHONPATH=src python tests/learning_probe.py [--seeds 101 102 ...]

Each seed trains a default stage-1 policy on flat terrain at 32 envs for 30
iterations (a few minutes for the five default seeds on one core) and
writes no file.  Under ``pipeline_digest.py``'s stack line, one line per
seed gives the mean ``mean_total_reward`` of the first 5 and of the last 5
iterations, and their difference.  Run it against two checkouts (through
``PYTHONPATH``) to compare what a change does to learning: a change whose
rise falls short on a seed says so there, whatever the digests say.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse

from gaitrl.config import RunConfig
from gaitrl.trainer import Trainer

from pipeline_digest import stack

SEEDS = (101, 102, 103, 104, 105)
N_ENVS = 32
ITERATIONS = 30
WINDOW = 5


def probe_config() -> RunConfig:
    cfg = RunConfig()
    cfg.terrain.kinds = ("flat",)
    cfg.ppo.n_envs = N_ENVS
    return cfg


def reward_rise(seed: int) -> tuple[float, float]:
    """The mean ``mean_total_reward`` of the first and of the last ``WINDOW`` iterations."""
    history = Trainer(probe_config(), seed, stage=1).run(ITERATIONS)
    rewards = [entry["mean_total_reward"] for entry in history]
    return sum(rewards[:WINDOW]) / WINDOW, sum(rewards[-WINDOW:]) / WINDOW


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args()
    print(stack(), flush=True)
    for seed in args.seeds:
        first, last = reward_rise(seed)
        print(f"seed {seed} first {first:.4f} last {last:.4f} rise {last - first:+.4f}", flush=True)


if __name__ == "__main__":
    main()
