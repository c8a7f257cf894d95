"""A default stage-1 ``Trainer`` starts the episodes this digest records.

The SHA-256 covers, worker by worker, what ``EnvWorker.begin_episode`` set
up: the terrain's heights and void cells, the DR vector, the commands and
the first observation row.  A change to the episode start that keeps every
byte keeps the digest, without a benchmark run.  The bytes depend on numpy
and Python, so the test skips on a stack other than the one recorded here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from gaitrl.config import RunConfig
from gaitrl.trainer import Trainer

from oracles import env_commands
from pipeline_digest import stack

RECORDED_ON = "# numpy 2.4.6, scipy-openblas 0.3.31.188.0, Python 3.11.7"
SEED = 31
DIGEST = "39aef5994c3522e6c1ffeb6ba7450d9f302d226dd82c153bbcbb63757700fd73"


def setup_digest(trainer: Trainer) -> str:
    h = hashlib.sha256()
    for w in trainer.workers:
        env, commands = w.env, env_commands(w.env)
        for a in (env.terrain.heights, env.terrain.void, env.dr.as_vector(),
                  np.array([commands.v_cmd, commands.w_cmd]), commands.gait,
                  env.bundle.row):
            h.update(a.tobytes())
    return h.hexdigest()


def test_a_default_trainer_starts_the_recorded_episodes():
    if stack() != RECORDED_ON:
        pytest.skip(f"the digest was recorded on {RECORDED_ON[2:]}; this is {stack()[2:]}")
    assert setup_digest(Trainer(RunConfig(), SEED, stage=1)) == DIGEST
