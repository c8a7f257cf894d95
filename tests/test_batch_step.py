"""The batched control step against the per-env float references, bit for bit.

An ``EnvBatch`` of 8 envs runs 300 control steps beside one ``RefEnv`` per
env (``tests/oracles.py``: array state, array physics, a deque of scans, the
observation assembled row by row) and the per-env float rewards.  Each step
compares, as bytes: every env's state row and its last three actions, its
termination and distance, its observation row, and every raw and weighted
reward term with ``r_l``, ``r_s``, ``r_g`` and the total.  The episodes
cycle through all five terrain kinds, under identity and randomized DR;
short episodes and small actions make timeouts, large ones falls, and three
envs are poked non-finite so they diverge.  A standalone env (a batch of
one) follows env 2 with the same draws and must equal its row of the batch.
Three smaller cases hold the sensing pass to the reference: a blind batch,
scan delays of several steps joining a running batch (its scan queue padded
mid-run), and a start over scattered rows sensed in the same pass as
stepped rows.  An env's observation is read from its row of the batch
(``env.bundle``, ``batch.rows``); a bundle read right after its step keeps
that step, and a step's result holds nothing of its batch.
"""

from __future__ import annotations

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from gaitrl.biped import ACTION, N_JOINTS, BipedModel
from gaitrl.env import (
    CommandState,
    DRConfig,
    EnvBatch,
    EnvConfig,
    TerrainEnv,
    one_hot,
    sample_dr,
)
from gaitrl.rewards import RewardConfig, gait_rewards, locomotion_rewards, total_reward
from gaitrl.terrain import TERRAIN_KINDS, generate_terrain

from oracles import RefEnv, ref_gait_rewards, ref_locomotion_rewards, ref_total_reward

MODEL = BipedModel()
N, STEPS, SOLO = 8, 300, 2
# the actions' scale per env: even envs stand (and time out), odd ones flail
SCALE = np.where(np.arange(N) % 2 == 0, 0.2, 1.5)[:, None]
# (step, env, state field, value): the pokes that make an env diverge
POKES = ((40, 3, "vx", math.nan), (150, 5, "pitch_rate", math.inf), (220, 0, "z", -math.inf))


def bits(v) -> bytes:
    return np.float64(v).tobytes()


def scores(batch, style, cfg):
    """The library's rewards of every env in ``batch``; a numpy warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loco = locomotion_rewards(batch.state, batch.commands(), cfg, MODEL)
        return total_reward(loco, style, gait_rewards(batch.state, batch.gaits(), cfg), cfg)


def ref_scores(ref, style, cfg):
    loco = ref_locomotion_rewards(ref.state, ref.commands, ref.last_action, ref.prev_action,
                                  ref.prev2_action, cfg, MODEL)
    return ref_total_reward(loco, style, ref_gait_rewards(ref.state, ref.commands.gait, cfg), cfg)


def assert_same_env(batch, i, ref, res, ref_res):
    termination, distance = ref_res
    assert res.termination == termination
    assert bits(res.distance) == bits(distance)
    assert batch.state[i, :ACTION].tobytes() == ref.state.row[:ACTION].tobytes()
    actions = np.concatenate([ref.last_action, ref.prev_action, ref.prev2_action])
    assert batch.state[i, ACTION:].tobytes() == actions.tobytes()
    assert batch.rows[i].tobytes() == ref.row.tobytes()


def assert_same_scores(bd, i, ref_bd, diverged):
    if diverged:
        for a in (bd.raw[i], bd.weighted[i], bd.r_l[i], bd.r_s[i], bd.r_g[i], bd.total[i]):
            assert not np.any(a), "a diverged row scores zero"
        return
    assert bd.names == tuple(ref_bd.raw) == tuple(ref_bd.weighted)
    for c, name in enumerate(bd.names):
        assert bits(bd.raw[i, c]) == bits(ref_bd.raw[name]), name
        assert bits(bd.weighted[i, c]) == bits(ref_bd.weighted[name]), name
    for name in ("r_l", "r_s", "r_g", "total"):
        assert bits(getattr(bd, name)[i]) == bits(getattr(ref_bd, name)), name


@pytest.mark.parametrize("dr_enabled", [False, True])
def test_the_batched_step_is_the_per_env_float_step(dr_enabled):
    cfg = EnvConfig(max_episode_s=0.6)
    rcfg = RewardConfig()
    batch = EnvBatch(MODEL, cfg, N)
    envs = [TerrainEnv(seed=100 + i, batch=batch) for i in range(N)]
    refs = [RefEnv(MODEL, cfg, 100 + i) for i in range(N)]
    solo = TerrainEnv(MODEL, cfg, seed=100 + SOLO)
    rng = np.random.default_rng(17 + dr_enabled)
    episodes = [0] * N
    seen = dict.fromkeys(("timeout", "diverged", "fall"), 0)
    kinds = set()

    def start(i):
        kind = TERRAIN_KINDS[(i + episodes[i]) % len(TERRAIN_KINDS)]
        kinds.add(kind)
        episodes[i] += 1
        terrain = generate_terrain(kind, float(rng.uniform(0.2, 0.9)), int(rng.integers(2**31)))
        dr = sample_dr(rng, dr_enabled)
        cmd = CommandState(float(rng.uniform(0.2, 1.0)), float(rng.uniform(-0.5, 0.5)),
                           one_hot(int(rng.integers(0, 3)), 3))
        envs[i].reset(terrain, dr, cmd)
        bundle = envs[i].bundle
        assert bundle.row.tobytes() == refs[i].reset(terrain, dr, cmd).tobytes()
        if i == SOLO:
            solo.reset(terrain, dr, cmd)
            assert solo.bundle.row.tobytes() == bundle.row.tobytes()

    for i in range(N):
        start(i)
    handed_out = []  # (bundle or rows, their bytes when handed out)
    for t in range(STEPS):
        if t % 37 == 5:  # a gait drawn mid-episode
            i, gait = t % N, one_hot(int(rng.integers(0, 3)), 3)
            envs[i].set_gait(gait)
            refs[i].set_gait(gait)
            if i == SOLO:
                solo.set_gait(gait)
        rows = batch.rows
        handed_out.append((rows, rows.tobytes()))
        for step, i, field, value in POKES:
            if step == t:
                for st in (envs[i].state, refs[i].state) + ((solo.state,) if i == SOLO else ()):
                    setattr(st, field, value)
        actions = rng.uniform(-1.0, 1.0, (N, N_JOINTS)) * SCALE
        results = [env.step(a) for env, a in zip(envs, actions)]
        solo_res = solo.step(actions[SOLO])
        ref_results = [ref.step(a) for ref, a in zip(refs, actions)]
        for i in range(N):
            assert_same_env(batch, i, refs[i], results[i], ref_results[i])
        handed_out.append((envs[1].bundle, envs[1].bundle.row.tobytes()))

        style = rng.uniform(0.0, 1.0, N)
        bd = scores(batch, style, rcfg)
        diverged = np.array([res.termination == "diverged" for res in results])
        bd.clear(diverged)
        for i in range(N):
            assert_same_scores(bd, i, ref_scores(refs[i], style[i], rcfg), diverged[i])

        # the batch of one is env SOLO's row of the batch
        assert solo_res.termination == results[SOLO].termination
        assert solo.batch.state.tobytes() == batch.state[SOLO].tobytes()
        assert solo.bundle.row.tobytes() == envs[SOLO].bundle.row.tobytes()
        solo_bd = scores(solo.batch, style[SOLO:SOLO + 1], rcfg)
        solo_bd.clear(diverged[SOLO:SOLO + 1])
        for name in ("raw", "weighted", "r_l", "r_s", "r_g", "total"):
            assert getattr(solo_bd, name)[0].tobytes() == getattr(bd, name)[SOLO].tobytes()

        for i, res in enumerate(results):
            if res.termination in seen:
                seen[res.termination] += 1
            if res.done:
                start(i)
    for item, data in handed_out:
        got = item.row if hasattr(item, "row") else item
        assert got.tobytes() == data, "a bundle changed after it was handed out"
    assert kinds == set(TERRAIN_KINDS)
    assert seen["diverged"] == len(POKES) and seen["timeout"] > 0 and seen["fall"] > 0, seen


def test_a_bundle_read_right_after_its_step_keeps_that_step():
    terrain = generate_terrain("rough", 0.5, seed=3)
    start = (terrain, DRConfig(scan_noise=0.02), CommandState(0.5, 0.0, np.zeros(3)))
    env, ref = TerrainEnv(MODEL, EnvConfig(), seed=1), RefEnv(MODEL, EnvConfig(), 1)
    env.reset(*start)
    ref.reset(*start)
    bundles, rows = [], []
    for a in (np.zeros(N_JOINTS), np.full(N_JOINTS, 0.3), np.full(N_JOINTS, -0.2)):
        env.step(a)
        bundles.append(env.bundle)
        ref.step(a)
        rows.append(ref.row)
    env.state.vx = math.nan  # the next step diverges and shows the last row
    assert env.step(np.zeros(N_JOINTS)).termination == "diverged"
    bundles.append(env.bundle)
    rows.append(rows[-1])
    env.reset(*start)
    assert [b.row.tobytes() for b in bundles] == [row.tobytes() for row in rows]


def test_a_result_does_not_keep_its_batch_alive():
    env = TerrainEnv(MODEL, EnvConfig(), seed=1)
    env.reset(generate_terrain("flat", 0.0, seed=0), DRConfig(), CommandState(0.5, 0.0, np.zeros(3)))
    batch = weakref.ref(env.batch)
    res = env.step(np.zeros(N_JOINTS))
    del env
    gc.collect()
    assert batch() is None
    assert (res.termination, res.done) == ("none", False)


# -- sensing cases: each compared as bytes against one RefEnv per env -------------


def lockstep(cfg, n, seed):
    batch = EnvBatch(MODEL, cfg, n)
    envs = [TerrainEnv(seed=seed + i, batch=batch) for i in range(n)]
    return batch, envs, [RefEnv(MODEL, cfg, seed + i) for i in range(n)]


def start_beside(env, ref, terrain, dr, cmd):
    """Start ``env`` and ``ref`` on the same episode; ``ref``'s first row (``env``'s, unread)."""
    env.reset(terrain, dr, cmd)
    return ref.reset(terrain, dr, cmd)


def test_a_blind_batch_is_the_per_env_step():
    cfg = EnvConfig(blind=True, max_episode_s=0.4)
    n = 4
    batch, envs, refs = lockstep(cfg, n, 300)
    rng = np.random.default_rng(5)

    def start(i):
        terrain = generate_terrain(("rough", "step")[i % 2], 0.6, int(rng.integers(2**31)))
        row = start_beside(envs[i], refs[i], terrain, sample_dr(rng),
                           CommandState(0.5, 0.0, one_hot(i % 3, 3)))
        assert envs[i].bundle.row.tobytes() == row.tobytes()

    for i in range(n):
        start(i)
    ends = 0
    for _ in range(60):
        actions = rng.uniform(-1.0, 1.0, (n, N_JOINTS)) * 0.3
        results = [env.step(a) for env, a in zip(envs, actions)]
        ref_results = [ref.step(a) for ref, a in zip(refs, actions)]
        for i in range(n):
            assert_same_env(batch, i, refs[i], results[i], ref_results[i])
            if results[i].done:
                ends += 1
                start(i)
    assert ends > 0


def test_scan_delays_of_several_steps_join_a_running_batch():
    # delays of 0 and 1 step (the DR range) first, then 2 to 5 steps
    # (scan_delay_ms 16 to 40), each making the batch pad its scan queue
    cfg = EnvConfig(max_episode_s=0.5)
    n = 6
    batch, envs, refs = lockstep(cfg, n, 400)
    rng = np.random.default_rng(9)
    joins = {4: (1, 16.0), 9: (3, 40.0), 13: (4, 24.0), 14: (5, 32.0), 20: (0, 8.0)}
    delays = set()

    def start(i, delay_ms):
        dr = DRConfig(scan_noise=0.02 * (i % 2), scan_bias=0.1 * (i % 3 == 0), scan_delay_ms=delay_ms)
        delays.add(dr.scan_delay_steps())
        terrain = generate_terrain("rough", 0.8, int(rng.integers(2**31)))
        row = start_beside(envs[i], refs[i], terrain, dr, CommandState(0.5, 0.0, np.zeros(3)))
        assert envs[i].bundle.row.tobytes() == row.tobytes()

    for i in range(n):
        start(i, 8.0 * (i % 2))
    queue_lengths = [batch.scan_queue.shape[1]]
    for t in range(40):
        if t in joins:
            start(*joins[t])
            queue_lengths.append(batch.scan_queue.shape[1])
        actions = rng.uniform(-1.0, 1.0, (n, N_JOINTS)) * 0.2
        results = [env.step(a) for env, a in zip(envs, actions)]
        ref_results = [ref.step(a) for ref, a in zip(refs, actions)]
        for i in range(n):
            assert_same_env(batch, i, refs[i], results[i], ref_results[i])
            if results[i].done:
                start(i, 8.0 * i)
    assert delays >= {0, 1, 2, 3, 4, 5}
    assert queue_lengths == [3, 4, 7, 7, 7, 7]


def test_a_start_over_scattered_rows_shares_a_pass_with_stepped_rows():
    cfg = EnvConfig(max_episode_s=0.5)
    n = 8
    batch, envs, refs = lockstep(cfg, n, 500)
    rng = np.random.default_rng(11)

    def episode():
        terrain = generate_terrain(TERRAIN_KINDS[int(rng.integers(1, 5))], 0.5,
                                   int(rng.integers(2**31)))
        return terrain, sample_dr(rng), CommandState(0.6, 0.1, one_hot(int(rng.integers(3)), 3))

    for i in range(n):
        row = start_beside(envs[i], refs[i], *episode())
        assert envs[i].bundle.row.tobytes() == row.tobytes()
    for t in range(12):
        # after a pass, some envs start again and the rest step: one pass senses both
        batch.rows
        restart = {1 + t % 2, 4, 6 + t % 2}
        started, stepped = {}, {}
        for i in range(n):
            if i in restart:
                started[i] = start_beside(envs[i], refs[i], *episode())
            else:
                a = rng.uniform(-1.0, 1.0, N_JOINTS) * 0.3
                stepped[i] = envs[i].step(a), refs[i].step(a)
        rows = batch.rows
        for i, row in started.items():
            assert envs[i].bundle.row.base is rows
            assert envs[i].bundle.row.tobytes() == row.tobytes()
        for i, (res, ref_res) in stepped.items():
            assert envs[i].bundle.row.base is rows
            assert_same_env(batch, i, refs[i], res, ref_res)
            if res.done:
                start_beside(envs[i], refs[i], *episode())
