import tracemalloc

import numpy as np
import pytest

from gaitrl.biped import N_JOINTS, BipedModel
from gaitrl.codec import encode
from gaitrl.env import CommandState, DRConfig, EnvConfig, TerrainEnv, obs_dims, one_hot
from gaitrl.nets import Snapshot
from gaitrl.policy import ActorCritic, BundleBatch, PolicyArch, PolicyMode, gaussian_log_prob_batch
from gaitrl.ppo import (
    PPOConfig,
    RolloutBuffer,
    compute_gae,
    make_optimizers,
    ppo_loss_and_grads,
    policy_parts,
    ppo_update,
)
from gaitrl.terrain import generate_terrain
from gaitrl.trainer import keep_freed_memory

from oracles import central_diff_params, discounted_advantages, no_rewards, rel_err

MODEL = BipedModel()
TINY = PolicyArch(
    d_f=5, d_z=6, encoder_hidden=(6,), trunk_hidden=(8,), expert_hidden=(5,),
    gate_hidden=(4,), critic_hidden=(8,),
)
TINY_ENV = EnvConfig(scan_points=4, history_len=2, elev_points=3)


def collect_bundles(n, seed=0):
    env = TerrainEnv(MODEL, TINY_ENV, seed=seed)
    env.reset(
        generate_terrain("rough", 0.4, seed=seed),
        DRConfig(),
        CommandState(v_cmd=0.4, gait=one_hot(0, 3)),
    )
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        res = env.step(rng.uniform(-0.4, 0.4, N_JOINTS))
        out.append(env.bundle)
        if res.done:
            env.reset(
                generate_terrain("rough", 0.4, seed=seed),
                DRConfig(),
                CommandState(v_cmd=0.4, gait=one_hot(0, 3)),
            )
    return out


class TestComputeGAE:
    def test_gamma_zero_collapse(self):
        rng = np.random.default_rng(0)
        T = 12
        r = rng.normal(size=(T, 1))
        v = rng.normal(size=(T + 1, 1))
        d = np.zeros((T, 1))
        adv, ret = compute_gae(r, v, d, gamma=0.0, lam=0.95)
        np.testing.assert_allclose(adv, r - v[:T], atol=1e-12)
        np.testing.assert_allclose(ret, r, atol=1e-12)

    def test_fixed_point_gives_zero_advantage(self):
        gamma = 0.95
        r = np.full((20, 1), 0.5)
        v = np.full((21, 1), 0.5 / (1 - gamma))
        adv, _ = compute_gae(r, v, np.zeros((20, 1)), gamma, 0.9)
        np.testing.assert_allclose(adv, 0.0, atol=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            T = int(rng.integers(3, 30))
            gamma = float(rng.uniform(0.8, 0.999))
            lam = float(rng.uniform(0.8, 1.0))
            r = rng.normal(size=T)
            v = rng.normal(size=T + 1)
            d = (rng.random(T) < 0.15).astype(float)
            adv, ret = compute_gae(r[:, None], v[:, None], d[:, None], gamma, lam)
            expect = discounted_advantages(r, v, d, gamma, lam)
            np.testing.assert_allclose(adv[:, 0], expect, atol=1e-10)
            np.testing.assert_allclose(ret[:, 0], expect + v[:T], atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 2)), 0.9, 0.9)


def prepared_batch(policy, n=6, seed=0, stage2=False):
    bundles = collect_bundles(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    if stage2:
        bundles = [b.with_gait(one_hot(int(rng.integers(0, 3)), 3)) for b in bundles]
    mb = BundleBatch.stack(bundles)
    mean, _ = policy.actor_mean(mb)
    actions = mean + np.exp(policy.log_std) * rng.standard_normal((n, N_JOINTS))
    old_logp = gaussian_log_prob_batch(actions, mean, policy.log_std)
    adv = rng.normal(size=n)
    returns = rng.normal(size=n)
    return mb, actions, adv, returns, old_logp


class TestPPOLoss:
    def test_unchanged_params_give_ratio_one_and_equal_surrogates(self):
        policy = ActorCritic(MODEL, TINY_ENV, TINY, PolicyMode(stage=1), seed=0)
        mb, a, adv, ret, lp = prepared_batch(policy)
        _, _, stats = ppo_loss_and_grads(policy, mb, a, adv, ret, lp, PPOConfig())
        # both surrogates are the advantage: policy_loss is -mean(min(surr1, surr2))
        assert stats["policy_loss"] == pytest.approx(-np.mean(adv), abs=1e-9)
        assert stats["clip_frac"] == 0.0
        assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-9)

    def test_clipped_region_kills_policy_gradient(self):
        policy = ActorCritic(MODEL, TINY_ENV, TINY, PolicyMode(stage=1), seed=1)
        cfg = PPOConfig(clip=0.2, entropy_coef=0.0, value_coef=0.0)
        mb, a, adv, ret, lp = prepared_batch(policy, n=1, seed=2)
        adv = np.array([1.5])
        # fake an old log-prob that puts the ratio at 1 + 2*clip
        lp_shifted = lp - np.log(1.0 + 2 * cfg.clip)
        _, grads, stats = ppo_loss_and_grads(policy, mb, a, adv, ret, lp_shifted, cfg)
        # the clipped surrogate (1 + clip) * adv is the smaller one: it is the loss
        assert stats["clip_frac"] == 1.0
        assert stats["policy_loss"] == -(1.0 + cfg.clip) * adv[0]
        for name in ("trunk", "head", "scan_enc", "hist_enc"):
            assert all(np.all(ga == 0.0) for ga in grads[name]), name

    @pytest.mark.parametrize("stage2", [False, True])
    def test_full_loss_gradient_matches_finite_differences(self, stage2):
        mode = PolicyMode(stage=2 if stage2 else 1)
        policy = ActorCritic(MODEL, TINY_ENV, TINY, mode, seed=3, dtype=np.float64)
        rng = np.random.default_rng(9)
        if stage2:
            for net in [*policy.residual.experts, policy.residual.gate]:
                net.layers[-1].weight[:] = rng.normal(0, 0.3, net.layers[-1].weight.shape)
        cfg = PPOConfig(clip=0.2, entropy_coef=0.01, value_coef=0.7)
        mb, a, adv, ret, lp = prepared_batch(policy, n=5, seed=4, stage2=stage2)
        # nudge old logp so both surrogate branches appear in the batch
        lp = lp + rng.uniform(-0.1, 0.1, size=lp.shape)

        def scalar():
            loss, _, _ = ppo_loss_and_grads(policy, mb, a, adv, ret, lp, cfg)
            return loss

        _, grads, _ = ppo_loss_and_grads(policy, mb, a, adv, ret, lp, cfg)
        comps = policy.components()
        for name, gl in grads.items():
            fd = central_diff_params(scalar, comps[name])
            for analytic, numeric in zip(gl, fd):
                assert rel_err(analytic, numeric, floor=1e-6) <= 1e-4, name


class TestPPOUpdate:
    def make_buffer(self, policy, T=4, N=3, seed=0):
        """A buffer that a rollout of ``policy`` on N envs fills, with random rewards."""
        terrain = generate_terrain("rough", 0.4, seed=seed)
        reset = lambda env: env.reset(
            terrain, DRConfig(), CommandState(v_cmd=0.4, gait=one_hot(0, 3))
        )
        envs = [TerrainEnv(MODEL, TINY_ENV, seed=seed + i) for i in range(N)]
        for env in envs:
            reset(env)
        buf = RolloutBuffer(T, N, policy.dims, N_JOINTS)
        rng = np.random.default_rng(seed)
        std = np.exp(policy.log_std)
        for t in range(T):
            batch = BundleBatch.stack([env.bundle for env in envs])
            means, _ = policy.actor_mean(batch)
            values, _ = policy.critic_value(batch)
            actions = np.clip(means + std * rng.standard_normal(means.shape),
                              -MODEL.action_bound, MODEL.action_bound)
            logps = gaussian_log_prob_batch(actions, means, policy.log_std)
            dones = [env.step(a).done for env, a in zip(envs, actions)]
            for env, done in zip(envs, dones):
                if done:
                    reset(env)
            buf.add_step(t, batch, actions, logps, values, rng.normal(size=N), dones,
                         no_rewards(N))
        buf.values[T] = 0.0
        return buf

    def test_update_changes_parameters(self):
        policy = ActorCritic(MODEL, TINY_ENV, TINY, PolicyMode(stage=1), seed=5)
        cfg = PPOConfig(epochs=2, minibatch=6)
        opts = make_optimizers(policy, cfg)
        buf = self.make_buffer(policy)
        before = [p.copy() for p in policy.trunk.params()]
        metrics = ppo_update(policy, buf, cfg, opts, np.random.default_rng(0),
                             Snapshot(policy_parts(policy, opts)))
        assert "policy_loss" in metrics
        assert any(not np.array_equal(a, b) for a, b in zip(before, policy.trunk.params()))

    def test_nan_reward_aborts_and_restores(self):
        policy = ActorCritic(MODEL, TINY_ENV, TINY, PolicyMode(stage=1), seed=7)
        cfg = PPOConfig(epochs=1, minibatch=12)
        opts = make_optimizers(policy, cfg)
        buf = self.make_buffer(policy, seed=3)
        buf.rewards[1, 1] = np.nan
        before = {k: [p.copy() for p in ps] for k, ps in policy.components().items()}
        metrics = ppo_update(policy, buf, cfg, opts, np.random.default_rng(0),
                             Snapshot(policy_parts(policy, opts)))
        assert metrics.get("nan_aborted") is True
        for k, ps in policy.components().items():
            for a, b in zip(before[k], ps):
                np.testing.assert_array_equal(a, b)

    def test_nan_abort_restores_optimizer_states(self):
        policy = ActorCritic(MODEL, TINY_ENV, TINY, PolicyMode(stage=1), seed=7)
        cfg = PPOConfig(epochs=1, minibatch=3)
        opts = make_optimizers(policy, cfg)
        buf = self.make_buffer(policy, seed=3)
        # put the NaN in the last minibatch, so earlier minibatches step Adam first
        B = buf.horizon * buf.n_envs
        last = int(np.random.default_rng(0).permutation(B)[-1])
        buf.actions[last // buf.n_envs, last % buf.n_envs, 0] = np.nan
        before = {k: encode(o) for k, o in opts.items()}
        metrics = ppo_update(policy, buf, cfg, opts, np.random.default_rng(0),
                             Snapshot(policy_parts(policy, opts)))
        assert metrics.get("nan_aborted") is True
        for k, o in opts.items():
            assert encode(o) == before[k], k

    def test_log_std_stays_within_bounds(self):
        policy = ActorCritic(MODEL, TINY_ENV, TINY, PolicyMode(stage=1), seed=9)
        cfg = PPOConfig(epochs=3, minibatch=4, entropy_coef=10.0)  # huge entropy push
        opts = make_optimizers(policy, cfg)
        buf = self.make_buffer(policy, seed=5)
        ppo_update(policy, buf, cfg, opts, np.random.default_rng(0),
                   Snapshot(policy_parts(policy, opts)))
        assert np.all(policy.log_std <= TINY.log_std_max + 1e-12)
        assert np.all(policy.log_std >= TINY.log_std_min - 1e-12)


# One default-dims ppo_update (stage 1, one epoch of eight 512-row minibatches)
# peaks at 4.2 MB of traced allocations: the pre-update snapshot, a minibatch,
# and the tapes of one network at a time, all float32.  It peaked at 8.1 MB
# with float64 nets and rows, and at 17.4 MB while tapes kept every
# pre-activation, the critic's input gradient was computed and both networks'
# tapes were alive together.  The bound leaves a margin of 1.7 MB.
UPDATE_PEAK_BUDGET_MB = 5.9


def default_update(cfg):
    """A default stage-1 policy, its optimizers and a default buffer of random rows."""
    policy = ActorCritic(MODEL, EnvConfig(), PolicyArch(), PolicyMode(stage=1), seed=0)
    buf = RolloutBuffer(cfg.horizon, cfg.n_envs, policy.dims, N_JOINTS)
    rng = np.random.default_rng(0)
    for rows in (buf.o, buf.scan, buf.m, buf.e, buf.gait, buf.actions, buf.values, buf.rewards):
        rows[:] = rng.normal(size=rows.shape)
    buf.log_probs[:] = rng.normal(-5.0, 1.0, size=buf.log_probs.shape)
    buf.dones[:] = rng.random(buf.dones.shape) < 0.05
    return policy, buf, make_optimizers(policy, cfg)


def test_the_update_working_set_stays_in_its_budget():
    cfg = PPOConfig(epochs=1)
    policy, buf, opts = default_update(cfg)
    tracemalloc.start()
    try:
        stats = ppo_update(policy, buf, cfg, opts, np.random.default_rng(1),
                           Snapshot(policy_parts(policy, opts)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "nan_aborted" not in stats
    assert peak / 1e6 <= UPDATE_PEAK_BUDGET_MB


# A default buffer (64 envs x 64 steps) allocates 1.72 MB: each row stores
# ``o``, the current scan, ``m``, ``e`` and the gait command once, in float32,
# and the history and the previous scan are rebuilt from earlier rows.  The
# float64 rows took 2.97 MB, and copying history and scan into every row
# 7.34 MB.  The bound leaves a margin of 0.13 MB.
BUFFER_BUDGET_MB = 1.85


def test_a_default_buffer_stays_in_its_budget():
    tracemalloc.start()
    try:
        buf = RolloutBuffer(64, 64, obs_dims(EnvConfig()), N_JOINTS)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / 1e6 <= BUFFER_BUDGET_MB


# With the allocator's thresholds left to follow what the process freed
# before, one default stage-1 epoch took about 12,000 page faults: the
# minibatches' temporaries went back to the OS and were faulted in again.
UPDATE_FAULT_BUDGET = 2000


def test_an_update_reuses_the_memory_it_frees():
    resource = pytest.importorskip("resource")
    cfg = PPOConfig(epochs=1)
    policy, buf, opts = default_update(cfg)
    keep_freed_memory()
    ppo_update(policy, buf, cfg, opts, np.random.default_rng(1),
               Snapshot(policy_parts(policy, opts)))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ppo_update(policy, buf, cfg, opts, np.random.default_rng(2),
               Snapshot(policy_parts(policy, opts)))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= UPDATE_FAULT_BUDGET
