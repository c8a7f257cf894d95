"""The batch-of-one inference path against its array reference, bit for bit.

``ActorCritic.act``, ``PolicyController.act`` and ``export_residual_latents``
take views of the env's normalized row instead of stacked copies, add biases
in place and read z' from the residual's own sum; ``ActorCritic.critic_value``
reads a prefix of the rows, a strided view, instead of a contiguous
``[m, e, o, hist]`` copy.  Each must still give exactly the bytes of the
reference in tests/oracles.py, which reads contiguous copies of the blocks.

The reference checks each net's input finite; the library checks each input
once, where it enters the nets (the ``gaitrl.nets`` finite rule), and must
refuse every non-finite block the reference refuses, with the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrl.amp import discriminator_loss, make_discriminators, style_reward
from gaitrl.bench import PolicyController
from gaitrl.biped import BipedModel
from gaitrl.env import (
    CommandState,
    DRConfig,
    EnvConfig,
    ObservationBundle,
    TerrainEnv,
    obs_dims,
    obs_slices,
    one_hot,
)
from gaitrl.nets import net_forward, net_forward_rows
from gaitrl.policy import (
    ActorCritic,
    BundleBatch,
    PolicyArch,
    PolicyMode,
    export_residual_latents,
    gaussian_log_prob_batch,
)
from gaitrl.terrain import generate_terrain

from oracles import (
    env_commands,
    ref_act,
    ref_actor_mean,
    ref_controller_act,
    ref_critic_value,
    ref_residual_latents,
    ref_stack,
)

MODEL = BipedModel()
ENV_CFG = EnvConfig()
ARCH = PolicyArch()

STAGE2 = [
    (fusion, n_experts, gait_id)
    for fusion in ("latent", "action")
    for n_experts in (2, 3, 4)
    for gait_id in range(ENV_CFG.n_gaits)
]


def make_policy(stage: int, fusion: str = "latent", n_experts: int = 3, seed: int = 0,
                dtype=np.float64):
    """A policy with float64 nets unless ``dtype`` says otherwise: the checks
    run on float64 instances of the code, and a few on the float32 nets too."""
    mode = PolicyMode(stage=stage, residual_fusion=fusion, n_experts=n_experts)
    pol = ActorCritic(MODEL, ENV_CFG, ARCH, mode, seed=seed, dtype=dtype)
    pol.log_std[:] = np.linspace(-1.0, 0.5, len(pol.log_std))
    if pol.residual is not None:
        # the expert and gate output layers start at zero; give them weights
        rng = np.random.default_rng(seed + 100)
        for net in (*pol.residual.experts, pol.residual.gate):
            last = net.layers[-1]
            last.weight[:] = rng.normal(0.0, 0.3, last.weight.shape)
            last.bias[:] = rng.normal(0.0, 0.1, last.bias.shape)
    return pol


def env_bundles(n: int = 6, seed: int = 0):
    env = TerrainEnv(MODEL, ENV_CFG, seed=seed)
    env.reset(
        generate_terrain("rough", 0.6, seed=seed),
        DRConfig(scan_noise=0.03, scan_bias=0.05),
        CommandState(v_cmd=0.7, gait=one_hot(1, 3)),
    )
    rng = np.random.default_rng(seed)
    bundles = [env.bundle]
    for _ in range(n - 1):
        res = env.step(rng.uniform(-1.0, 1.0, 6))
        bundles.append(env.bundle)
        if res.done:
            break
    return env, bundles


SLICES = obs_slices(obs_dims(ENV_CFG))


def random_bundle(seed: int, scale: float) -> ObservationBundle:
    """A normalized row of random blocks, with no gait command."""
    row = scale * np.random.default_rng(seed).standard_normal(SLICES["scans"].stop)
    row[SLICES["gait"]] = 0.0
    return ObservationBundle(row, SLICES)


def same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_act_matches(pol, bundle, gait):
    """``act`` and the batch-of-one forward pass give the reference's bytes;
    the reference reads ``gait`` beside the bundle, the policy in it."""
    if gait is not None:
        bundle = bundle.with_gait(gait)
    ref_action, _, *ref = ref_act(pol, bundle, gait, deterministic=True)
    assert same(pol.act(bundle), ref_action), "action"
    mean, cache = pol.actor_mean(BundleBatch.stack([bundle]))
    z_prime = gate_w = None
    if cache.residual is not None:
        z_prime, gate_w = cache.residual.z[0], cache.residual.weights[0]
    got = (mean[0], cache.z_o[0], z_prime, gate_w)
    for name, a, b in zip(("mean", "z_o", "z_prime", "gate_w"), got, ref):
        assert same(a, b), name


def assert_log_prob_matches(pol, bundle, gait, rng_seed):
    """The log-density of a sampled action: ``gaussian_log_prob_batch`` on a
    batch of one gives ``ref_gaussian_log_prob``'s bytes."""
    action, logp, mean, *_ = ref_act(pol, bundle, gait, rng=np.random.default_rng(rng_seed))
    got = gaussian_log_prob_batch(action[None], mean[None], pol.log_std)[0]
    assert same(float(got), logp)


DTYPES = [np.float64, np.float32]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("rng_seed", [None, 5])
def test_stage1_act_matches_reference(rng_seed, dtype):
    pol = make_policy(1, dtype=dtype)
    _, bundles = env_bundles()
    for b in bundles:
        assert_act_matches(pol, b, None)
        if rng_seed is not None:
            assert_log_prob_matches(pol, b, None, rng_seed)


@pytest.mark.parametrize("fusion,n_experts,gait_id", STAGE2)
def test_stage2_act_matches_reference(fusion, n_experts, gait_id):
    pol = make_policy(2, fusion, n_experts, seed=n_experts)
    _, bundles = env_bundles(seed=gait_id)
    gait = one_hot(gait_id, ENV_CFG.n_gaits)
    for b in bundles:
        assert_act_matches(pol, b, gait)
        assert_log_prob_matches(pol, b, gait, rng_seed=gait_id)


@pytest.mark.parametrize("fusion", ["latent", "action"])
@pytest.mark.parametrize("gait_id", [None, 0, 2])
def test_controller_act_matches_reference(fusion, gait_id):
    pol = make_policy(2, fusion, 3, seed=1)
    controller = PolicyController(pol, gait_id=gait_id)
    env, bundles = env_bundles()
    for b in bundles:
        gait = controller.gait
        assert same(
            controller.act(b, env.state),
            ref_controller_act(pol, gait, b, env_commands(env)),
        )


def test_controller_clips_like_np_clip():
    pol = make_policy(1)
    pol.head.layers[-1].bias[:] = [9.0, -9.0, 0.0, np.nan, 4.0, -4.0]
    pol.head.layers[-1].weight[:] = 0.0
    env, (b, *_) = env_bundles(1)
    with np.errstate(invalid="ignore"):  # the reference's log-probability of the NaN row
        got = PolicyController(pol).act(b, env.state)
        assert same(got, ref_controller_act(pol, None, b, env_commands(env)))
    assert np.isnan(got[3])
    assert got[[0, 1, 2, 4, 5]].tolist() == [4.0, -4.0, 0.0, 4.0, -4.0]


@pytest.mark.parametrize("fusion,n_experts", [("latent", 2), ("latent", 4), ("action", 3)])
def test_export_residual_latents_matches_reference(fusion, n_experts):
    pol = make_policy(2, fusion, n_experts, seed=7)
    _, bundles = env_bundles(seed=3)
    samples = [
        (b, one_hot(i % ENV_CFG.n_gaits, ENV_CFG.n_gaits), f"kind{i % 2}") for i, b in enumerate(bundles)
    ]
    table = export_residual_latents(
        pol, [(b.with_gait(gait), kind) for b, gait, kind in samples]
    )
    z, w, gaits, kinds = ref_residual_latents(pol, samples)
    assert same(table.z_prime, z)
    assert same(table.gate_w, w)
    assert same(table.gait_labels, gaits)
    assert table.terrain_labels == kinds


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stage", [1, 2])
def test_batched_actor_mean_matches_reference(stage, dtype):
    # the training path: a stacked batch of several bundles
    pol = make_policy(stage, seed=2, dtype=dtype)
    _, bundles = env_bundles()
    gaits = None
    if stage == 2:
        gaits = np.stack([one_hot(i % 3, 3) for i in range(len(bundles))])
        bundles = [b.with_gait(g) for b, g in zip(bundles, gaits)]
    batch = BundleBatch.stack(bundles)
    mean, cache = pol.actor_mean(batch)
    ref_mean, ref_z_o, res = ref_actor_mean(pol, ref_stack(bundles), gaits)
    assert same(mean, ref_mean)
    assert same(cache.z_o, ref_z_o)
    if stage == 2:
        assert same(cache.residual.weights, res[0])


POLICIES = {fusion: make_policy(2, fusion, 3, seed=11) for fusion in ("latent", "action")}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    gait_id=st.integers(min_value=0, max_value=2),
    fusion=st.sampled_from(["latent", "action"]),
)
def test_act_matches_reference_on_any_finite_bundle(seed, scale, gait_id, fusion):
    pol = POLICIES[fusion]
    bundle = random_bundle(seed, scale)
    gait = one_hot(gait_id, ENV_CFG.n_gaits)
    assert_act_matches(pol, bundle, gait)
    assert_log_prob_matches(pol, bundle, gait, rng_seed=seed)


def test_act_leaves_the_bundle_unchanged():
    pol = make_policy(2)
    _, bundles = env_bundles()
    for b in bundles:
        before = b.row.copy()
        action = pol.act(b)
        assert same(b.row, before)
        # the action is the policy's own array: writing it leaves the bundle alone
        action[:] = 123.0
        assert same(b.row, before)


def with_nan(bundle, block, at=0):
    """A copy of ``bundle`` with NaN in column ``at`` of ``block``."""
    row = bundle.row.copy()
    row[bundle.slices[block].start + at] = np.nan
    return ObservationBundle(row, bundle.slices)


@pytest.mark.parametrize("field_name", ["o", "hist", "gait", "scans"])
def test_non_finite_input_raises_the_same_error(field_name):
    pol = make_policy(2)
    _, (b, *_) = env_bundles(1)
    gait = one_hot(0, 3)
    b = with_nan(b.with_gait(gait), field_name)
    with pytest.raises(ValueError, match="^non-finite network input$"):
        pol.act(b)
    with pytest.raises(ValueError, match="^non-finite network input$"):
        ref_act(pol, b, b.gait)
    # one NaN row of a 64-row training batch refuses the whole batch
    rows = [random_bundle(seed, 1.0).with_gait(gait) for seed in range(64)]
    rows[37] = with_nan(rows[37], field_name, at=1)
    with pytest.raises(ValueError, match="^non-finite network input$"):
        pol.actor_mean(BundleBatch.stack(rows))
    with pytest.raises(ValueError, match="^non-finite network input$"):
        export_residual_latents(pol, [(random_bundle(0, 1.0).with_gait(gait), "flat"), (b, "flat")])


@pytest.mark.parametrize("field_name", ["m", "e"])
def test_the_actor_never_reads_the_privileged_blocks(field_name):
    # the actor's check covers its own blocks only: NaN in m or e acts as before
    pol = make_policy(2)
    _, (b, *_) = env_bundles(1)
    b = b.with_gait(one_hot(1, 3))
    assert same(pol.act(with_nan(b, field_name)), pol.act(b))


@pytest.mark.parametrize("stage,field_name", [
    *((1, name) for name in ("m", "e", "o", "hist")),
    *((2, name) for name in ("m", "e", "o", "hist", "gait")),
])
def test_non_finite_critic_input_raises_the_same_error(stage, field_name):
    pol = make_policy(stage, dtype=np.float32)
    _, bundles = env_bundles(3)
    gait = one_hot(2, 3)
    bundles = [b.with_gait(gait) for b in bundles]
    v, _ = pol.critic_value(BundleBatch.stack([with_nan(bundles[0], "scans")]))
    assert np.isfinite(v).all()  # the critic reads no scan
    for rows in ([bundles[0]], bundles):
        rows = [*rows[:-1], with_nan(rows[-1], field_name)]
        with pytest.raises(ValueError, match="^non-finite network input$"):
            pol.critic_value(BundleBatch.stack(rows))


def test_non_finite_discriminator_input_raises_the_same_error():
    discs = make_discriminators(3, 30, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    window = rng.normal(size=30)
    window[17] = np.nan
    with pytest.raises(ValueError, match="^non-finite network input$"):
        style_reward(window[None], [1], discs)
    real, fake = rng.normal(size=(8, 30)), rng.normal(size=(6, 30)).astype(np.float32)
    for batch in (real, fake):
        batch[3, 5] = np.inf
        with pytest.raises(ValueError, match="^non-finite network input$"):
            discriminator_loss(discs.nets[0], real, fake, alpha_gp=10.0)
        batch[3, 5] = 0.0


def count_finite_checks(monkeypatch) -> list:
    """Each ``np.isfinite`` call from now on appends to the returned list."""
    calls, isfinite = [], np.isfinite

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    return calls


def test_each_input_is_checked_finite_once(monkeypatch):
    # the nets' finite rule: one check per array that enters the nets, none
    # on what one net hands another
    pol = make_policy(2, dtype=np.float32)
    _, (b, *_) = env_bundles(1)
    b = b.with_gait(one_hot(0, 3))
    discs = make_discriminators(3, 30, np.random.default_rng(0))
    window = np.random.default_rng(1).normal(size=30).astype(np.float32)
    batch = BundleBatch.stack([b])
    calls = count_finite_checks(monkeypatch)
    pol.act(b)
    assert calls == [(1, b.slices["scans"].stop - b.slices["o"].start)]
    calls.clear()
    pol.critic_value(batch)
    assert calls == [(1, pol.critic.input_dim)]
    calls.clear()
    style_reward(window[None], [2], discs)
    assert calls == [(1, 30)]


def test_a_window_batch_with_one_nan_is_refused_after_one_check(monkeypatch):
    discs = make_discriminators(3, 30, np.random.default_rng(0))
    rng = np.random.default_rng(2)
    windows = rng.normal(size=(64, 30))
    windows[40, 7] = np.nan
    gait_ids = rng.integers(0, 3, 64)
    calls = count_finite_checks(monkeypatch)
    with pytest.raises(ValueError, match="^non-finite network input$"):
        style_reward(windows, gait_ids, discs)
    assert calls == [(64, 30)]


@pytest.mark.parametrize("dtype", DTYPES)
def test_row_forward_matches_a_batch_of_one_per_row(dtype):
    # every net of a default stage-2 policy and a default discriminator set
    pol = make_policy(2, dtype=dtype)
    discs = make_discriminators(3, 30, np.random.default_rng(3), dtype=dtype)
    r = pol.residual
    nets = [pol.scan_enc, pol.hist_enc, pol.trunk, pol.head, pol.critic, *r.experts, r.gate,
            *discs.nets]
    rng = np.random.default_rng(4)
    for net in nets:
        for layer in net.layers:
            layer.bias[:] = rng.normal(0.0, 0.1, layer.bias.shape)
        for n in (1, 2, 3, 7, 64, 129):
            x = rng.normal(0.0, 1.0, (n, net.input_dim)).astype(dtype)
            want = np.concatenate([net_forward(net, x[i : i + 1])[0] for i in range(n)])
            assert net_forward_rows(net, x).tobytes() == want.tobytes(), (net.input_dim, n)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stage", [1, 2])
def test_critic_value_matches_the_copied_privileged_row(stage, dtype):
    pol = make_policy(stage, seed=stage, dtype=dtype)
    gait = one_hot(1, ENV_CFG.n_gaits)
    _, bundles = env_bundles()
    bundles = [b.with_gait(gait) for b in (*bundles, random_bundle(3, 10.0))]
    for rows in ([bundles[0]], [bundles[-1]], bundles):
        ref_gait = np.tile(gait, (len(rows), 1)) if stage >= 2 else None
        v, _ = pol.critic_value(BundleBatch.stack(rows))
        assert same(v, ref_critic_value(pol, ref_stack(rows), ref_gait))
