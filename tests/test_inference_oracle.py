"""The batch-of-one inference path against its array reference, bit for bit.

``ActorCritic.act``, ``PolicyController.act`` and ``export_residual_latents``
take views instead of stacked copies, slice the history normalizer instead of
tiling it, add biases in place and read z' from the residual's own sum; each
must still give exactly the bytes of the reference in tests/oracles.py.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrl.bench import PolicyController
from gaitrl.biped import BipedModel
from gaitrl.env import (
    CommandState,
    DRConfig,
    EnvConfig,
    ObservationBundle,
    TerrainEnv,
    obs_dims,
    one_hot,
)
from gaitrl.nets import encode_array
from gaitrl.policy import (
    ActorCritic,
    BundleBatch,
    ObservationNormalizer,
    PolicyArch,
    PolicyMode,
    export_residual_latents,
)
from gaitrl.terrain import generate_terrain

from oracles import (
    ref_act,
    ref_actor_mean,
    ref_controller_act,
    ref_normalizer_dict,
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
    for gait_id in range(ARCH.n_gaits)
]


def make_policy(stage: int, fusion: str = "latent", n_experts: int = 3, seed: int = 0):
    mode = PolicyMode(stage=stage, residual_fusion=fusion, n_experts=n_experts)
    pol = ActorCritic(MODEL, ENV_CFG, ARCH, mode, seed=seed)
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
    bundle = env.reset(
        generate_terrain("rough", 0.6, seed=seed),
        DRConfig(scan_noise=0.03, scan_bias=0.05),
        CommandState(v_cmd=0.7, gait=one_hot(1, 3)),
    )
    rng = np.random.default_rng(seed)
    bundles = [bundle]
    for _ in range(n - 1):
        res = env.step(rng.uniform(-1.0, 1.0, 6))
        bundles.append(res.bundle)
        if res.done:
            break
    return env, bundles


def random_bundle(seed: int, scale: float) -> ObservationBundle:
    rng = np.random.default_rng(seed)
    dims = obs_dims(ENV_CFG)
    return ObservationBundle(
        *(scale * rng.standard_normal(dims[d]) for d in ("d_o", "d_hist", "d_scan", "d_m", "d_e"))
    )


def same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_act_matches(pol, bundle, gait, rng_seed=None):
    rng_new = None if rng_seed is None else np.random.default_rng(rng_seed)
    rng_ref = None if rng_seed is None else np.random.default_rng(rng_seed)
    new = pol.act(bundle, gait, rng=rng_new, deterministic=rng_seed is None)
    ref = ref_act(pol, bundle, gait, rng=rng_ref, deterministic=rng_seed is None)
    got = (new.action, new.log_prob, new.mean, new.z_o, new.z_prime, new.gate_w)
    for name, a, b in zip(("action", "log_prob", "mean", "z_o", "z_prime", "gate_w"), got, ref):
        assert same(a, b), name


@pytest.mark.parametrize("rng_seed", [None, 5])
def test_stage1_act_matches_reference(rng_seed):
    pol = make_policy(1)
    _, bundles = env_bundles()
    for b in bundles:
        assert_act_matches(pol, b, None, rng_seed)


@pytest.mark.parametrize("fusion,n_experts,gait_id", STAGE2)
def test_stage2_act_matches_reference(fusion, n_experts, gait_id):
    pol = make_policy(2, fusion, n_experts, seed=n_experts)
    _, bundles = env_bundles(seed=gait_id)
    gait = one_hot(gait_id, ARCH.n_gaits)
    for b in bundles:
        assert_act_matches(pol, b, gait)
        assert_act_matches(pol, b, gait, rng_seed=gait_id)


@pytest.mark.parametrize("fusion", ["latent", "action"])
@pytest.mark.parametrize("gait_id", [None, 0, 2])
def test_controller_act_matches_reference(fusion, gait_id):
    pol = make_policy(2, fusion, 3, seed=1)
    controller = PolicyController(pol, gait_id=gait_id)
    env, bundles = env_bundles()
    for b in bundles:
        gait = controller.gait
        assert same(
            controller.act(b, env.commands, env.state),
            ref_controller_act(pol, gait, b, env.commands),
        )


def test_controller_clips_like_np_clip():
    pol = make_policy(1)
    pol.head.layers[-1].bias[:] = [9.0, -9.0, 0.0, np.nan, 4.0, -4.0]
    pol.head.layers[-1].weight[:] = 0.0
    env, (b, *_) = env_bundles(1)
    with np.errstate(invalid="ignore"):  # the NaN row's log-probability
        got = PolicyController(pol).act(b, env.commands, env.state)
        assert same(got, ref_controller_act(pol, None, b, env.commands))
    assert np.isnan(got[3])
    assert got[[0, 1, 2, 4, 5]].tolist() == [4.0, -4.0, 0.0, 4.0, -4.0]


@pytest.mark.parametrize("fusion,n_experts", [("latent", 2), ("latent", 4), ("action", 3)])
def test_export_residual_latents_matches_reference(fusion, n_experts):
    pol = make_policy(2, fusion, n_experts, seed=7)
    _, bundles = env_bundles(seed=3)
    samples = [
        (b, one_hot(i % ARCH.n_gaits, ARCH.n_gaits), f"kind{i % 2}") for i, b in enumerate(bundles)
    ]
    table = export_residual_latents(pol, samples)
    z, w, gaits, kinds = ref_residual_latents(pol, samples)
    assert same(table.z_prime, z)
    assert same(table.gate_w, w)
    assert same(table.gait_labels, gaits)
    assert table.terrain_labels == kinds


@pytest.mark.parametrize("stage", [1, 2])
def test_batched_actor_mean_matches_reference(stage):
    # the training path: a stacked batch of several bundles
    pol = make_policy(stage, seed=2)
    _, bundles = env_bundles()
    gaits = np.stack([one_hot(i % 3, 3) for i in range(len(bundles))]) if stage == 2 else None
    mean, cache = pol.actor_mean(BundleBatch.stack(bundles), gaits)
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
    gait = one_hot(gait_id, ARCH.n_gaits)
    assert_act_matches(pol, bundle, gait)
    assert_act_matches(pol, bundle, gait, rng_seed=seed)


def test_act_leaves_the_bundle_unchanged():
    pol = make_policy(2)
    _, bundles = env_bundles()
    for b in bundles:
        before = b.copy()
        res = pol.act(b, one_hot(1, 3), rng=np.random.default_rng(0))
        for name in ("o", "hist", "scans", "m", "e"):
            assert same(getattr(b, name), getattr(before, name)), name
        # the result owns its action: writing it leaves the bundle alone
        res.action[:] = 123.0
        assert same(b.o, before.o)


@pytest.mark.parametrize("field_name", ["o", "hist", "scans"])
def test_non_finite_input_raises_the_same_error(field_name):
    pol = make_policy(2)
    _, (b, *_) = env_bundles(1)
    getattr(b, field_name)[0] = np.nan
    gait = one_hot(0, 3)
    with pytest.raises(ValueError, match="^non-finite network input$"):
        pol.act(b, gait)
    with pytest.raises(ValueError, match="^non-finite network input$"):
        ref_act(pol, b, gait)


def test_normalizer_to_dict_bytes_unchanged():
    pol = make_policy(2)
    nz = pol.normalizer
    expected = json.dumps(ref_normalizer_dict(nz, encode_array))
    assert json.dumps(nz.to_dict()) == expected
    loaded = ObservationNormalizer.from_dict(nz.to_dict())
    assert json.dumps(loaded.to_dict()) == expected
    # the loaded normalizer normalizes the history exactly as the built one
    _, bundles = env_bundles()
    batch = BundleBatch.stack(bundles)
    assert same(loaded.norm_hist(batch.hist), nz.norm_hist(batch.hist))
