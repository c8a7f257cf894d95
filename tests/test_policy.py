import dataclasses
import math
import re

import numpy as np
import pytest

from gaitrl.biped import N_JOINTS, BipedModel
from gaitrl.codec import decode, encode
from gaitrl.config import RunConfig
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
from gaitrl.nets import softmax
from gaitrl.policy import (
    ActorCritic,
    BundleBatch,
    PolicyArch,
    PolicyMode,
    PolicyState,
    ResidualModule,
    export_residual_latents,
    gaussian_log_prob_batch,
)
from gaitrl.terrain import generate_terrain
from gaitrl.trainer import Trainer

from oracles import central_diff_params, rel_err

MODEL = BipedModel()
SMALL = PolicyArch(
    d_f=6,
    d_z=8,
    encoder_hidden=(8,),
    trunk_hidden=(10,),
    expert_hidden=(6,),
    gate_hidden=(5,),
    critic_hidden=(12,),
)


def make_bundles(n=4, seed=0, cfg=None, noise=True):
    cfg = cfg or EnvConfig()
    env = TerrainEnv(MODEL, cfg, seed=seed)
    terrain = generate_terrain("rough", 0.5, seed=seed)
    env.reset(
        terrain,
        DRConfig(scan_noise=0.02 if noise else 0.0),
        CommandState(v_cmd=0.5, gait=one_hot(0, 3)),
    )
    rng = np.random.default_rng(seed)
    bundles = []
    for _ in range(n):
        res = env.step(rng.uniform(-0.5, 0.5, N_JOINTS))
        bundles.append(env.bundle)
        if res.done:
            break
    return bundles


class TestEncodeFeatures:
    def test_feature_dimension(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        batch = BundleBatch.stack(make_bundles(3))
        feats, _, _ = pol.encode_features(batch)
        assert feats.shape == (3, pol.dims["d_o"] + 2 * SMALL.d_f)

    def test_zero_weight_encoders_emit_biases(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        for net in (pol.scan_enc, pol.hist_enc):
            for l in net.layers:
                l.weight[:] = 0.0
            net.layers[-1].bias[:] = 0.3
        batch = BundleBatch.stack(make_bundles(2))
        feats, _, _ = pol.encode_features(batch)
        d_o = pol.dims["d_o"]
        np.testing.assert_allclose(feats[:, d_o:], math.tanh(0.3), atol=1e-12)

    def test_privilege_separation_on_actor_path(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=0)
        bundle = make_bundles(1)[0].with_gait(one_hot(1, 3))
        a1 = pol.act(bundle)
        row = bundle.row.copy()
        row[bundle.slices["m"]] = 123.0
        row[bundle.slices["e"]] = -55.0
        a2 = pol.act(ObservationBundle(row, bundle.slices))
        np.testing.assert_array_equal(a1, a2)


class TestResidualForward:
    def make_res(self, seed=0, n=3, randomize=True):
        rng = np.random.default_rng(seed)
        res = ResidualModule(n, feat_dim=7, gait_dim=3, out_dim=5, arch=SMALL, rng=rng,
                             dtype=np.float64)
        if randomize:
            for net in [*res.experts, res.gate]:
                for l in net.layers:
                    l.weight[:] = rng.normal(0, 0.4, l.weight.shape)
                    l.bias[:] = rng.normal(0, 0.2, l.bias.shape)
        return res, rng

    def test_identical_experts_make_gate_irrelevant(self):
        res, rng = self.make_res()
        for e in res.experts[1:]:
            for le, l0 in zip(e.layers, res.experts[0].layers):
                le.weight[:] = l0.weight
                le.bias[:] = l0.bias
        x = rng.normal(size=(4, 7))
        g = np.tile(one_hot(0, 3), (4, 1))
        z, w, _ = res.forward(x, g)
        z0, _ = res.experts[0], None
        from gaitrl.nets import net_forward

        y, _ = net_forward(res.experts[0], np.concatenate([x, g], axis=1))
        np.testing.assert_allclose(z, y, atol=1e-12)

    def test_saturated_gate_selects_single_expert(self):
        res, rng = self.make_res(seed=1)
        # force gate logits to (100, 0, 0) via a bias-only output layer
        res.gate.layers[-1].weight[:] = 0.0
        res.gate.layers[-1].bias[:] = (100.0, 0.0, 0.0)
        x = rng.normal(size=(2, 7))
        g = np.tile(one_hot(2, 3), (2, 1))
        z, w, _ = res.forward(x, g)
        from gaitrl.nets import net_forward

        y, _ = net_forward(res.experts[0], np.concatenate([x, g], axis=1))
        assert np.max(np.abs(z - y)) <= 1e-9

    def test_hand_computed_convex_combination(self):
        res, rng = self.make_res(seed=2)
        x = rng.normal(size=(1, 7))
        g = one_hot(1, 3)[None, :]
        z, w, _ = res.forward(x, g)
        from gaitrl.nets import net_forward

        xin = np.concatenate([x, g], axis=1)
        outs = [net_forward(e, xin)[0] for e in res.experts]
        logits, _ = net_forward(res.gate, xin)
        wref = softmax(logits[0])
        zref = sum(wref[i] * outs[i][0] for i in range(3))
        assert rel_err(z[0], zref) <= 1e-12
        np.testing.assert_allclose(w[0], wref, atol=1e-15)

    def test_gate_weights_are_probability_vector(self):
        res, rng = self.make_res(seed=3)
        x = rng.normal(size=(10, 7))
        g = np.tile(one_hot(0, 3), (10, 1))
        _, w, _ = res.forward(x, g)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_expert_permutation_symmetry(self):
        res, rng = self.make_res(seed=4)
        x = rng.normal(size=(3, 7))
        g = np.tile(one_hot(1, 3), (3, 1))
        z1, _, _ = res.forward(x, g)
        perm = [2, 0, 1]
        res.experts = [res.experts[i] for i in perm]
        # permute gate output rows (logits) the same way
        res.gate.layers[-1].weight[:] = res.gate.layers[-1].weight[perm]
        res.gate.layers[-1].bias[:] = res.gate.layers[-1].bias[perm]
        z2, _, _ = res.forward(x, g)
        np.testing.assert_allclose(z1, z2, atol=1e-12)


class TestAct:
    def test_zero_init_residual_matches_stage1_bitwise(self):
        pol1 = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=7)
        pol2 = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=7)
        pol2.load_stage1_weights(decode(PolicyState, pol1.to_dict()))
        for bundle in make_bundles(20, seed=3):
            gaited = bundle.with_gait(one_hot(2, 3))
            a1 = pol1.act(bundle)
            a2 = pol2.act(gaited)
            np.testing.assert_array_equal(a1, a2)
            _, cache = pol2.actor_mean(BundleBatch.stack([gaited]))
            assert np.all(cache.residual.z == 0.0)

    def test_deterministic_mode_returns_mean(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        bundle = make_bundles(1)[0]
        mean, _ = pol.actor_mean(BundleBatch.stack([bundle]))
        np.testing.assert_array_equal(pol.act(bundle), mean[0])

    def test_log_prob_matches_closed_form(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        pol.log_std[:] = np.linspace(-1.0, 0.5, N_JOINTS)
        mean = pol.act(make_bundles(1)[0])
        std = np.exp(pol.log_std)
        action = mean + std * np.random.default_rng(5).standard_normal(N_JOINTS)
        logp = gaussian_log_prob_batch(action[None], mean[None], pol.log_std)[0]
        ref = -0.5 * np.sum(((action - mean) / std) ** 2)
        ref -= np.sum(pol.log_std) + 0.5 * N_JOINTS * math.log(2 * math.pi)
        assert logp == pytest.approx(ref, abs=1e-12)

    def test_action_fusion_mode(self):
        pol = ActorCritic(
            MODEL, EnvConfig(), SMALL, PolicyMode(stage=2, residual_fusion="action"), seed=0
        )
        assert pol.residual.out_dim == N_JOINTS
        bundle = make_bundles(1)[0].with_gait(one_hot(0, 3))
        assert pol.act(bundle).shape == (N_JOINTS,)


class TestStages:
    def test_the_residual_is_a_stage_2_part(self):
        # one_stage changes nothing at stage 1: no residual, and the same
        # initial weights (the residual drew from the init rng before the critic)
        plain = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=4)
        flagged = ActorCritic(
            MODEL, EnvConfig(), SMALL, PolicyMode(stage=1, one_stage=True), seed=4
        )
        assert plain.residual is None and flagged.residual is None
        assert "gate" not in flagged.components()
        for a, b in zip(plain.critic.params(), flagged.critic.params()):
            assert a.tobytes() == b.tobytes()
        stage2 = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=4)
        assert stage2.residual is not None and "gate" in stage2.components()
        assert stage2.critic.input_dim == plain.critic.input_dim + EnvConfig().n_gaits

    @pytest.mark.parametrize("fusion", ["Latent", "actions", ""])
    def test_an_unknown_residual_fusion_is_rejected(self, fusion):
        with pytest.raises(ValueError, match="residual_fusion must be one of"):
            PolicyMode(stage=2, residual_fusion=fusion)


class TestCritic:
    def test_zero_weight_critic_returns_bias(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        for l in pol.critic.layers:
            l.weight[:] = 0.0
        pol.critic.layers[-1].bias[:] = -2.5
        v, _ = pol.critic_value(BundleBatch.stack(make_bundles(1)))
        assert v[0] == pytest.approx(-2.5)

    def test_values_finite_on_benchmark_observations(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=1)
        for bundle in make_bundles(10, seed=9):
            batch = BundleBatch.stack([bundle.with_gait(one_hot(1, 3))])
            v, _ = pol.critic_value(batch)
            assert np.all(np.isfinite(v))

    def test_value_input_gradient_matches_finite_differences(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=2,
                          dtype=np.float64)
        b = make_bundles(1)[0]
        from gaitrl.nets import net_backward

        x = BundleBatch.stack([b]).rows[:, : pol.critic.input_dim].astype(np.float64)

        def scalar():
            from gaitrl.nets import net_forward

            y, _ = net_forward(pol.critic, x)
            return float(y[0, 0])

        from gaitrl.nets import net_forward

        _, tape = net_forward(pol.critic, x)
        _, gx = net_backward(pol.critic, tape, np.ones((1, 1)))
        fd = central_diff_params(scalar, [x])[0]
        assert rel_err(gx, fd, floor=1e-6) <= 1e-4

    def test_stage_layout_mismatch_raises(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=0)
        b = make_bundles(1)[0]
        # a row of two gaits: the critic reads up to the batch's gait block, and
        # net_forward checks every network's input width, the critic's too
        row = np.delete(b.row, b.slices["gait"].stop - 1)
        batch = BundleBatch.stack([ObservationBundle(row, obs_slices(obs_dims(EnvConfig(n_gaits=2))))])
        n = pol.critic.input_dim
        message = re.escape(f"input has shape (1, {n - 1}), expected [*, {n}]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            pol.critic_value(batch)


class TestEndToEndGradients:
    @pytest.mark.parametrize("fusion", ["latent", "action"])
    def test_actor_gradient_matches_finite_differences(self, fusion):
        cfg = EnvConfig(scan_points=4, history_len=2, elev_points=3)
        pol = ActorCritic(
            MODEL, cfg, SMALL, PolicyMode(stage=2, residual_fusion=fusion), seed=3,
            dtype=np.float64,
        )
        rng = np.random.default_rng(0)
        # randomize the zero-init layers so gradients flow everywhere
        for net in [*pol.residual.experts, pol.residual.gate]:
            net.layers[-1].weight[:] = rng.normal(0, 0.3, net.layers[-1].weight.shape)
        bundles = make_bundles(3, seed=1, cfg=cfg)
        batch = BundleBatch.stack([b.with_gait(one_hot(1, 3)) for b in bundles])
        gout = rng.normal(size=(len(bundles), N_JOINTS))

        def scalar():
            mean, _ = pol.actor_mean(batch)
            return float(np.sum(gout * mean))

        mean, cache = pol.actor_mean(batch)
        grads = pol.actor_backward(cache, gout)
        comps = pol.components()
        for name, grad in grads.items():
            fd = central_diff_params(scalar, comps[name])
            for a, b in zip(grad.params(), fd):
                assert rel_err(a, b, floor=1e-6) <= 1e-4, name

    def test_gait_command_unused_in_stage1_path(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        # the stage-1 actor has no residual module and no gait input anywhere
        assert pol.residual is None
        assert pol.trunk.input_dim == pol.dims["d_o"] + 2 * SMALL.d_f
        assert pol.head.input_dim == SMALL.d_z
        dims = pol.dims
        assert pol.critic.input_dim == dims["d_m"] + dims["d_e"] + dims["d_o"] + dims["d_hist"]


class TestLatentExport:
    def test_rows_and_invariants(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=0)
        bundles = make_bundles(6, seed=2)
        samples = [
            (b.with_gait(one_hot(i % 3, 3)), "flat") for i, b in enumerate(bundles)
        ]
        table = export_residual_latents(pol, samples)
        assert table.z_prime.shape == (len(bundles), SMALL.d_z)
        assert table.gate_w.shape == (len(bundles), 3)
        np.testing.assert_allclose(table.gate_w.sum(axis=1), 1.0, atol=1e-12)
        # zero-initialized residual: all rows zero
        assert np.all(table.z_prime == 0.0)

    def test_stage1_rejected(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        with pytest.raises(ValueError):
            export_residual_latents(pol, [])


class TestPersistence:
    def test_round_trip_preserves_actions(self):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=11)
        rng = np.random.default_rng(1)
        for net in [*pol.residual.experts, pol.residual.gate]:
            net.layers[-1].weight[:] = rng.normal(0, 0.2, net.layers[-1].weight.shape)
        back = ActorCritic.from_state(decode(PolicyState, pol.to_dict()), MODEL, EnvConfig())
        for bundle in make_bundles(5, seed=4):
            bundle = bundle.with_gait(one_hot(0, 3))
            np.testing.assert_array_equal(pol.act(bundle), back.act(bundle))

    @pytest.mark.parametrize("stage", [1, 2])
    def test_from_state_builds_no_network(self, monkeypatch, stage):
        pol = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=stage), seed=3)
        state = decode(PolicyState, pol.to_dict())

        def no_net(*args, **kwargs):
            raise AssertionError("from_state drew a network")

        monkeypatch.setattr("gaitrl.policy.make_net", no_net)
        back = ActorCritic.from_state(state, MODEL, EnvConfig())
        assert back.to_dict() == encode(state)

    def test_a_residual_at_the_wrong_stage_is_rejected(self):
        s1 = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0).state()
        s2 = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=2), seed=0).state()
        for state, residual in ((s1, s2.residual), (s2, None)):
            with pytest.raises(ValueError, match=r"^residual: "):
                dataclasses.replace(state, residual=residual)
            # a document with the same fault is rejected where it is read
            doc = encode(state)
            doc.pop("residual", None)
            if residual is not None:
                doc["residual"] = encode(residual)
            with pytest.raises(ValueError, match=r"^policy: residual: "):
                decode(PolicyState, doc, "policy")

    def test_dz_mismatch_rejected_on_stage1_load(self):
        # load_stage1_weights trusts its caller; the one caller, a stage-2
        # Trainer, compares the stage-1 policy's arch with the run's first
        pol1 = ActorCritic(MODEL, EnvConfig(), SMALL, PolicyMode(stage=1), seed=0)
        cfg = RunConfig()
        cfg.arch = PolicyArch(**{**SMALL.__dict__, "d_z": 16})
        with pytest.raises(
            ValueError, match=r"^arch\.d_z: the checkpoint's policy has 8, the run 16$"
        ):
            Trainer(cfg, seed=0, stage=2, stage1_checkpoint={"policy": pol1.to_dict()})
