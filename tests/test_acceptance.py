"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the per-criterion
lines as they complete.  The training-based criteria (6 and 7) carry their
documented desk-scale budgets and dominate the runtime; everything else
finishes in seconds.  Budgets and tolerances are fixed here, not tuned at
call time.
"""


import numpy as np

from gaitrl.amp import (
    WindowBuffer,
    amp_update,
    disc_parts,
    discriminator_loss,
    make_discriminators,
    style_reward,
    style_reward_value,
)
from gaitrl.bench import (
    BenchmarkSuite,
    PolicyController,
    recompute_cell_from_trace,
    run_benchmark,
)
from gaitrl.biped import N_JOINTS, BipedModel
from gaitrl.codec import decode
from gaitrl.config import RunConfig, config_from_dict, config_to_dict
from gaitrl.env import CommandState, DRConfig, EnvConfig, TerrainEnv, one_hot
from gaitrl.nets import AdamState, Snapshot, net_backward, net_forward
from gaitrl.policy import (
    ActorCritic,
    BundleBatch,
    PolicyArch,
    PolicyMode,
    PolicyState,
    ResidualModule,
    gaussian_log_prob_batch,
)
from gaitrl.ppo import PPOConfig, ppo_loss_and_grads
from gaitrl.rewards import RewardConfig
from gaitrl.terrain import (
    GAP_RANGE,
    STAIR_RANGE,
    STEP_RANGE,
    generate_terrain,
)
from gaitrl.trainer import Trainer

from oracles import (
    central_diff_params,
    disc_scores,
    held_windows,
    rel_err,
    score_gait,
    score_locomotion,
)
from test_rewards import dual_locomotion, random_inputs, random_state

MODEL = BipedModel()

SMALL_ARCH = PolicyArch(
    d_f=6, d_z=8, encoder_hidden=(8,), trunk_hidden=(10,), expert_hidden=(6,),
    gate_hidden=(5,), critic_hidden=(10,),
)
SMALL_ENV = EnvConfig(scan_points=4, history_len=2, elev_points=3)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert passed, line


def sample_bundles(n, seed=0, env_cfg=SMALL_ENV, kind="rough"):
    env = TerrainEnv(MODEL, env_cfg, seed=seed)
    env.reset(
        generate_terrain(kind, 0.4, seed=seed),
        DRConfig(),
        CommandState(v_cmd=0.5, gait=one_hot(0, 3)),
    )
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        res = env.step(rng.uniform(-0.4, 0.4, N_JOINTS))
        out.append(env.bundle)
        if res.done:
            env.reset(
                generate_terrain(kind, 0.4, seed=seed),
                DRConfig(),
                CommandState(v_cmd=0.5, gait=one_hot(0, 3)),
            )
    return out


class TestCriterion1Gradients:
    """Every trainable network matches central finite differences to 1e-4,
    checked on float64 instances of the code the float32 nets run."""

    def test_criterion_1(self):
        worst = 0.0
        rng = np.random.default_rng(0)

        # policy stack end to end (encoders, trunk, MoE, head), both stages
        for fusion in ("latent", "action"):
            pol = ActorCritic(MODEL, SMALL_ENV, SMALL_ARCH,
                              PolicyMode(stage=2, residual_fusion=fusion), seed=1,
                              dtype=np.float64)
            for net in [*pol.residual.experts, pol.residual.gate]:
                net.layers[-1].weight[:] = rng.normal(0, 0.3, net.layers[-1].weight.shape)
            bundles = sample_bundles(3, seed=2)
            batch = BundleBatch.stack([b.with_gait(one_hot(1, 3)) for b in bundles])
            gout = rng.normal(size=(3, N_JOINTS))

            def actor_scalar():
                mean, _ = pol.actor_mean(batch)
                return float(np.sum(gout * mean))

            mean, cache = pol.actor_mean(batch)
            grads = pol.actor_backward(cache, gout)
            comps = pol.components()
            for name, g in grads.items():
                fd = central_diff_params(actor_scalar, comps[name])
                for a, b in zip(g, fd):
                    worst = max(worst, rel_err(a, b, floor=1e-6))

        # critic
        pol = ActorCritic(MODEL, SMALL_ENV, SMALL_ARCH, PolicyMode(stage=1), seed=3,
                          dtype=np.float64)
        b = BundleBatch.stack(sample_bundles(1, seed=4))

        def critic_scalar():
            v, _ = pol.critic_value(b)
            return float(v[0])

        v, tape = pol.critic_value(b)
        cg, _ = net_backward(pol.critic, tape, np.ones((1, 1)))
        fd = central_diff_params(critic_scalar, pol.critic.params())
        for a, fdg in zip(cg, fd):
            worst = max(worst, rel_err(a, fdg, floor=1e-6))

        # discriminator loss including the gradient-penalty term
        discs = make_discriminators(1, 6, rng, hidden=(8, 5), alpha_gp=10.0, dtype=np.float64)
        net = discs.nets[0]
        real = rng.normal(size=(4, 6))
        fake = rng.normal(size=(3, 6))

        def disc_scalar():
            loss, _, _ = discriminator_loss(net, real, fake, 10.0)
            return loss

        _, dgrads, _ = discriminator_loss(net, real, fake, 10.0)
        fd = central_diff_params(disc_scalar, net.params())
        for a, b_ in zip(dgrads, fd):
            worst = max(worst, rel_err(a, b_, floor=1e-6))

        # full PPO loss (clipped surrogate + value + entropy) on a tiny batch
        pol2 = ActorCritic(MODEL, SMALL_ENV, SMALL_ARCH, PolicyMode(stage=2), seed=5,
                           dtype=np.float64)
        for netn in [*pol2.residual.experts, pol2.residual.gate]:
            netn.layers[-1].weight[:] = rng.normal(0, 0.3, netn.layers[-1].weight.shape)
        bundles = sample_bundles(5, seed=6)
        gaits = np.stack([one_hot(int(rng.integers(0, 3)), 3) for _ in range(5)])
        mb = BundleBatch.stack([b.with_gait(g) for b, g in zip(bundles, gaits)])
        mean, _ = pol2.actor_mean(mb)
        actions = mean + np.exp(pol2.log_std) * rng.standard_normal((5, N_JOINTS))
        lp_old = gaussian_log_prob_batch(actions, mean, pol2.log_std)
        lp_old = lp_old + rng.uniform(-0.1, 0.1, 5)
        adv = rng.normal(size=5)
        ret = rng.normal(size=5)
        pcfg = PPOConfig(entropy_coef=0.01, value_coef=0.7)

        def ppo_scalar():
            loss, _, _ = ppo_loss_and_grads(pol2, mb, actions, adv, ret, lp_old, pcfg)
            return loss

        _, glists, _ = ppo_loss_and_grads(pol2, mb, actions, adv, ret, lp_old, pcfg)
        comps = pol2.components()
        for name, gl in glists.items():
            fd = central_diff_params(ppo_scalar, comps[name])
            for a, b_ in zip(gl, fd):
                worst = max(worst, rel_err(a, b_, floor=1e-6))

        report("1 gradient-correctness", worst <= 1e-4, f"worst rel err {worst:.2e}")


class TestCriterion2Rewards:
    def test_criterion_2(self):
        ok = True
        detail = []
        # Closed-form style values
        values = {-1.0: 0.0, 0.0: 0.75, 1.0: 1.0, 3.0: 0.0}
        for d, expect in values.items():
            if abs(style_reward_value(d) - expect) > 1e-15:
                ok = False
                detail.append(f"style({d}) != {expect}")

        # dual implementation over 1000 random states
        rng = np.random.default_rng(42)
        cfg = RewardConfig()
        worst = 0.0
        for _ in range(1000):
            st, cmd, a, ap, app = random_inputs(rng)
            bd = score_locomotion(st, cmd, a, ap, app, cfg, MODEL)
            expect = dual_locomotion(st, cmd, a, ap, app, cfg, MODEL)
            for name, val in expect.items():
                worst = max(worst, abs(bd.raw[name] - val))
        if worst > 1e-12:
            ok = False
            detail.append(f"dual impl worst {worst:.2e}")

        # routing: non-commanded discriminators and gait terms contribute zero
        discs = make_discriminators(3, 30, np.random.default_rng(1), hidden=(12,))
        w = np.random.default_rng(2).normal(size=30)
        before = style_reward(w[None], [1], discs)[0]
        discs.nets[0].layers[0].weight += 3.0
        discs.nets[2].layers[0].weight -= 2.0
        if style_reward(w[None], [1], discs)[0] != before:
            ok = False
            detail.append("style routing leaked")
        for _ in range(100):
            st = random_state(rng)
            for active in range(3):
                gb = score_gait(st, one_hot(active, 3), cfg)
                if active != 1 and gb.weighted["knee_height"] != 0.0:
                    ok = False
                if active != 2 and gb.weighted["squat_height"] != 0.0:
                    ok = False
        report("2 closed-form-rewards", ok, "; ".join(detail) or f"dual worst {worst:.1e}")


class TestCriterion3MoE:
    def test_criterion_3(self):
        rng = np.random.default_rng(3)
        res = ResidualModule(3, feat_dim=7, gait_dim=3, out_dim=5, arch=SMALL_ARCH, rng=rng)
        for net in [*res.experts, res.gate]:
            for l in net.layers:
                l.weight[:] = rng.normal(0, 0.4, l.weight.shape)
                l.bias[:] = rng.normal(0, 0.2, l.bias.shape)
        x = rng.normal(size=(20, 7))
        g = np.tile(one_hot(0, 3), (20, 1))
        ok = True

        _, w, _ = res.forward(x, g)
        ok &= bool(np.all(w >= 0) and np.allclose(w.sum(axis=1), 1.0, atol=1e-12))

        # saturated gate reproduces a single expert
        res.gate.layers[-1].weight[:] = 0.0
        res.gate.layers[-1].bias[:] = (0.0, 100.0, 0.0)
        z, _, _ = res.forward(x, g)
        y1, _ = net_forward(res.experts[1], np.concatenate([x, g], axis=1))
        ok &= bool(np.max(np.abs(z - y1)) <= 1e-9)

        # identical experts make z' gate-independent
        res.gate.layers[-1].bias[:] = rng.normal(0, 2.0, 3)
        for e in res.experts[1:]:
            for le, l0 in zip(e.layers, res.experts[0].layers):
                le.weight[:] = l0.weight
                le.bias[:] = l0.bias
        z1, _, _ = res.forward(x, g)
        y0, _ = net_forward(res.experts[0], np.concatenate([x, g], axis=1))
        ok &= bool(np.allclose(z1, y0, atol=1e-12))

        # permutation symmetry
        res2 = ResidualModule(3, feat_dim=7, gait_dim=3, out_dim=5, arch=SMALL_ARCH,
                              rng=np.random.default_rng(4))
        for net in [*res2.experts, res2.gate]:
            for l in net.layers:
                l.weight[:] = rng.normal(0, 0.4, l.weight.shape)
        za, _, _ = res2.forward(x, g)
        perm = [2, 0, 1]
        res2.experts = [res2.experts[i] for i in perm]
        res2.gate.layers[-1].weight[:] = res2.gate.layers[-1].weight[perm]
        res2.gate.layers[-1].bias[:] = res2.gate.layers[-1].bias[perm]
        zb, _, _ = res2.forward(x, g)
        ok &= bool(np.allclose(za, zb, atol=1e-12))

        report("3 moe-algebra", ok)


class TestCriterion4ZeroResidual:
    def test_criterion_4(self):
        pol1 = ActorCritic(MODEL, SMALL_ENV, SMALL_ARCH, PolicyMode(stage=1), seed=7)
        pol2 = ActorCritic(MODEL, SMALL_ENV, SMALL_ARCH, PolicyMode(stage=2), seed=8)
        pol2.load_stage1_weights(decode(PolicyState, pol1.to_dict()))
        rng = np.random.default_rng(9)
        bundles = []
        for k in range(4):
            bundles += sample_bundles(250, seed=10 + k, kind=("flat", "rough", "gap", "step")[k])
        mismatches = 0
        for b in bundles:
            a1 = pol1.act(b)
            a2 = pol2.act(b.with_gait(one_hot(int(rng.integers(0, 3)), 3)))
            if not np.array_equal(a1, a2):
                mismatches += 1
        report(
            "4 zero-residual-equivalence",
            mismatches == 0,
            f"{len(bundles)} observations, {mismatches} mismatches",
        )


class TestCriterion5Discriminator:
    def test_criterion_5(self):
        rng = np.random.default_rng(11)
        dim = 8
        discs = make_discriminators(1, dim, rng, hidden=(16,), alpha_gp=5.0)
        opts = [AdamState(n.params(), lr=1e-3) for n in discs.nets]
        refs = {0: rng.normal(1.5, 0.3, size=(512, dim))}
        buf = WindowBuffer(1, dim)
        buf.add(0, rng.normal(-1.5, 0.3, size=(512, dim)))
        for _ in range(500):
            amp_update(discs, refs, buf, opts, rng,
                       Snapshot(disc_parts(discs, opts)), batch_size=64)
        mr = float(np.mean(disc_scores(discs.nets[0], refs[0])))
        mf = float(np.mean(disc_scores(discs.nets[0], held_windows(buf, 0))))
        sep_ok = mr > 0.8 and mf < -0.8

        discs2 = make_discriminators(1, dim, np.random.default_rng(12), hidden=(16,), alpha_gp=5.0)
        opts2 = [AdamState(n.params(), lr=1e-3) for n in discs2.nets]
        data = np.random.default_rng(13).normal(size=(1024, dim))
        refs2 = {0: data[:512]}
        buf2 = WindowBuffer(1, dim)
        buf2.add(0, data[512:])
        for _ in range(500):
            amp_update(discs2, refs2, buf2, opts2, np.random.default_rng(14),
                       Snapshot(disc_parts(discs2, opts2)), batch_size=64)
        mr2 = float(np.mean(disc_scores(discs2.nets[0], refs2[0])))
        mf2 = float(np.mean(disc_scores(discs2.nets[0], held_windows(buf2, 0))))
        sym_ok = abs(mr2) < 0.35 and abs(mf2) < 0.35

        report(
            "5 discriminator-learnability",
            sep_ok and sym_ok,
            f"separable D(real)={mr:.2f} D(fake)={mf:.2f}; identical {mr2:+.2f}/{mf2:+.2f}",
        )


class TestCriterion8DeterminismAudit:
    def test_criterion_8(self, tmp_path):
        ok = True
        details = []
        cfg_dict = config_to_dict(_tiny_cfg())
        # byte-identical metrics + checkpoints
        blobs = []
        for d in ("a", "b"):
            out = tmp_path / d
            cfg = config_from_dict(cfg_dict)
            Trainer(cfg, seed=5, stage=1, out_dir=str(out)).run(2)
            blobs.append(
                (
                    (out / "metrics.jsonl").read_bytes(),
                    (out / "checkpoint_final.json").read_bytes(),
                )
            )
        if blobs[0] != blobs[1]:
            ok = False
            details.append("training not byte-identical")

        # byte-identical benchmark reports + trace audit
        from gaitrl.trainer import load_checkpoint

        cfg = config_from_dict(cfg_dict)
        doc = load_checkpoint(tmp_path / "a" / "checkpoint_final.json")
        policy = ActorCritic.from_state(doc.policy, cfg.model, cfg.env)
        suite = BenchmarkSuite(cells=(("gap", "easy"), ("flat", "easy")), trials=3, seed_base=2)
        reports = []
        for d in ("ra", "rb"):
            out = tmp_path / d
            rep = run_benchmark(PolicyController(policy), cfg, suite, method="p", out_dir=str(out))
            reports.append((out, rep))
            for cell in rep.cells:
                trace = out / f"trace_p_{cell.obstacle}_{cell.mode}.jsonl"
                succ, dist = recompute_cell_from_trace(trace, suite.goal_m)
                if succ != cell.success_rate or abs(dist - cell.mean_distance) > 0.0:
                    ok = False
                    details.append(f"trace audit mismatch {cell.obstacle}")
        b1 = (reports[0][0] / "report_p.json").read_bytes()
        b2 = (reports[1][0] / "report_p.json").read_bytes()
        if b1 != b2:
            ok = False
            details.append("benchmark reports not byte-identical")

        # curriculum stays in range over a short full training run with obstacles
        cfg = config_from_dict(cfg_dict)
        cfg.terrain.kinds = ("gap", "step", "stair")
        cfg.curriculum.enabled = True
        trainer = Trainer(cfg, seed=6, stage=1)
        trainer.run(3)
        for w in trainer.workers:
            if not 0.0 <= w.curr.difficulty <= 1.0:
                ok = False
                details.append("difficulty out of range")

        # terrain parameters inside the published curriculum ranges
        for kind, (lo, hi) in (("gap", GAP_RANGE), ("step", STEP_RANGE), ("stair", STAIR_RANGE)):
            for d in np.linspace(0, 1, 5):
                hf = generate_terrain(kind, float(d), seed=1)
                vals = [o.value for o in hf.obstacles if o.kind == kind]
                if not all(lo - 1e-12 <= v <= hi + 1e-12 for v in vals):
                    ok = False
                    details.append(f"{kind} parameter out of range")
        report("8 determinism-audit", ok, "; ".join(details) or "bytes equal, audits exact")


def _tiny_cfg():
    cfg = RunConfig()
    cfg.terrain.kinds = ("flat",)
    cfg.train.dr_enabled = False
    cfg.env.push_vel_max = 0.0
    cfg.env.max_episode_s = 2.0
    cfg.ppo.n_envs = 4
    cfg.ppo.horizon = 12
    cfg.ppo.minibatch = 24
    cfg.ppo.epochs = 2
    cfg.arch.d_f = 6
    cfg.arch.d_z = 8
    cfg.arch.encoder_hidden = (8,)
    cfg.arch.trunk_hidden = (10,)
    cfg.arch.expert_hidden = (6,)
    cfg.arch.gate_hidden = (5,)
    cfg.arch.critic_hidden = (12,)
    cfg.amp.disc_hidden = (12,)
    cfg.curriculum.enabled = False
    return cfg
