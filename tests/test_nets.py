import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrl.amp import make_discriminators
from gaitrl.biped import N_JOINTS, BipedModel
from gaitrl.codec import decode, encode
from gaitrl.config import RunConfig
from gaitrl.env import EnvConfig, env_layout
from gaitrl.nets import (
    AdamState,
    DenseNet,
    Layer,
    PackedArray,
    adam_step,
    finite_step,
    make_net,
    net_backward,
    net_directional_param_grads,
    net_forward,
    softmax,
)
from gaitrl.policy import NET_NAMES, ActorCritic, BundleBatch, PolicyArch, PolicyMode
from gaitrl.refmotion import WINDOW_LEN

from oracles import (
    central_diff_params,
    mlp_eval,
    ref_adam_step,
    ref_net_backward,
    ref_net_directional_param_grads,
    ref_net_forward,
    rel_err,
)


def bits(a: np.ndarray) -> bytes:
    return a.dtype.str.encode() + np.ascontiguousarray(a).tobytes()


def random_net(rng, dims=None, act="tanh"):
    """A float64 net: the checks against expressions and finite differences
    run on float64 instances of the network code."""
    if dims is None:
        dims = [4, 7, 5, 3]
    return make_net(dims, rng, hidden_activation=act, dtype=np.float64)


class TestForward:
    def test_zero_weights_returns_bias(self):
        b = np.array([0.3, -1.2])
        net = DenseNet([Layer(np.zeros((2, 3)), b, "identity")])
        y, _ = net_forward(net, np.array([[5.0, -2.0, 9.0]]))
        np.testing.assert_array_equal(y[0], b)

    def test_identity_layer(self):
        net = DenseNet([Layer(np.eye(4), np.zeros(4), "identity")])
        x = np.array([[1.0, -2.0, 0.5, 3.0]])
        y, _ = net_forward(net, x)
        np.testing.assert_array_equal(y, x)

    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(0)
        net = random_net(rng)
        x = rng.normal(size=4)
        y, _ = net_forward(net, x[None])
        expected = mlp_eval([(l.weight, l.bias, l.activation) for l in net.layers], x)
        assert rel_err(y[0], expected) <= 1e-12

    def test_batched_matches_rowwise(self):
        # gemm vs gemv may differ in the last ulp, so not array_equal
        rng = np.random.default_rng(1)
        net = random_net(rng)
        xs = rng.normal(size=(6, 4))
        yb, _ = net_forward(net, xs)
        for i in range(6):
            yi, _ = net_forward(net, xs[i : i + 1])
            np.testing.assert_allclose(yb[i], yi[0], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims", [[87, 64, 6], [87, 32, 1], [5, 1], [7, 1], [3, 5, 2]])
    def test_each_layer_has_the_bits_of_matmul(self, dims, dtype):
        # a layer is one ``dot``, the BLAS call ``@`` makes, but for a width-1
        # layer: there a strided batch of up to 8 columns gives ``@`` and
        # ``dot`` other bits in float32
        rng = np.random.default_rng(len(dims) + dims[-1])
        net = make_net(dims, rng, hidden_activation="tanh", dtype=dtype)
        rows = rng.normal(size=(64, dims[0] + 13)).astype(dtype)
        for x in (rows[:, 5 : 5 + dims[0]], rows[:1, : dims[0]], rows[:, : dims[0]].copy()):
            y, _ = net_forward(net, x)
            assert bits(y) == bits(ref_net_forward(net, x))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        x = rng.normal(size=(1, 4))
        y1, _ = net_forward(net, x)
        y2, _ = net_forward(net, x)
        np.testing.assert_array_equal(y1, y2)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        with pytest.raises(ValueError):
            net_forward(net, np.zeros((1, 5)))

    def test_a_single_vector_is_not_a_batch(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        with pytest.raises(ValueError, match=r"expected \[\*, 4\]"):
            net_forward(net, np.zeros(4))
        _, tape = net_forward(net, np.zeros((1, 4)))
        with pytest.raises(ValueError, match=r"expected \[\*, 3\]"):
            net_backward(net, tape, np.zeros(3))

    def test_only_tanh_and_identity_layers(self):
        for act in ("relu", "elu"):
            with pytest.raises(ValueError, match="unknown activation"):
                Layer(np.zeros((2, 3)), np.zeros(2), act)


class TestDtype:
    """A net computes in its parameters' dtype, float32 or float64."""

    @pytest.mark.parametrize("weight, bias", [
        (np.zeros((2, 3), np.float16), np.zeros(2, np.float16)),
        (np.zeros((2, 3), int), np.zeros(2, int)),
        (np.zeros((2, 3), np.float32), np.zeros(2)),
    ])
    def test_a_layer_is_float32_or_float64_throughout(self, weight, bias):
        with pytest.raises(ValueError, match="must both be float32 or both float64"):
            Layer(weight, bias, "tanh")

    def test_a_net_has_one_dtype(self):
        with pytest.raises(ValueError, match="one dtype"):
            DenseNet([Layer(np.zeros((2, 3)), np.zeros(2), "tanh"),
                      Layer(np.zeros((1, 2), np.float32), np.zeros(1, np.float32), "identity")])

    def test_make_net_rounds_the_float64_draw_once(self):
        n32 = make_net([4, 7, 3], np.random.default_rng(0), zero_output_layer=True)
        n64 = make_net([4, 7, 3], np.random.default_rng(0), zero_output_layer=True,
                       dtype=np.float64)
        assert n32.dtype == np.float32 and n64.dtype == np.float64
        for a, b in zip(n32.params(), n64.params()):
            assert bits(a) == bits(b.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_and_cotangents_are_cast_to_the_nets_dtype(self, dtype):
        rng = np.random.default_rng(1)
        net = make_net([4, 5, 2], rng, dtype=dtype)
        x = rng.normal(size=(3, 4))
        y, tape = net_forward(net, x)
        assert bits(tape.x) == bits(x.astype(dtype))
        grads, gx = net_backward(net, tape, rng.normal(size=(3, 2)))
        _, tape_d = net_forward(net, x[:1])
        h, d_grads = net_directional_param_grads(net, tape_d, x[:1], np.ones((1, 2)))
        for a in (y, *tape.post, *grads, gx, h, *d_grads):
            assert a.dtype == dtype
        assert softmax(y).dtype == dtype


class TestBackward:
    def test_zero_cotangent_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        _, tape = net_forward(net, rng.normal(size=(1, 4)))
        grads, gx = net_backward(net, tape, np.zeros((1, 3)))
        for g in grads:
            assert np.all(g == 0.0)
        assert np.all(gx == 0.0)

    def test_single_linear_layer_closed_form(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 4))
        net = DenseNet([Layer(w, np.zeros(3), "identity")])
        x = rng.normal(size=4)
        g = rng.normal(size=3)
        _, tape = net_forward(net, x[None])
        grads, gx = net_backward(net, tape, g[None])
        np.testing.assert_allclose(grads[0], np.outer(g, x), rtol=1e-15)
        np.testing.assert_allclose(grads[1], g, rtol=1e-15)
        np.testing.assert_allclose(gx[0], w.T @ g, rtol=1e-14)

    @pytest.mark.parametrize("act", ["tanh", "identity"])
    def test_param_grads_match_finite_differences(self, act):
        rng = np.random.default_rng(6)
        net = random_net(rng, dims=[3, 6, 4, 2], act=act)
        x = rng.normal(size=(1, 3))
        gout = rng.normal(size=(1, 2))

        def scalar():
            y, _ = net_forward(net, x)
            return float(np.sum(gout * y))

        _, tape = net_forward(net, x)
        grads, gx = net_backward(net, tape, gout)
        fd = central_diff_params(scalar, net.params())
        for analytic, numeric in zip(grads, fd):
            assert rel_err(analytic, numeric, floor=1e-6) <= 1e-4
        fd_x = central_diff_params(scalar, [x])[0]
        assert rel_err(gx, fd_x, floor=1e-6) <= 1e-4

    def test_many_random_gradient_checks(self):
        # The blanket substrate invariant: 100 random nets/inputs/cotangents.
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(100):
            dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)))]
            dims = [int(rng.integers(2, 5))] + dims
            act = ["tanh", "identity"][trial % 2]
            net = make_net(dims, rng, hidden_activation=act, dtype=np.float64)
            x = rng.normal(size=(1, dims[0]))
            gout = rng.normal(size=(1, dims[-1]))

            def scalar():
                y, _ = net_forward(net, x)
                return float(np.sum(gout * y))

            _, tape = net_forward(net, x)
            grads, _ = net_backward(net, tape, gout)
            fd = central_diff_params(scalar, net.params())
            for analytic, numeric in zip(grads, fd):
                worst = max(worst, rel_err(analytic, numeric, floor=1e-6))
        assert worst <= 1e-4

    def test_batched_grads_sum_over_rows(self):
        rng = np.random.default_rng(8)
        net = random_net(rng)
        xs = rng.normal(size=(5, 4))
        gs = rng.normal(size=(5, 3))
        _, tape = net_forward(net, xs)
        grads, gx = net_backward(net, tape, gs)
        acc = None
        for i in range(5):
            _, ti = net_forward(net, xs[i : i + 1])
            gi, gxi = net_backward(net, ti, gs[i : i + 1])
            np.testing.assert_allclose(gx[i], gxi[0], rtol=1e-12)
            if acc is None:
                acc = gi
            else:
                for a, b in zip(acc, gi):
                    a += b
        for a, b in zip(grads, acc):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_foreign_tape_rejected(self):
        rng = np.random.default_rng(9)
        n1, n2 = random_net(rng), random_net(rng)
        _, tape = net_forward(n1, rng.normal(size=(1, 4)))
        with pytest.raises(ValueError):
            net_backward(n2, tape, np.zeros((1, 3)))


def nets_an_update_trains(dtype) -> dict:
    """Every net of a default stage-2 policy of ``dtype``, by component name,
    and one discriminator; the residual's zero output layers get weights."""
    policy = ActorCritic(BipedModel(), EnvConfig(), PolicyArch(), PolicyMode(stage=2), seed=3,
                         dtype=dtype)
    rng = np.random.default_rng(14)
    nets = {name: getattr(policy, name) for name in NET_NAMES}
    nets.update({f"expert_{i}": e for i, e in enumerate(policy.residual.experts)})
    nets["gate"] = policy.residual.gate
    for name in ("expert_0", "expert_1", "expert_2", "gate"):
        layer = nets[name].layers[-1]
        layer.weight[:] = rng.normal(0.0, 0.3, layer.weight.shape)
    nets["disc"] = make_discriminators(1, 30, rng, dtype=dtype).nets[0]
    return nets


NETS = {dtype: nets_an_update_trains(dtype) for dtype in (np.float64, np.float32)}
NET_CASES = [pytest.param(dtype, name, id=f"{np.dtype(dtype)}-{name}")
             for dtype, nets in NETS.items() for name in sorted(nets)]


def upcast(net: DenseNet) -> DenseNet:
    """``net``'s float32 parameters, exactly, in a float64 net."""
    return DenseNet([Layer(l.weight.astype(np.float64), l.bias.astype(np.float64), l.activation)
                     for l in net.layers])


# how far a float32 pass may stray from the float64 pass over the same
# parameters, relative to the largest value of the output compared
FLOAT32_TOL = 1000 * np.finfo(np.float32).eps


@pytest.mark.parametrize("name", sorted(NETS[np.float32]))
def test_a_float32_net_computes_its_float64_values_to_float32_precision(name):
    net = NETS[np.float32][name]
    ref = upcast(net)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(64, net.input_dim)).astype(np.float32)
    g = rng.normal(size=(64, net.output_dim)).astype(np.float32)
    y, tape = net_forward(net, x)
    y_ref, tape_ref = net_forward(ref, x)
    grads, gx = net_backward(net, tape, g)
    grads_ref, gx_ref = net_backward(ref, tape_ref, g)
    for got, want in zip((y, gx, *grads), (y_ref, gx_ref, *grads_ref)):
        assert np.max(np.abs(got - want)) <= FLOAT32_TOL * np.max(np.abs(want))


class TestBitwiseBackward:
    """net_backward against the expression it replaced, bit for bit, on
    float64 instances of the nets and on the float32 nets the package trains
    (the reference reads the input and the cotangent in the net's dtype)."""

    @pytest.mark.parametrize("dtype, name", NET_CASES)
    def test_skipping_the_input_gradient_keeps_every_parameter_gradient(self, dtype, name):
        net = NETS[dtype][name]
        rng = np.random.default_rng(15)
        x = rng.normal(size=(37, net.input_dim)).astype(dtype)
        # a scalar head's cotangent is a [B, 1] view of a vector, as callers pass it
        g = (rng.normal(size=37)[:, None] if net.output_dim == 1 else rng.normal(
            size=(37, net.output_dim))).astype(dtype)
        _, tape = net_forward(net, x)
        full, gx = net_backward(net, tape, g)
        params_only, none = net_backward(net, tape, g, input_grad=False)
        ref_w, ref_b, ref_gx = ref_net_backward(net, x, g)
        assert none is None
        assert bits(gx) == bits(ref_gx)
        for k in range(len(net.layers)):
            for got in (full, params_only):
                assert bits(got[2 * k]) == bits(ref_w[k]), (name, k)
                assert bits(got[2 * k + 1]) == bits(ref_b[k]), (name, k)

    @pytest.mark.parametrize("dtype, name", NET_CASES)
    def test_skipping_the_parameter_gradients_keeps_the_input_gradient(self, dtype, name):
        # the discriminator's gradient penalty asks for the input gradient alone
        net = NETS[dtype][name]
        x = np.random.default_rng(17).normal(size=(37, net.input_dim)).astype(dtype)
        g = np.ones((37, net.output_dim), dtype)
        _, tape = net_forward(net, x)
        _, gx = net_backward(net, tape, g)
        none, u = net_backward(net, tape, g, param_grads=False)
        assert none is None
        assert bits(u) == bits(gx) == bits(ref_net_backward(net, x, g)[2])

    def test_the_tape_holds_the_input_and_each_layer_output(self):
        net = NETS[np.float64]["critic"]
        x = np.random.default_rng(16).normal(size=(5, net.input_dim))
        y, tape = net_forward(net, x)
        assert list(vars(tape)) == ["net_ref", "x", "post"]
        assert tape.x is x and tape.post[-1] is y
        assert [z.shape for z in tape.post] == [(5, l.weight.shape[0]) for l in net.layers]


@pytest.mark.parametrize("dtype, name", NET_CASES)
def test_a_gradient_is_the_list_of_the_nets_parameters(dtype, name):
    # one array per ``net.params()`` entry, of its shape and dtype, in its order
    net = NETS[dtype][name]
    rng = np.random.default_rng(19)
    x = rng.normal(size=(5, net.input_dim)).astype(dtype)
    g = rng.normal(size=(5, net.output_dim)).astype(dtype)
    _, tape = net_forward(net, x)
    grads, _ = net_backward(net, tape, g)
    _, d_grads = net_directional_param_grads(net, tape, x, g)
    want = [(np.ndarray, p.shape, p.dtype) for p in net.params()]
    for got in (grads, d_grads):
        assert type(got) is list
        assert [(type(a), a.shape, a.dtype) for a in got] == want
    assert net_backward(net, tape, g, param_grads=False)[0] is None


def default_policies(dtype) -> list[ActorCritic]:
    """The default stage-1 and stage-2 policies of ``dtype``; the residual's
    zero output layers get weights."""
    cfg, rng = RunConfig(), np.random.default_rng(21)
    out = [ActorCritic(cfg.model, cfg.env, cfg.arch, PolicyMode(stage=stage), seed=3, dtype=dtype)
           for stage in (1, 2)]
    for net in [*out[1].residual.experts, out[1].residual.gate]:
        net.layers[-1].weight[:] = rng.normal(0.0, 0.3, net.layers[-1].weight.shape)
    return out


POLICIES = {dtype: default_policies(dtype) for dtype in (np.float64, np.float32)}
DISCS = {dtype: make_discriminators(1, WINDOW_LEN * N_JOINTS, np.random.default_rng(22),
                                    hidden=RunConfig().amp.disc_hidden, dtype=dtype).nets[0]
         for dtype in (np.float64, np.float32)}


def default_tapes(dtype, n_rows: int) -> list:
    """The tapes an update differentiates, over ``n_rows`` rows: both default
    policies' actor and critic passes over observation rows, as the PPO
    update makes them (the encoders and the critic read strided views of the
    rows), and a default discriminator's pass over as many windows."""
    cfg, rng = RunConfig(), np.random.default_rng(n_rows)
    slices = env_layout(cfg.model, cfg.env).slices
    rows = rng.normal(size=(n_rows, max(s.stop for s in slices.values()))).astype(np.float32)
    rows[:, slices["gait"]] = np.eye(cfg.env.n_gaits)[rng.integers(0, cfg.env.n_gaits, n_rows)]
    batch = BundleBatch(rows, slices)
    tapes = []
    for policy in POLICIES[dtype]:
        _, cache = policy.actor_mean(batch)
        tapes += [cache.scan_tape, cache.hist_tape, cache.trunk_tape, cache.head_tape,
                  policy.critic_value(batch)[1]]
        if cache.residual is not None:
            tapes += [*cache.residual.expert_tapes, cache.residual.gate_tape]
    windows = rng.normal(size=(n_rows, WINDOW_LEN * N_JOINTS)).astype(dtype)
    return [*tapes, net_forward(DISCS[dtype], windows)[1]]


@pytest.mark.parametrize("n_rows", [1, 37, 64, 512])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_backward_product_has_the_bits_of_matmul(dtype, n_rows):
    # the backward rules form every product with ``dot``: on the default nets'
    # tapes at these batch sizes, ``dot`` has the bits of ``@``
    rng = np.random.default_rng(20)
    for i, tape in enumerate(default_tapes(dtype, n_rows)):
        net = tape.net_ref
        g = rng.normal(size=(n_rows, net.output_dim)).astype(dtype)
        v = rng.normal(size=tape.x.shape).astype(dtype)
        grads, gx = net_backward(net, tape, g)
        ref_w, ref_b, ref_gx = ref_net_backward(net, tape.x, g)
        assert bits(gx) == bits(ref_gx), i
        assert [bits(a) for a in grads] == [bits(a) for wb in zip(ref_w, ref_b) for a in wb], i
        h, d_grads = net_directional_param_grads(net, tape, v, g)
        ref_h, ref_w, ref_b = ref_net_directional_param_grads(net, tape.x, v, g)
        assert bits(h) == bits(ref_h), i
        assert [bits(a) for a in d_grads] == [bits(a) for wb in zip(ref_w, ref_b) for a in wb], i


class TestDirectionalParamGrads:
    def test_matches_finite_differences_of_input_grad_norm(self):
        # grads of h = v . grad_x(f) for fixed v equal d/dtheta of that dot product
        rng = np.random.default_rng(10)
        net = make_net([4, 8, 5, 1], rng, hidden_activation="tanh", dtype=np.float64)
        x = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))

        def h_of_params():
            _, tape = net_forward(net, x)
            _, gx = net_backward(net, tape, np.ones((1, 1)))
            return float(np.sum(v * gx))

        _, tape = net_forward(net, x)
        h, grads = net_directional_param_grads(net, tape, v, np.ones((1, 1)))
        assert abs(h[0] - h_of_params()) <= 1e-10
        fd = central_diff_params(h_of_params, net.params())
        for analytic, numeric in zip(grads, fd):
            assert rel_err(analytic, numeric, floor=1e-6) <= 1e-4

    def test_batched_rows_independent(self):
        rng = np.random.default_rng(11)
        net = make_net([3, 6, 1], rng, dtype=np.float64)
        xs = rng.normal(size=(4, 3))
        vs = rng.normal(size=(4, 3))
        _, tape = net_forward(net, xs)
        hb, gb = net_directional_param_grads(net, tape, vs, np.ones((4, 1)))
        acc = None
        for i in range(4):
            _, ti = net_forward(net, xs[i : i + 1])
            hi, gi = net_directional_param_grads(net, ti, vs[i : i + 1], np.ones((1, 1)))
            assert abs(hb[i] - hi[0]) <= 1e-12
            if acc is None:
                acc = gi
            else:
                for a, b in zip(acc, gi):
                    a += b
        for a, b in zip(gb, acc):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = [np.array([1.0, -2.0]), np.array([[3.0]])]
        st_ = AdamState(p, lr=0.1)
        adam_step(p, [np.zeros(2), np.zeros((1, 1))], st_)
        np.testing.assert_array_equal(p[0], [1.0, -2.0])
        np.testing.assert_array_equal(p[1], [[3.0]])
        assert st_.step_count == 1

    def test_first_step_magnitude_and_sign(self):
        # bias-corrected first step moves by ~lr against the gradient sign
        for g in (0.7, -2.5):
            p = [np.array([0.0])]
            st_ = AdamState(p, lr=1e-3)
            adam_step(p, [np.array([g])], st_)
            assert np.sign(p[0][0]) == -np.sign(g)
            assert abs(abs(p[0][0]) - 1e-3) < 1e-6

    def test_two_steps_equal_one_double_lr_step_only_without_momentum(self):
        # With beta1 = beta2 = 0 the update is state-free, so two unit steps
        # regroup exactly into one double-length step.  With momentum the
        # moment recursions carry memory (seeded here by a warm-up gradient
        # so the memory is visible) and the grouping changes the result.
        g0 = [np.array([2.0, -1.0])]
        g = [np.array([0.8, -1.3])]

        def run(betas, lr, n_steps):
            p = [np.array([0.5, 0.5])]
            s = AdamState(p, lr=1e-2, beta1=betas[0], beta2=betas[1])
            adam_step(p, g0, s)  # warm-up seeds the moments
            s.lr = lr
            for _ in range(n_steps):
                adam_step(p, g, s)
            return p[0]

        np.testing.assert_allclose(
            run((0.0, 0.0), 1e-2, 2), run((0.0, 0.0), 2e-2, 1), atol=1e-15
        )
        diff = run((0.9, 0.999), 1e-2, 2) - run((0.9, 0.999), 2e-2, 1)
        assert np.max(np.abs(diff)) > 1e-9


# The updates step Adam only on what ``finite_step`` passes (the finite rule);
# test_ppo and test_trainer check that a refused step leaves every parameter
# and moment as the snapshot holds it.
def test_finite_step_refuses_a_non_finite_loss_or_gradient():
    grads = [np.array([0.5, 0.5]), np.ones((2, 2), dtype=np.float32)]
    assert finite_step(1.0, grads)
    assert finite_step(1.0, [])
    for bad in (np.nan, np.inf, -np.inf):
        assert not finite_step(bad, grads)
        for i in range(len(grads)):
            poked = [g.copy() for g in grads]
            poked[i].flat[-1] = bad
            assert not finite_step(1.0, poked)


_GRAD_FLOATS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


def _draw_arrays(data, shapes) -> list[np.ndarray]:
    return [np.array(data.draw(st.lists(_GRAD_FLOATS, min_size=n * m, max_size=n * m)))
            .reshape(n, m) for n, m in shapes]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_adam_step_matches_the_expression_bit_for_bit(data):
    n = data.draw(st.integers(1, 5), label="n")
    shapes = [(1, n), (2, n)]
    ours = _draw_arrays(data, shapes)
    ref = [p.copy() for p in ours]
    lr = data.draw(st.sampled_from([3e-4, 1e-3, 0.5]), label="lr")
    s_ours, s_ref = AdamState(ours, lr=lr), AdamState(ref, lr=lr)
    s_ours.step_count = s_ref.step_count = data.draw(st.integers(0, 10**6), label="t0")
    with np.errstate(all="ignore"):  # a huge gradient may overflow its square
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            grads = _draw_arrays(data, shapes)
            adam_step(ours, grads, s_ours)
            ref_adam_step(ref, grads, s_ref)
            assert s_ours.step_count == s_ref.step_count
            for a, b in zip(ours + s_ours.m + s_ours.v, ref + s_ref.m + s_ref.v):
                assert bits(a) == bits(b)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.ones(3) / 3, rtol=1e-15)

    def test_saturation(self):
        y = softmax(np.array([100.0, 0.0, 0.0]))
        assert y[0] >= 1.0 - 1e-20

    def test_shift_invariance(self):
        w = np.array([0.3, -1.0, 2.5])
        np.testing.assert_array_equal(softmax(w), softmax(w + 7.0))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_probability_vector_for_any_finite_input(self, ws):
        y = softmax(np.array(ws))
        assert np.all(np.isfinite(y))
        assert np.all(y >= 0.0)
        assert abs(float(y.sum()) - 1.0) <= 1e-12


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact_round_trip(self, dtype):
        rng = np.random.default_rng(12)
        net = make_net([5, 9, 4], rng, dtype=dtype)
        # deliberately awkward values
        net.layers[0].weight[0, 0] = np.nextafter(dtype(1.0), dtype(2.0))
        net.layers[1].bias[1] = -0.0
        restored = decode(DenseNet, encode(net))
        for a, b in zip(net.params(), restored.params()):
            assert bits(a) == bits(b)
        doc = encode(net)
        assert [l["activation"] for l in doc["manifest"]["layers"]] == ["tanh", "identity"]
        assert doc["flat"]["dtype"] == np.dtype(dtype).newbyteorder("<").str

    @pytest.mark.parametrize("dtype", ["<f2", "<i8", "|b1"])
    def test_a_packed_array_of_another_dtype_is_refused(self, dtype):
        doc = encode(make_net([3, 2], np.random.default_rng(13)))
        doc["flat"]["dtype"] = dtype
        with pytest.raises(ValueError, match="flat.dtype: expected one of"):
            decode(DenseNet, doc)
        with pytest.raises(ValueError, match="float32 or float64"):
            encode(np.zeros(3, dtype), PackedArray)

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(13)
        net = make_net([3, 2], rng)
        doc = encode(net)
        flat = decode(PackedArray, doc["flat"])
        doc["flat"] = encode(flat[:-1], PackedArray)
        with pytest.raises(ValueError):
            decode(DenseNet, doc)
