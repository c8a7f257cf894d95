import numpy as np
import pytest

from gaitrl.amp import (
    DiscriminatorSet,
    WindowBuffer,
    amp_update,
    disc_parts,
    discriminator_loss,
    make_discriminators,
    style_reward,
    style_reward_value,
)
from gaitrl.biped import N_JOINTS
from gaitrl.nets import AdamState, DenseNet, Layer, Snapshot
from gaitrl.refmotion import WINDOW_LEN

from oracles import central_diff_params, disc_scores, held_windows, rel_err


def constant_net(dim, value):
    return DenseNet([Layer(np.zeros((1, dim)), np.array([value]), "identity")])


class TestDiscriminatorLoss:
    def test_constant_one_alpha_zero(self):
        net = constant_net(10, 1.0)
        rng = np.random.default_rng(0)
        real, fake = rng.normal(size=(8, 10)), rng.normal(size=(6, 10))
        loss, _, m = discriminator_loss(net, real, fake, alpha_gp=0.0)
        assert loss == pytest.approx(4.0, abs=1e-12)
        assert m["loss_real"] == pytest.approx(0.0)
        assert m["loss_fake"] == pytest.approx(4.0)

    def test_constant_zero_alpha_zero(self):
        net = constant_net(10, 0.0)
        rng = np.random.default_rng(1)
        loss, _, _ = discriminator_loss(
            net, rng.normal(size=(5, 10)), rng.normal(size=(7, 10)), alpha_gp=0.0
        )
        assert loss == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 10.0])
    def test_full_gradient_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(2)
        discs = make_discriminators(1, 6, rng, hidden=(8, 5), alpha_gp=alpha, dtype=np.float64)
        net = discs.nets[0]
        real = rng.normal(size=(4, 6))
        fake = rng.normal(size=(3, 6))

        def scalar():
            loss, _, _ = discriminator_loss(net, real, fake, alpha)
            return loss

        _, grads, _ = discriminator_loss(net, real, fake, alpha)
        fd = central_diff_params(scalar, net.params())
        for analytic, numeric in zip(grads.params(), fd):
            assert rel_err(analytic, numeric, floor=1e-6) <= 1e-4

    def test_batch_shuffle_invariance(self):
        rng = np.random.default_rng(3)
        discs = make_discriminators(1, 6, rng, hidden=(8,), dtype=np.float64)
        net = discs.nets[0]
        real = rng.normal(size=(10, 6))
        fake = rng.normal(size=(9, 6))
        l1, g1, _ = discriminator_loss(net, real, fake, 10.0)
        perm_r = rng.permutation(10)
        perm_f = rng.permutation(9)
        l2, g2, _ = discriminator_loss(net, real[perm_r], fake[perm_f], 10.0)
        assert l1 == pytest.approx(l2, rel=1e-12)
        for a, b in zip(g1.params(), g2.params()):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(4)
        discs = make_discriminators(1, 6, rng)
        with pytest.raises(ValueError):
            discriminator_loss(discs.nets[0], np.zeros((0, 6)), np.zeros((3, 6)), 0.0)


class TestStyleReward:
    def test_closed_form_values(self):
        assert style_reward_value(1.0) == pytest.approx(1.0)
        assert style_reward_value(-1.0) == pytest.approx(0.0)
        assert style_reward_value(0.0) == pytest.approx(0.75)
        assert style_reward_value(3.0) == pytest.approx(0.0)

    def test_routing_selects_commanded_discriminator(self):
        nets = [constant_net(30, v) for v in (1.0, 0.0, -1.0)]
        discs = DiscriminatorSet(nets=nets)
        w = np.zeros(30)
        assert style_reward(w[None], [0], discs)[0] == pytest.approx(1.0)
        assert style_reward(w[None], [1], discs)[0] == pytest.approx(0.75)
        assert style_reward(w[None], [2], discs)[0] == pytest.approx(0.0)

    def test_a_set_has_one_dtype(self):
        # the trainer writes the style windows in the set's dtype
        nets = [constant_net(30, 0.0), make_discriminators(1, 30, np.random.default_rng(0)).nets[0]]
        with pytest.raises(ValueError, match="^every discriminator of a set has one dtype$"):
            DiscriminatorSet(nets=nets)
        assert DiscriminatorSet(nets=nets[1:]).dtype == np.float32

    def test_perturbing_unselected_discriminator_changes_nothing(self):
        rng = np.random.default_rng(5)
        discs = make_discriminators(3, 30, rng, hidden=(16,))
        w = rng.normal(size=30)
        before = style_reward(w[None], [1], discs)[0]
        discs.nets[0].layers[0].weight += 5.0
        discs.nets[2].layers[0].weight -= 3.0
        assert style_reward(w[None], [1], discs)[0] == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_batch_scores_each_row_at_the_bits_of_a_batch_of_one(self, dtype):
        rng = np.random.default_rng(8)
        discs = make_discriminators(3, WINDOW_LEN * N_JOINTS, rng, dtype=dtype)
        for net in discs.nets:
            for layer in net.layers:
                layer.bias[:] = rng.normal(0.0, 0.3, layer.bias.shape)
        for n in range(1, 131):
            windows = rng.normal(0.0, 0.7, (n, WINDOW_LEN * N_JOINTS))
            # every other batch leaves gait 2 without a row
            gait_ids = rng.integers(0, 3 if n % 2 else 2, n)
            got = style_reward(windows, gait_ids, discs)
            want = [style_reward_value(float(disc_scores(discs.nets[g], w[None])[0]))
                    for w, g in zip(windows, gait_ids.tolist())]
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want).tobytes(), n

    def test_a_batch_has_one_gait_id_per_window_in_range(self):
        discs = make_discriminators(3, 30, np.random.default_rng(0))
        windows = np.zeros((4, 30))
        assert style_reward(windows[:0], [], discs).shape == (0,)
        with pytest.raises(ValueError, match="expected \\[n, window_dim\\] and \\[n\\]$"):
            style_reward(windows, [0, 1, 2], discs)
        with pytest.raises(ValueError, match="expected \\[n, window_dim\\] and \\[n\\]$"):
            style_reward(windows[0], [0], discs)
        for bad in (3, -1):
            with pytest.raises(ValueError, match="^a gait id outside the 3 discriminators$"):
                style_reward(windows, [0, 1, bad, 2], discs)

    def test_bounded_for_any_score(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            v = style_reward_value(float(rng.uniform(-50, 50)))
            assert 0.0 <= v <= 1.0
        # clamp boundary exactness
        assert style_reward_value(-1.0) == 0.0
        assert style_reward_value(3.0) == 0.0


class TestAmpUpdate:
    def make_setup(self, seed=0, n_gaits=1, dim=8):
        rng = np.random.default_rng(seed)
        discs = make_discriminators(n_gaits, dim, rng, hidden=(16,), alpha_gp=5.0)
        opts = [AdamState(n.params(), lr=1e-3) for n in discs.nets]
        return rng, discs, opts

    def test_separable_distributions_learned(self):
        rng, discs, opts = self.make_setup()
        dim = 8
        refs = {0: rng.normal(1.5, 0.3, size=(512, dim))}
        buf = WindowBuffer(1, dim, capacity=4096)
        buf.add(0, rng.normal(-1.5, 0.3, size=(512, dim)))
        for _ in range(500):
            amp_update(discs, refs, buf, opts, rng,
                       Snapshot(disc_parts(discs, opts)), batch_size=64)
        mr = float(np.mean(disc_scores(discs.nets[0], refs[0])))
        mf = float(np.mean(disc_scores(discs.nets[0], held_windows(buf, 0))))
        assert mr > 0.8
        assert mf < -0.8

    def test_identical_distributions_converge_to_zero(self):
        rng, discs, opts = self.make_setup(seed=1)
        dim = 8
        data = rng.normal(0.0, 1.0, size=(1024, dim))
        refs = {0: data[:512]}
        buf = WindowBuffer(1, dim)
        buf.add(0, data[512:])
        for _ in range(500):
            amp_update(discs, refs, buf, opts, rng,
                       Snapshot(disc_parts(discs, opts)), batch_size=64)
        mr = float(np.mean(disc_scores(discs.nets[0], refs[0])))
        mf = float(np.mean(disc_scores(discs.nets[0], held_windows(buf, 0))))
        assert abs(mr) < 0.35
        assert abs(mf) < 0.35
        _, _, m = discriminator_loss(discs.nets[0], refs[0], held_windows(buf, 0), 0.0)
        assert abs(m["loss"] - 2.0) < 0.5

    def test_large_penalty_shrinks_reference_gradients(self):
        rng, discs, opts = self.make_setup(seed=2)
        discs.alpha_gp = 1000.0
        dim = 8
        refs = {0: rng.normal(0.5, 0.5, size=(256, dim))}
        buf = WindowBuffer(1, dim)
        buf.add(0, rng.normal(-0.5, 0.5, size=(256, dim)))
        _, _, first = discriminator_loss(discs.nets[0], refs[0], held_windows(buf, 0), discs.alpha_gp)
        for _ in range(300):
            amp_update(discs, refs, buf, opts, rng,
                       Snapshot(disc_parts(discs, opts)), batch_size=64)
        _, _, last = discriminator_loss(discs.nets[0], refs[0], held_windows(buf, 0), discs.alpha_gp)
        assert last["grad_norm"] < first["grad_norm"]

    def test_empty_policy_buffer_skipped_with_warning(self, caplog):
        rng, discs, opts = self.make_setup(seed=3)
        refs = {0: rng.normal(size=(64, 8))}
        buf = WindowBuffer(1, 8)
        with caplog.at_level("WARNING"):
            m = amp_update(discs, refs, buf, opts, rng, Snapshot(disc_parts(discs, opts)))
        assert m["disc0"] == {"skipped": True}
        assert any("empty policy buffer" in r.message for r in caplog.records)
        assert opts[0].step_count == 0


class TestWindowBuffer:
    def test_fifo_capacity(self):
        buf = WindowBuffer(2, 4, capacity=10)
        buf.add(0, np.arange(48, dtype=float).reshape(12, 4))
        assert buf.size(0) == 10
        np.testing.assert_array_equal(held_windows(buf, 0)[-1], np.arange(44, 48))
        np.testing.assert_array_equal(held_windows(buf, 0)[0], np.arange(8, 12))
        assert buf.size(1) == 0

    def test_ring_keeps_fifo_order_across_wraps(self):
        buf = WindowBuffer(1, 2, capacity=5)
        rows = np.arange(26, dtype=float).reshape(13, 2)
        for start, stop in ((0, 3), (3, 7), (7, 8), (8, 13)):
            buf.add(0, rows[start:stop])
            kept = rows[max(0, stop - 5) : stop]
            assert buf.size(0) == len(kept)
            np.testing.assert_array_equal(held_windows(buf, 0), kept)

    def test_sample_maps_the_draw_oldest_first(self):
        buf = WindowBuffer(2, 3, capacity=7)
        rows = np.arange(60, dtype=float).reshape(20, 3)
        buf.add(1, rows[:4])
        buf.add(1, rows[4:15])  # wraps: the ring holds rows 8..14
        oldest_first = held_windows(buf, 1)
        drawn = buf.sample(1, 50, np.random.default_rng(4))
        idx = np.random.default_rng(4).integers(0, 7, size=7)
        np.testing.assert_array_equal(drawn, oldest_first[idx])

    def test_rings_hold_float32_with_the_bits_of_the_old_cast(self):
        # the trainer cuts float64 windows; the rings held float64 until the
        # discriminators' input cast rounded each sampled row once
        rng = np.random.default_rng(5)
        windows = rng.normal(size=(40, 30))
        buf = WindowBuffer(1, 30, capacity=32)
        for start in range(0, 40, 7):
            buf.add(0, windows[start : start + 7])
        drawn = buf.sample(0, 64, np.random.default_rng(9))
        assert drawn.dtype == np.float32
        old = windows[8:][np.random.default_rng(9).integers(0, 32, size=32)]
        assert drawn.tobytes() == np.asarray(old, dtype=np.float32).tobytes()
        net = make_discriminators(1, 30, rng).nets[0]
        assert disc_scores(net, drawn).tobytes() == disc_scores(net, old).tobytes()

        # the trainer's style rows hold float32 frames; float64 frames, rounded
        # by the discriminators' input cast and by ``add``, gave the same style
        # scores and the same rows the discriminators sample
        discs = make_discriminators(3, WINDOW_LEN * N_JOINTS, rng)
        frames = {dt: np.zeros(WINDOW_LEN * N_JOINTS, dt) for dt in (np.float64, np.float32)}
        bufs = {dt: WindowBuffer(3, WINDOW_LEN * N_JOINTS, capacity=8) for dt in frames}
        for step in range(40):
            q = rng.normal(0.0, 0.7, N_JOINTS)
            scores = {}
            for dt, f in frames.items():
                f[:-N_JOINTS] = f[N_JOINTS:]
                f[-N_JOINTS:] = q
                scores[dt] = style_reward(f[None], [step % 3], discs)[0]
                bufs[dt].add(step % 3, f[None, :])
            assert scores[np.float32].hex() == scores[np.float64].hex()
        assert frames[np.float32].dtype == np.float32
        for g in range(3):
            rows = {dt: buf.sample(g, 16, np.random.default_rng(g)) for dt, buf in bufs.items()}
            assert rows[np.float32].tobytes() == rows[np.float64].tobytes()
