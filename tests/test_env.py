import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitrl.env as env_module
from gaitrl.biped import N_JOINTS, PITCH_RATE, STATE_FIELDS, TIME, BipedModel
from gaitrl.controllers import ScriptedWalker
from gaitrl.env import (
    BLOCKS,
    DR_RANGES,
    CommandState,
    DRConfig,
    EnvConfig,
    TERMINATIONS,
    ObservationBundle,
    TerrainEnv,
    obs_dims,
    obs_slices,
    one_hot,
    sample_dr,
)
from gaitrl.policy import PolicyArch, PolicyMode, _input_widths
from gaitrl.terrain import generate_terrain

from oracles import env_commands, heights_at, ref_normalize, ref_o_t, sample_height_scan


@pytest.fixture
def model():
    return BipedModel()


@pytest.fixture
def flat():
    return generate_terrain("flat", 0.0, seed=0)


def scan_queue(env):
    """The env's last current scans (raw), newest last, as of its batch's
    last pass (reading ``rows`` runs one): its row's scans are ``[-2 - d]``
    and ``[-1 - d]`` for the scan delay ``d``."""
    env.batch.rows
    return env.batch.scan_queue[env.index]


def fresh_env(model, flat, seed=0, **cfg_kwargs):
    env = TerrainEnv(model, EnvConfig(**cfg_kwargs), seed=seed)
    env.reset(flat, DRConfig(), CommandState(gait=np.zeros(3)))
    return env


class TestReset:
    def test_base_height_is_nominal_standing_height(self, model, flat):
        env = fresh_env(model, flat)
        assert env.state.z == pytest.approx(model.standing_height(), abs=1e-12)
        np.testing.assert_array_equal(env.state.joint_pos, model.nominal())

    def test_initial_joint_scale_applies(self, model, flat):
        env = TerrainEnv(model, EnvConfig(), seed=0)
        env.reset(flat, DRConfig(init_joint_scale=1.5), CommandState(gait=np.zeros(3)))
        expected = np.clip(1.5 * model.nominal(), model.lower(), model.upper())
        np.testing.assert_allclose(env.state.joint_pos, expected)

    def test_same_seed_identical_bundle(self, model, flat):
        bundles = []
        for _ in range(2):
            env = TerrainEnv(model, EnvConfig(), seed=5)
            env.reset(flat, DRConfig(scan_noise=0.03), CommandState(v_cmd=0.4, gait=one_hot(1, 3)))
            bundles.append(env.bundle)
        b1, b2 = bundles
        for a, b in zip(
            (b1.o, b1.hist, b1.scans, b1.m, b1.e), (b2.o, b2.hist, b2.scans, b2.m, b2.e)
        ):
            np.testing.assert_array_equal(a, b)

    def test_spawn_over_void_rejected(self, model):
        gap = generate_terrain("gap", 1.0, seed=1)
        start = gap.obstacles[0].start * gap.cell_size
        env = TerrainEnv(model, EnvConfig(spawn_x=start + 0.1), seed=0)
        with pytest.raises(ValueError):
            env.reset(gap, DRConfig(), CommandState(gait=np.zeros(3)))


class TestStep:
    def test_zero_action_stands_100_steps(self, model, flat):
        env = fresh_env(model, flat)
        for _ in range(100):
            res = env.step(np.zeros(N_JOINTS))
            assert res.termination == "none"
        assert abs(env.state.pitch) < 0.05
        assert env.state.z > 0.7

    def test_action_delay_two_steps(self, model, flat):
        # identical zero-prefixed sequences diverge exactly at the delay horizon
        kick = np.full(N_JOINTS, 2.0)
        trajs = {}
        for label, actions in (
            ("kick", [kick, np.zeros(N_JOINTS), np.zeros(N_JOINTS), np.zeros(N_JOINTS)]),
            ("zero", [np.zeros(N_JOINTS)] * 4),
        ):
            env = TerrainEnv(model, EnvConfig(), seed=0)
            env.reset(flat, DRConfig(action_delay_ms=40.0), CommandState(gait=np.zeros(3)))
            assert env.dr.action_delay_steps(env.cfg.dt) == 2
            traj = []
            for a in actions:
                env.step(a)
                traj.append(env.state.joint_pos.copy())
            trajs[label] = traj
        np.testing.assert_array_equal(trajs["kick"][0], trajs["zero"][0])
        np.testing.assert_array_equal(trajs["kick"][1], trajs["zero"][1])
        assert not np.array_equal(trajs["kick"][2], trajs["zero"][2])

    def test_walking_into_gap_falls(self, model):
        gap = generate_terrain("gap", 1.0, seed=3)
        env = TerrainEnv(model, EnvConfig(max_episode_s=40.0), seed=0)
        env.reset(gap, DRConfig(), CommandState(v_cmd=0.6, gait=np.zeros(3)))
        walker = ScriptedWalker(model)
        last = None
        for _ in range(2000):
            last = env.step(walker.act(None, env.state))
            if last.done:
                break
        assert last.termination == "fall"
        # it fell at the first gap, not at the end of the track
        first_gap_x = gap.obstacles[0].start * gap.cell_size
        assert env.state.x < first_gap_x + 1.0

    def test_nan_action_raises_and_leaves_state(self, model, flat):
        env = fresh_env(model, flat)
        env.step(np.zeros(N_JOINTS))
        snap = env.state.copy()
        bad = np.zeros(N_JOINTS)
        bad[2] = np.nan
        with pytest.raises(ValueError):
            env.step(bad)
        np.testing.assert_array_equal(env.state.joint_pos, snap.joint_pos)
        assert env.state.time == snap.time

    def test_out_of_bound_action_rejected(self, model, flat):
        env = fresh_env(model, flat)
        with pytest.raises(ValueError):
            env.step(np.full(N_JOINTS, model.action_bound + 1.0))

    def test_ballistic_flight(self, model, flat):
        # airborne base follows semi-implicit gravity integration exactly
        env = fresh_env(model, flat)
        env.state.z += 1.0
        z0 = env.state.z
        n_sub = 0
        h = env.cfg.dt / env.cfg.substeps
        for _ in range(10):
            env.step(np.zeros(N_JOINTS))
            n_sub += env.cfg.substeps
        g = model.gravity
        expect_vz = -g * h * n_sub
        expect_z = z0 - g * h * h * (n_sub * (n_sub + 1) / 2.0)
        assert env.state.vz == pytest.approx(expect_vz, abs=1e-9)
        assert env.state.z == pytest.approx(expect_z, abs=1e-9)

    def test_deterministic_trajectories(self, model, flat):
        rng = np.random.default_rng(0)
        actions = [rng.uniform(-1, 1, N_JOINTS) for _ in range(50)]
        states = []
        for _ in range(2):
            env = TerrainEnv(model, EnvConfig(), seed=3)
            env.reset(flat, DRConfig(scan_noise=0.02), CommandState(v_cmd=0.5, gait=np.zeros(3)))
            tr = []
            for a in actions:
                res = env.step(a)
                tr.append((env.state.x, env.state.z, env.state.pitch, env.bundle.o.tobytes()))
                if res.done:
                    break
            states.append(tr)
        assert states[0] == states[1]

    def test_timeout_termination(self, model, flat):
        env = fresh_env(model, flat, max_episode_s=0.1)
        for i in range(5):
            res = env.step(np.zeros(N_JOINTS))
            if res.done:
                break
        assert res.termination == "timeout"
        assert i == 4


class TestHeightScan:
    """The env's current scan (``scan_queue(env)[-1]``, raw) against the sensor model."""

    def test_flat_reads_negative_base_height(self, model, flat):
        env = fresh_env(model, flat)
        np.testing.assert_allclose(scan_queue(env)[-1], -env.state.z, atol=1e-12)

    def test_step_geometry(self, model, flat):
        hf = generate_terrain("flat", 0.0, seed=0)
        i0 = hf.cell_at(1.0)  # 0.2 m step starting 0.5 m ahead of base at 0.5
        hf.heights[i0:] = 0.2
        env = fresh_env(model, hf)
        scan = scan_queue(env)[-1]
        for k, off in enumerate(env.cfg.scan_offsets()):
            expect = (0.2 if off >= 0.5 else 0.0) - env.state.z
            assert scan[k] == pytest.approx(expect, abs=1e-9)

    def test_noise_sigma_statistics(self, model, flat):
        # each reset draws the noise of its first scan
        env = TerrainEnv(model, EnvConfig(scan_points=8), seed=7)
        scans = []
        for _ in range(10_000):
            env.reset(flat, DRConfig(scan_noise=0.05), CommandState(gait=np.zeros(3)))
            scans.append(scan_queue(env)[-1] + env.state.z)
        stds = np.stack(scans).std(axis=0)
        assert np.all(np.abs(stds - 0.05) < 0.005)

    def test_bias_applied(self, model, flat):
        env = TerrainEnv(model, EnvConfig(), seed=0)
        env.reset(flat, DRConfig(scan_bias=0.15), CommandState(gait=np.zeros(3)))
        # the bias's sign is drawn per episode
        bias = env.batch.scan_bias[env.index]
        assert abs(bias) == 0.15
        np.testing.assert_allclose(scan_queue(env)[-1], -env.state.z + bias, atol=1e-12)

    def test_blind_mode_zeroes_scan(self, model, flat):
        env = TerrainEnv(model, EnvConfig(blind=True), seed=0)
        env.reset(flat, DRConfig(), CommandState(gait=np.zeros(3)))
        b = env.bundle
        zeros = np.zeros(env.dims["d_scan"])
        assert b.scans.tobytes() == ref_normalize(model, env.cfg, "scans", zeros).tobytes()

    def test_scan_delay_one_step(self, model):
        hf = generate_terrain("flat", 0.0, seed=0)
        env = TerrainEnv(model, EnvConfig(), seed=0)
        env.reset(hf, DRConfig(scan_delay_ms=8.0), CommandState(gait=np.zeros(3)))
        assert env.dr.scan_delay_steps() == 1
        k = env.cfg.scan_points
        # lift the robot: current scan changes immediately, delivered scan lags a step
        env.state.z += 0.5
        env.step(np.zeros(N_JOINTS))
        delivered_now = env.bundle.scans
        fresh, lagged = scan_queue(env)[-1], scan_queue(env)[-2]
        assert not np.allclose(fresh, lagged)
        expected = ref_normalize(model, env.cfg, "scans", np.concatenate([scan_queue(env)[-3], lagged]))
        assert delivered_now.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(("delay_ms", "d"), [(0.0, 0), (8.0, 1), (24.0, 3), (28.0, 4), (40.0, 5)])
    def test_scan_delay_delivers_the_scans_d_steps_back(self, model, delay_ms, d):
        rough = generate_terrain("rough", 0.8, seed=4)
        env = TerrainEnv(model, EnvConfig(), seed=0)
        env.reset(rough, DRConfig(scan_delay_ms=delay_ms), CommandState(gait=np.zeros(3)))
        bundle = env.bundle
        assert env.dr.scan_delay_steps() == d
        walker, k = ScriptedWalker(model), env.cfg.scan_points
        current, rows = [], []  # S_t: the scan at each row's state, no noise or bias
        for _ in range(d + 12):
            st_ = env.state
            current.append(sample_height_scan(rough, st_.x, st_.z, env.cfg.scan_offsets(),
                                              clip=env.cfg.scan_clip))
            rows.append(bundle.scans.copy())
            res = env.step(walker.act(bundle, env.state))
            assert not res.done
            bundle = env.bundle
        assert all(not np.array_equal(a, b) for a, b in zip(current, current[1:]))
        for t, scans in enumerate(rows):
            raw = np.concatenate([current[max(t - 1 - d, 0)], current[max(t - d, 0)]])
            assert scans.tobytes() == ref_normalize(model, env.cfg, "scans", raw).tobytes(), t
            # the history rule: the previous scan is the row before's current scan
            before = rows[t - 1][k:] if t else scans[k:]
            assert scans[:k].tobytes() == before.tobytes(), t


class TestPush:
    """Pushes through ``env.step``, with the physics replaced by a clock: the
    base velocity moves only when a push lands."""

    @staticmethod
    def base_velocity_per_step(monkeypatch, model, flat, push_vel_max):
        def clock(model, state, tau, terrain, dt, *args):
            state[TIME] += dt

        monkeypatch.setattr(env_module, "substep", clock)
        env = TerrainEnv(model, EnvConfig(push_vel_max=push_vel_max), seed=0)
        env.reset(flat, DRConfig(), CommandState(gait=np.zeros(3)))
        starts, vx = [], []
        while env.state.time < 16.5:
            starts.append(env.state.time)
            env.step(np.zeros(N_JOINTS))
            vx.append(env.state.vx)
        return np.array(starts), np.array(vx)

    def test_applied_on_schedule(self, monkeypatch, model, flat):
        starts, vx = self.base_velocity_per_step(monkeypatch, model, flat, 0.5)
        # the env's stream: the scan-bias sign at reset, then one draw a push
        rng = np.random.default_rng(np.random.SeedSequence(0))
        rng.random()
        first, second = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        assert first != 0.0 and second != 0.0
        # a push lands on the first step that starts at each multiple of 8 s
        at_8, at_16 = (int(np.argmax(starts > t - 1e-9)) for t in (8.0, 16.0))
        assert starts[at_8 - 1] < 8.0 - 1e-9 and starts[at_16 - 1] < 16.0 - 1e-9
        expected = np.zeros(len(vx))
        expected[at_8:] = first
        expected[at_16:] = first + second
        assert vx.tobytes() == expected.tobytes()

    def test_zero_magnitude_leaves_state(self, monkeypatch, model, flat):
        _, vx = self.base_velocity_per_step(monkeypatch, model, flat, 0.0)
        assert not vx.any()


class TestSampleDR:
    def test_friction_statistics(self):
        rng = np.random.default_rng(11)
        fr = np.array([sample_dr(rng).friction for _ in range(10_000)])
        assert fr.min() >= 0.5
        assert fr.max() <= 2.0
        assert abs(fr.mean() - 1.25) < 0.02

    def test_all_fields_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            dr = sample_dr(rng)
            for name, (lo, hi) in DR_RANGES.items():
                assert lo <= getattr(dr, name) <= hi

    def test_disabled_gives_identity(self):
        rng = np.random.default_rng(0)
        dr = sample_dr(rng, enabled=False)
        assert dr == DRConfig()
        ident = DRConfig()
        assert ident.friction == 1.0 and ident.scan_noise == 0.0 and ident.payload == 0.0

    def test_deterministic_in_seed(self):
        a = sample_dr(np.random.default_rng(42))
        b = sample_dr(np.random.default_rng(42))
        assert a == b


class TestObservationAssembly:
    def test_layout_arithmetic(self, model, flat):
        cfg = EnvConfig()
        dims = obs_dims(cfg)
        assert dims["d_o"] == 2 + 2 + 2 + 2 * N_JOINTS + N_JOINTS
        env = fresh_env(model, flat)
        env.step(np.zeros(N_JOINTS))
        b = env.bundle
        assert b.o.shape == (dims["d_o"],)
        assert b.hist.shape == (dims["d_hist"],)
        assert b.scans.shape == (dims["d_scan"],)
        assert b.m.shape == (dims["d_m"],)
        assert b.e.shape == (dims["d_e"],)
        # feet (4), contacts (2), true velocity (2) and the DR draw: no copy of o or hist
        assert dims["d_e"] == 4 + 2 + 2 + len(DR_RANGES) == 21

    def test_stationary_nominal_blocks(self, model, flat):
        env = fresh_env(model, flat)
        env.batch.rows  # the raw rows as of a pass
        o = env.batch.raw[env.index, env.slices["o"]]
        np.testing.assert_array_equal(o[0:2], 0.0)  # angular block
        np.testing.assert_allclose(o[2:4], [0.0, -1.0], atol=1e-12)  # gravity
        np.testing.assert_array_equal(o[4:6], 0.0)  # commands
        np.testing.assert_array_equal(o[6:12], model.nominal())

    def test_elevation_map_constant_on_flat(self, model, flat):
        env = fresh_env(model, flat)
        env.step(np.zeros(N_JOINTS))
        b = env.bundle
        assert np.allclose(b.m, b.m[0])

    def test_privileged_fields_absent_from_actor_inputs(self, model, flat):
        # other m/e columns must leave the actor-visible blocks untouched
        env = fresh_env(model, flat)
        env.step(np.zeros(N_JOINTS))
        b = env.bundle
        with pytest.raises(ValueError):  # a bundle is read-only
            b.m[:] = 99.0
        row = b.row.copy()
        row[b.slices["m"]] = 99.0
        row[b.slices["e"]] = -99.0
        c = ObservationBundle(row, b.slices)
        np.testing.assert_array_equal(c.o, b.o)
        np.testing.assert_array_equal(c.hist, b.hist)
        np.testing.assert_array_equal(c.scans, b.scans)

    @settings(max_examples=40, deadline=None)
    @given(
        history_len=st.integers(min_value=1, max_value=8),
        scan_points=st.integers(min_value=1, max_value=24),
        elev_points=st.integers(min_value=1, max_value=16),
        blind=st.booleans(),
        dr_enabled=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_each_block_has_its_width_and_e_holds_what_the_actor_never_sees(
        self, history_len, scan_points, elev_points, blind, dr_enabled, seed
    ):
        cfg = EnvConfig(history_len=history_len, scan_points=scan_points,
                        elev_points=elev_points, blind=blind)
        dims = obs_dims(cfg)
        rng = np.random.default_rng(seed)
        dr = sample_dr(rng, dr_enabled)
        env = TerrainEnv(BipedModel(), cfg, seed=seed)

        def assert_layout(bundle):
            for block, d in (("o", "d_o"), ("hist", "d_hist"), ("scans", "d_scan"),
                             ("m", "d_m"), ("e", "d_e"), ("gait", "d_gait")):
                assert getattr(bundle, block).shape == (dims[d],), block
            s = env.state
            (lx, lz), (rx, rz) = s.foot_pos.tolist()
            privileged = [lx - s.x, lz - s.z, rx - s.x, rz - s.z, *s.contact.astype(float), s.vx, s.vz]
            raw_e = np.concatenate([privileged, dr.as_vector()])
            assert bundle.e.tobytes() == ref_normalize(env.model, cfg, "e", raw_e).tobytes()

        env.reset(generate_terrain("rough", 0.5, seed=seed), dr,
                  CommandState(v_cmd=0.5, gait=one_hot(seed % 3, 3)))
        assert_layout(env.bundle)
        for _ in range(4):
            res = env.step(rng.uniform(-1.0, 1.0, N_JOINTS))
            assert_layout(env.bundle)
            if res.done:
                break

    @settings(max_examples=30, deadline=None)
    @given(
        history_len=st.integers(min_value=1, max_value=8),
        scan_points=st.integers(min_value=1, max_value=24),
        elev_points=st.integers(min_value=1, max_value=16),
        n_gaits=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_the_row_is_the_normalized_blocks_and_the_critic_reads_a_prefix(
        self, history_len, scan_points, elev_points, n_gaits, seed
    ):
        cfg = EnvConfig(history_len=history_len, scan_points=scan_points,
                        elev_points=elev_points, n_gaits=n_gaits)
        dims = obs_dims(cfg)
        sl = obs_slices(dims)
        # the blocks tile the row in BLOCKS order, with no gap or overlap
        col = 0
        for name, key in BLOCKS:
            assert (sl[name].start, sl[name].stop) == (col, col + dims[key]), name
            col = sl[name].stop
        for stage, last in ((1, "hist"), (2, "gait")):
            widths = _input_widths(dims, PolicyArch(), PolicyMode(stage=stage))
            assert widths["nets.critic"] == sl[last].stop, stage

        model = BipedModel()
        env = TerrainEnv(model, cfg, seed=seed)
        rng = np.random.default_rng(seed)
        dr = sample_dr(rng)
        terrain = generate_terrain("rough", 0.5, seed=seed)
        env.reset(terrain, dr, CommandState(v_cmd=0.5, gait=one_hot(seed % n_gaits, n_gaits)))
        bundle = env.bundle
        seen, last_action = [], np.zeros(N_JOINTS)
        for _ in range(history_len + 2):
            s = env.state
            o = ref_o_t(s, env_commands(env), last_action)
            seen = seen + [o] if seen else [o] * history_len
            d = env.dr.scan_delay_steps()
            (lx, lz), (rx, rz) = s.foot_pos.tolist()
            raw = {
                "m": heights_at(terrain, s.x + cfg.elev_offsets()) - s.z,
                "e": np.concatenate([[lx - s.x, lz - s.z, rx - s.x, rz - s.z,
                                      *s.contact.astype(float), s.vx, s.vz], dr.as_vector()]),
                "o": o,
                "hist": np.concatenate(seen[-history_len:]),
                "gait": env_commands(env).gait,
                "scans": np.concatenate([scan_queue(env)[-2 - d], scan_queue(env)[-1 - d]]),
            }
            for name, _ in BLOCKS:
                expected = ref_normalize(model, cfg, name, raw[name])
                assert getattr(bundle, name).tobytes() == expected.tobytes(), name
            last_action = rng.uniform(-1.0, 1.0, N_JOINTS)
            res = env.step(last_action)
            if res.done:
                break
            bundle = env.bundle

    def test_history_holds_past_observations(self, model, flat):
        env = fresh_env(model, flat)
        d_o = env.dims["d_o"]
        seen = []
        for _ in range(7):
            env.step(np.full(N_JOINTS, 0.1))
            seen.append(env.bundle.o.copy())
        hist = env.bundle.hist.reshape(env.cfg.history_len, d_o)
        np.testing.assert_array_equal(hist[-1], seen[-1])
        np.testing.assert_array_equal(hist[-2], seen[-2])


# -- divergence: a non-finite state ends its episode ----------------------------

SCALARS = ("x", "z", "pitch", "vx", "vz", "pitch_rate", "yaw_rate", "heading", "y_offset", "time")
COMPONENTS = [*SCALARS, *((name, j) for name in ("joint_pos", "joint_vel") for j in range(N_JOINTS))]


def poke(state, component, value):
    if isinstance(component, tuple):
        name, j = component
        getattr(state, name)[j] = value
    else:
        setattr(state, component, value)


def bundle_is_finite(bundle) -> bool:
    return all(np.isfinite(getattr(bundle, k)).all() for k in ("o", "hist", "scans", "m", "e"))


class TestDivergence:
    def walk(self, kind="gap", steps=5, seed=0):
        env = TerrainEnv(BipedModel(), EnvConfig(), seed=seed)
        env.reset(generate_terrain(kind, 0.5, seed=seed), DRConfig(), CommandState(v_cmd=0.5))
        res = None
        for _ in range(steps):
            res = env.step(np.full(N_JOINTS, 0.1))
        return env, res

    def test_nan_velocity_ends_the_episode_as_diverged(self):
        assert "diverged" in TERMINATIONS
        env, last = self.walk()
        before = env.bundle
        env.state.vx = math.nan
        res = env.step(np.zeros(N_JOINTS))
        assert res.termination == "diverged" and res.done
        assert res.distance == last.distance
        assert bundle_is_finite(env.bundle)
        for k in ("o", "hist", "scans", "m", "e"):
            np.testing.assert_array_equal(getattr(env.bundle, k), getattr(before, k))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(N_JOINTS))

    def test_state_turning_non_finite_inside_a_step_diverges(self, monkeypatch):
        env, last = self.walk()
        calls = []

        def blow_up(model, state, *args):
            substep(model, state, *args)
            calls.append(1)
            if len(calls) == 2:
                state[PITCH_RATE] = math.inf

        substep = env_module.substep
        monkeypatch.setattr(env_module, "substep", blow_up)
        res = env.step(np.zeros(N_JOINTS))
        assert res.termination == "diverged"
        assert res.distance == last.distance
        assert len(calls) == 3  # math.cos(inf) raised in the fourth substep

    @pytest.mark.parametrize(("component", "value"), [("pitch_rate", math.inf), ("vx", math.nan)])
    def test_state_turning_non_finite_in_the_last_substep_diverges(
        self, monkeypatch, component, value
    ):
        # the last substep raises nothing, so the check after the loop must
        # keep the state out of _check_termination and build_o_t
        env, last = self.walk()
        calls = []

        def blow_up_last(model, state, *args):
            substep(model, state, *args)
            calls.append(1)
            if len(calls) == env.cfg.substeps:
                state[STATE_FIELDS[component][0]] = value

        substep = env_module.substep
        monkeypatch.setattr(env_module, "substep", blow_up_last)
        res = env.step(np.zeros(N_JOINTS))
        assert len(calls) == env.cfg.substeps
        assert res.termination == "diverged" and res.done
        assert res.distance == last.distance
        assert bundle_is_finite(env.bundle)

    def test_error_on_a_finite_state_still_raises(self, monkeypatch):
        env, _ = self.walk()

        def broken(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(env_module, "substep", broken)
        with pytest.raises(ZeroDivisionError):
            env.step(np.zeros(N_JOINTS))


@settings(max_examples=60, deadline=None)
@given(
    component=st.sampled_from(COMPONENTS),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
    kind=st.sampled_from(["flat", "rough", "gap", "step", "stair"]),
    steps=st.integers(min_value=0, max_value=6),
)
def test_any_non_finite_state_component_diverges_instead_of_raising(component, value, kind, steps):
    env = TerrainEnv(BipedModel(), EnvConfig(), seed=1)
    env.reset(generate_terrain(kind, 0.5, seed=2), DRConfig(), CommandState(v_cmd=0.5))
    distance = 0.0
    for _ in range(steps):
        res = env.step(np.full(N_JOINTS, 0.2))
        distance = res.distance
        if res.done:
            return
    poke(env.state, component, value)
    res = env.step(np.zeros(N_JOINTS))
    assert res.termination == "diverged"
    assert res.distance == distance and math.isfinite(res.distance)
    assert bundle_is_finite(env.bundle)
