import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitrl.env as env_module
from gaitrl.biped import N_JOINTS, BipedModel
from gaitrl.controllers import ScriptedWalker
from gaitrl.env import (
    DR_RANGES,
    CommandState,
    DRConfig,
    EnvConfig,
    TERMINATIONS,
    PushSchedule,
    TerrainEnv,
    apply_push,
    build_o_t,
    obs_dims,
    one_hot,
    sample_dr,
    sample_height_scan,
)
from gaitrl.terrain import generate_terrain


@pytest.fixture
def model():
    return BipedModel()


@pytest.fixture
def flat():
    return generate_terrain("flat", 0.0, seed=0)


def fresh_env(model, flat, seed=0, **cfg_kwargs):
    env = TerrainEnv(model, EnvConfig(**cfg_kwargs), seed=seed)
    env.reset(flat, DRConfig.identity(), CommandState(gait=np.zeros(3)))
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
        b1 = TerrainEnv(model, EnvConfig(), seed=5).reset(
            flat, DRConfig(scan_noise=0.03), CommandState(v_cmd=0.4, gait=one_hot(1, 3))
        )
        b2 = TerrainEnv(model, EnvConfig(), seed=5).reset(
            flat, DRConfig(scan_noise=0.03), CommandState(v_cmd=0.4, gait=one_hot(1, 3))
        )
        for a, b in zip(
            (b1.o, b1.hist, b1.scans, b1.m, b1.e), (b2.o, b2.hist, b2.scans, b2.m, b2.e)
        ):
            np.testing.assert_array_equal(a, b)

    def test_spawn_over_void_rejected(self, model):
        gap = generate_terrain("gap", 1.0, seed=1)
        env = TerrainEnv(model, EnvConfig(), seed=0)
        start = gap.obstacles[0].start * gap.cell_size
        env.spawn_x = start + 0.1
        with pytest.raises(ValueError):
            env.reset(gap, DRConfig.identity(), CommandState(gait=np.zeros(3)))


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
        env.reset(gap, DRConfig.identity(), CommandState(v_cmd=0.6, gait=np.zeros(3)))
        walker = ScriptedWalker(model)
        last = None
        for _ in range(2000):
            last = env.step(walker.act(None, env.commands, env.state))
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
                tr.append((env.state.x, env.state.z, env.state.pitch, res.bundle.o.tobytes()))
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
    def test_flat_reads_negative_base_height(self, model, flat):
        env = fresh_env(model, flat)
        scan = sample_height_scan(flat, env.state.x, env.state.z, env.cfg.scan_offsets())
        np.testing.assert_allclose(scan, -env.state.z, atol=1e-12)

    def test_step_geometry(self, model, flat):
        hf = generate_terrain("flat", 0.0, seed=0)
        i0 = hf.cell_at(1.0)  # 0.2 m step starting 0.5 m ahead of base at 0.5
        hf.heights[i0:] = 0.2
        env = fresh_env(model, hf)
        offs = env.cfg.scan_offsets()
        scan = sample_height_scan(hf, env.state.x, env.state.z, offs)
        for k, off in enumerate(offs):
            expect = (0.2 if off >= 0.5 else 0.0) - env.state.z
            assert scan[k] == pytest.approx(expect, abs=1e-9)

    def test_noise_sigma_statistics(self, flat):
        rng = np.random.default_rng(7)
        vals = np.stack(
            [
                sample_height_scan(
                    flat, 0.5, 0.8, np.linspace(0, 1.2, 8), noise_sigma=0.05, rng=rng
                )
                for _ in range(10_000)
            ]
        )
        stds = vals.std(axis=0)
        assert np.all(np.abs(stds - 0.05) < 0.005)

    def test_bias_applied(self, flat):
        scan = sample_height_scan(flat, 0.5, 0.8, np.linspace(0, 1.2, 8), bias=0.15)
        np.testing.assert_allclose(scan, -0.8 + 0.15, atol=1e-12)

    def test_blind_mode_zeroes_scan(self, model, flat):
        env = TerrainEnv(model, EnvConfig(blind=True), seed=0)
        b = env.reset(flat, DRConfig.identity(), CommandState(gait=np.zeros(3)))
        np.testing.assert_array_equal(b.scans, 0.0)

    def test_scan_delay_one_step(self, model):
        hf = generate_terrain("flat", 0.0, seed=0)
        env = TerrainEnv(model, EnvConfig(), seed=0)
        env.reset(hf, DRConfig(scan_delay_ms=8.0), CommandState(gait=np.zeros(3)))
        assert env.dr.scan_delay_steps(env.cfg.dt) == 1
        k = env.cfg.scan_points
        # lift the robot: current scan changes immediately, delivered scan lags a step
        env.state.z += 0.5
        r1 = env.step(np.zeros(N_JOINTS))
        delivered_now = r1.bundle.scans[k:]
        fresh = env._scans[-1]
        assert not np.allclose(delivered_now, fresh)


class TestPush:
    def test_applied_on_schedule(self):
        from gaitrl.biped import BipedState

        rng = np.random.default_rng(0)
        st = BipedState()
        st.time = 7.98
        sched = PushSchedule(interval_s=8.0, vel_max=0.5, next_time=8.0)
        assert apply_push(st, sched, rng) == 0.0
        st.time = 8.0
        v0 = st.vx
        imp = apply_push(st, sched, rng)
        assert imp != 0.0
        assert st.vx == pytest.approx(v0 + imp)
        assert sched.next_time == pytest.approx(16.0)

    def test_zero_magnitude_leaves_state(self):
        from gaitrl.biped import BipedState

        rng = np.random.default_rng(0)
        st = BipedState()
        st.time = 8.0
        sched = PushSchedule(interval_s=8.0, vel_max=0.0, next_time=8.0)
        apply_push(st, sched, rng)
        assert st.vx == 0.0


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
        assert dr == DRConfig.identity()
        ident = DRConfig.identity()
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
        b = env.step(np.zeros(N_JOINTS)).bundle
        assert b.o.shape == (dims["d_o"],)
        assert b.hist.shape == (dims["d_hist"],)
        assert b.scans.shape == (dims["d_scan"],)
        assert b.m.shape == (dims["d_m"],)
        assert b.e.shape == (dims["d_e"],)

    def test_stationary_nominal_blocks(self, model, flat):
        env = fresh_env(model, flat)
        o = build_o_t(env.state, env.commands, np.zeros(N_JOINTS))
        np.testing.assert_array_equal(o[0:2], 0.0)  # angular block
        np.testing.assert_allclose(o[2:4], [0.0, -1.0], atol=1e-12)  # gravity
        np.testing.assert_array_equal(o[4:6], 0.0)  # commands
        np.testing.assert_array_equal(o[6:12], model.nominal())

    def test_elevation_map_constant_on_flat(self, model, flat):
        env = fresh_env(model, flat)
        b = env.step(np.zeros(N_JOINTS)).bundle
        assert np.allclose(b.m, b.m[0])

    def test_privileged_fields_absent_from_actor_inputs(self, model, flat):
        # mutating m/e must leave the actor-visible arrays untouched
        env = fresh_env(model, flat)
        b = env.step(np.zeros(N_JOINTS)).bundle
        o, hist, scans = b.o.copy(), b.hist.copy(), b.scans.copy()
        b.m[:] = 99.0
        b.e[:] = -99.0
        np.testing.assert_array_equal(b.o, o)
        np.testing.assert_array_equal(b.hist, hist)
        np.testing.assert_array_equal(b.scans, scans)

    def test_history_holds_past_observations(self, model, flat):
        env = fresh_env(model, flat)
        d_o = env.dims["d_o"]
        seen = []
        for _ in range(7):
            res = env.step(np.full(N_JOINTS, 0.1))
            seen.append(res.bundle.o.copy())
        hist = res.bundle.hist.reshape(env.cfg.history_len, d_o)
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
        env.reset(generate_terrain(kind, 0.5, seed=seed), DRConfig.identity(), CommandState(v_cmd=0.5))
        res = None
        for _ in range(steps):
            res = env.step(np.full(N_JOINTS, 0.1))
        return env, res

    def test_nan_velocity_ends_the_episode_as_diverged(self):
        assert "diverged" in TERMINATIONS
        env, last = self.walk()
        env.state.vx = math.nan
        res = env.step(np.zeros(N_JOINTS))
        assert res.termination == "diverged" and res.done
        assert res.distance == last.distance
        assert bundle_is_finite(res.bundle)
        for k in ("o", "hist", "scans", "m", "e"):
            np.testing.assert_array_equal(getattr(res.bundle, k), getattr(last.bundle, k))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(N_JOINTS))

    def test_state_turning_non_finite_inside_a_step_diverges(self, monkeypatch):
        env, last = self.walk()
        calls = []

        def blow_up(model, state, *args):
            substep(model, state, *args)
            calls.append(1)
            if len(calls) == 2:
                state.pitch_rate = math.inf

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
                setattr(state, component, value)

        substep = env_module.substep
        monkeypatch.setattr(env_module, "substep", blow_up_last)
        res = env.step(np.zeros(N_JOINTS))
        assert len(calls) == env.cfg.substeps
        assert res.termination == "diverged" and res.done
        assert res.distance == last.distance
        assert bundle_is_finite(res.bundle)

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
    env.reset(generate_terrain(kind, 0.5, seed=2), DRConfig.identity(), CommandState(v_cmd=0.5))
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
    assert bundle_is_finite(res.bundle)
