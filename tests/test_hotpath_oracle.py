"""Bit-exact agreement of the scalar control step with its numpy references.

``pd_torques`` and ``substep`` compute on the float state (a list of Python
floats), ``locomotion_rewards`` on the env axis; ``tests/oracles.py`` keeps
the array formulations they replaced.
The episode start too: ``sample_dr`` draws the DR vector in one call and
``TerrainEnv.reset`` places the spawn on floats, where the references draw
one scalar per DR field and place it on arrays.
Every comparison here is on the bytes of the float64 values, which is
stricter than ``==`` (it also tells 0.0 from -0.0), and has no tolerance.
"""

import contextlib
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitrl.env as env_module
from gaitrl.biped import (
    N_JOINTS,
    BipedModel,
    BipedState,
    action_targets,
    contact_damping,
    pd_gains,
    pd_torques,
    substep,
)
from gaitrl.env import DR_RANGES, CommandState, DRConfig, EnvConfig, TerrainEnv, one_hot, sample_dr
from gaitrl.rewards import DEFAULT_WEIGHTS, RewardConfig
from gaitrl.terrain import TERRAIN_KINDS, generate_terrain

from oracles import (
    env_commands,
    ref_locomotion_raw,
    ref_locomotion_total,
    ref_pd_torques,
    ref_reset,
    ref_sample_dr,
    ref_substep,
    score_locomotion,
)

MODEL = BipedModel()
STATE_FLOATS = (
    "x", "z", "pitch", "vx", "vz", "pitch_rate", "yaw_rate", "heading", "y_offset", "time",
)
STATE_ARRAYS = (
    "joint_pos", "joint_vel", "joint_acc", "joint_torque", "foot_pos", "foot_vel",
    "contact", "contact_force", "knee_heights", "anchor_x", "anchor_on",
)


def bits(v) -> bytes:
    return struct.pack("<d", float(v))


def assert_same_array(a, b, name=""):
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), (name, a, b)


def assert_same_state(a: BipedState, b: BipedState) -> None:
    for name in STATE_FLOATS:
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name
    for name in STATE_ARRAYS:
        assert_same_array(getattr(a, name), getattr(b, name), name)
    assert a.n_collisions == b.n_collisions


def assert_same_rewards(bd, raw_ref, cfg):
    assert list(bd.raw) == list(raw_ref) == list(bd.weighted)
    for k, v in bd.raw.items():
        assert bits(v) == bits(raw_ref[k]), k
        assert bits(bd.weighted[k]) == bits(cfg.weights.get(k, 0.0) * raw_ref[k]), k
    assert bits(bd.r_l) == bits(ref_locomotion_total(raw_ref, cfg))


def random_weights(rng) -> dict:
    """A weight for every term: about a quarter of them 0 (the term off), the
    rest of either sign."""
    return {k: 0.0 if rng.random() < 0.25 else float(rng.uniform(-20.0, 20.0))
            for k in DEFAULT_WEIGHTS}


def random_state(rng, terrain) -> BipedState:
    """A state near the ground anywhere on the track, joints near or past their
    limits, and friction anchors set at random (some far enough to slip)."""
    lo, hi = MODEL.lower(), MODEL.upper()
    q = rng.uniform(lo - 0.05, hi + 0.05)
    x = rng.uniform(0.3, terrain.track_length - 0.3)
    st_ = BipedState(
        x=x,
        z=terrain.surface_at(x) + MODEL.standing_height(q) + rng.uniform(-0.04, 0.03),
        pitch=rng.uniform(-0.3, 0.3),
        vx=rng.uniform(-1.5, 1.5),
        vz=rng.uniform(-1.0, 0.5),
        pitch_rate=rng.uniform(-2.0, 2.0),
        yaw_rate=rng.uniform(-1.0, 1.0),
        heading=rng.uniform(-1.0, 1.0),
        y_offset=rng.uniform(-0.5, 0.5),
        joint_pos=q,
        joint_vel=rng.uniform(-25.0, 25.0, N_JOINTS),
        anchor_on=rng.random((2, 2)) < 0.5,
    )
    st_.anchor_x = st_.x + rng.uniform(-0.5, 0.5, (2, 2))
    return st_


class TestPhysicsOracle:
    def test_pd_torques_match_reference(self):
        rng = np.random.default_rng(0)
        saturated = 0
        for _ in range(300):
            st_ = random_state(rng, generate_terrain("flat", 0.0, seed=0))
            dr = ref_sample_dr(rng)
            action = rng.uniform(-MODEL.action_bound, MODEL.action_bound, N_JOINTS)
            gains = (*pd_gains(MODEL, dr.kp_scale, dr.kd_scale), dr.motor_strength)
            tau = np.array(pd_torques(MODEL, st_.row.tolist(), action_targets(MODEL, action), *gains))
            assert_same_array(
                tau, ref_pd_torques(MODEL, st_, action, dr.kp_scale, dr.kd_scale, dr.motor_strength)
            )
            saturated += int(np.any(np.abs(tau) == np.array(MODEL.torque_limit)))
        assert saturated > 0

    def test_substep_matches_reference_on_every_terrain_kind(self):
        rng = np.random.default_rng(1)
        seen = dict.fromkeys(("joint_stop", "vel_clip", "contact", "slip", "void"), 0)
        for kind in TERRAIN_KINDS:
            for trial in range(40):
                terrain = generate_terrain(kind, float(rng.uniform(0.3, 1.0)), seed=trial)
                ref = random_state(rng, terrain)
                s = ref.row.tolist()
                dr = ref_sample_dr(rng)
                mass = (MODEL.base_mass + dr.payload) * dr.link_mass_scale
                action = rng.uniform(-MODEL.action_bound, MODEL.action_bound, N_JOINTS)
                target = action_targets(MODEL, action)
                kp, kd = pd_gains(MODEL, dr.kp_scale, dr.kd_scale)
                for _ in range(12):
                    tau = pd_torques(MODEL, s, target, kp, kd, dr.motor_strength)
                    tau_ref = ref_pd_torques(
                        MODEL, ref, action, dr.kp_scale, dr.kd_scale, dr.motor_strength
                    )
                    assert_same_array(np.array(tau), tau_ref)
                    anchors_before = (ref.anchor_on.copy(), ref.anchor_x.copy())
                    substep(MODEL, s, tau, terrain, 0.005, dr.friction,
                            contact_damping(MODEL, dr.restitution), mass, dr.com_shift,
                            MODEL.base_inertia * dr.link_mass_scale)
                    ref_substep(MODEL, ref, tau_ref, terrain, 0.005, dr.friction, dr.restitution,
                                mass, dr.com_shift, dr.link_mass_scale)
                    assert_same_state(BipedState(np.array(s)), ref)

                    q = ref.joint_pos
                    seen["joint_stop"] += int(np.any((q == MODEL.lower()) | (q == MODEL.upper())))
                    seen["vel_clip"] += int(np.any(np.abs(ref.joint_vel) == MODEL.joint_vel_limit))
                    seen["contact"] += int(ref.contact.any())
                    held = (anchors_before[0] != 0.0) & (ref.anchor_on != 0.0)
                    seen["slip"] += int(np.any(held & (anchors_before[1] != ref.anchor_x)))
                    seen["void"] += int(any(terrain.is_void(fx) for fx in ref.foot_pos[:, 0]))
        assert all(seen.values()), seen


class TestRewardOracle:
    def test_locomotion_rewards_match_reference(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            terrain = generate_terrain(TERRAIN_KINDS[trial % 5], 0.5, seed=trial)
            st_ = random_state(rng, terrain)
            st_.joint_acc = rng.uniform(-300.0, 300.0, N_JOINTS)
            st_.joint_torque = rng.uniform(-130.0, 130.0, N_JOINTS)
            st_.contact = rng.random(2) < 0.5
            st_.contact_force = rng.uniform(-100.0, 400.0, (2, 2))
            st_.foot_pos = rng.uniform(-1.0, 1.0, (2, 2))
            st_.foot_vel = rng.uniform(-2.0, 2.0, (2, 2))
            st_.n_collisions = int(rng.integers(0, 3))
            if trial % 7 == 0:
                # exact soft-limit and zero-velocity ties
                lo, hi = MODEL.lower(), MODEL.upper()
                mid = 0.5 * (lo + hi)
                st_.joint_pos = mid - 0.5 * (hi - lo) * 0.9
                st_.joint_vel = np.array([-0.0, 0.0, 12.0, -12.0, 0.0, -0.0])
            cfg = RewardConfig(
                soft_limit_frac=float(rng.uniform(0.5, 1.0)),
                torque_soft_frac=float(rng.uniform(0.5, 1.0)),
                weights=random_weights(rng),
            )
            cmd = CommandState(
                v_cmd=float(rng.uniform(-0.5, 1.2)), w_cmd=float(rng.uniform(-0.6, 0.6)),
                gait=one_hot(trial % 3, 3),
            )
            a_t, a_p, a_pp = (rng.uniform(-4.0, 4.0, N_JOINTS) for _ in range(3))
            bd = score_locomotion(st_, cmd, a_t, a_p, a_pp, cfg, MODEL)
            assert_same_rewards(bd, ref_locomotion_raw(st_, cmd, a_t, a_p, a_pp, cfg, MODEL), cfg)


def ref_pd_torques_to_target(model, s, target, kp, kd, motor_strength):
    """The reference torques, called the way TerrainEnv.step calls pd_torques:
    on the float state, toward the float targets, with the episode's gains
    (the reference's model gains at a scale of 1.0)."""
    model = dataclasses.replace(model, kp=tuple(kp), kd=tuple(kd))
    return ref_pd_torques(model, BipedState(np.array(s)), None, 1.0, 1.0, motor_strength,
                          target=np.array(target)).tolist()


def ref_substep_on_floats(model, s, tau, terrain, dt, friction, dn, total_mass, com_shift,
                          pitch_inertia):
    """The reference substep on the float state ``s``, written back in place,
    with the episode's contact damping and pitch inertia (the reference's
    at a restitution of 0.0 and a scale of 1.0)."""
    model = dataclasses.replace(model, contact_dn=dn, base_inertia=pitch_inertia)
    st_ = BipedState(np.array(s))
    try:
        ref_substep(model, st_, np.array(tau), terrain, dt, friction, 0.0, total_mass, com_shift,
                    1.0)
    finally:
        s[:] = st_.row.tolist()


@contextlib.contextmanager
def reference_physics():
    """Run TerrainEnv.step with the numpy reference pd_torques and substep."""
    saved = env_module.pd_torques, env_module.substep
    env_module.pd_torques, env_module.substep = ref_pd_torques_to_target, ref_substep_on_floats
    try:
        yield
    finally:
        env_module.pd_torques, env_module.substep = saved


DR_DRAWS = st.builds(
    DRConfig, **{k: st.floats(min_value=lo, max_value=hi) for k, (lo, hi) in DR_RANGES.items()}
)
BOUND = MODEL.action_bound
ACTIONS = st.lists(
    st.lists(st.floats(min_value=-BOUND, max_value=BOUND), min_size=N_JOINTS, max_size=N_JOINTS),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(
    dr=DR_DRAWS,
    kind=st.sampled_from(TERRAIN_KINDS),
    difficulty=st.floats(min_value=0.0, max_value=1.0),
    terrain_seed=st.integers(min_value=0, max_value=2**16),
    actions=ACTIONS,
)
def test_env_trajectory_matches_reference_for_any_dr_and_bounded_actions(
    dr, kind, difficulty, terrain_seed, actions
):
    terrain = generate_terrain(kind, difficulty, seed=terrain_seed)
    cmd = CommandState(v_cmd=0.5, w_cmd=0.1, gait=np.zeros(3))
    cfg = RewardConfig()
    new, ref = (TerrainEnv(MODEL, EnvConfig(), seed=11) for _ in range(2))
    new.reset(terrain, dr, cmd)
    ref.reset(terrain, dr, cmd)
    a_p = a_pp = np.zeros(N_JOINTS)
    for a in actions:
        a = np.array(a)
        res = new.step(a)
        with reference_physics():
            res_ref = ref.step(a)
        assert_same_state(new.state, ref.state)
        assert res.termination == res_ref.termination
        for name in ("o", "hist", "scans", "m", "e"):
            assert_same_array(getattr(new.bundle, name), getattr(ref.bundle, name), name)
        bd = score_locomotion(new.state, env_commands(new), a, a_p, a_pp, cfg, MODEL)
        assert_same_rewards(
            bd, ref_locomotion_raw(ref.state, env_commands(ref), a, a_p, a_pp, cfg, MODEL), cfg
        )
        a_pp, a_p = a_p, a
        if res.done:
            break
    assert math.isfinite(new.state.x)


class TestEpisodeStartOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        enabled=st.booleans(),
        kind=st.sampled_from(TERRAIN_KINDS),
        difficulty=st.floats(min_value=0.0, max_value=1.0),
        # None keeps the draw.  Past the DR range the clip binds: the knee and
        # ankle limits above a scale of about 3.43, the hips' above 4.57, the
        # knee's upper limit below about 0.03
        joint_scale=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=6.0)),
        blind=st.booleans(),
    )
    def test_the_draw_and_the_reset_match_the_reference(
        self, seed, enabled, kind, difficulty, joint_scale, blind
    ):
        rng, rng_ref = (np.random.default_rng(seed) for _ in range(2))
        dr, dr_ref = sample_dr(rng, enabled), ref_sample_dr(rng_ref, enabled)
        assert dr == dr_ref
        assert_same_array(dr.as_vector(), dr_ref.as_vector())
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if joint_scale is not None:
            dr = dataclasses.replace(dr, init_joint_scale=joint_scale)

        terrain = generate_terrain(kind, difficulty, seed=seed)
        commands = CommandState(float(rng.uniform(0.2, 1.0)), float(rng.uniform(-0.5, 0.5)),
                                one_hot(seed % 3, 3))
        cfg = EnvConfig(blind=blind)
        env = TerrainEnv(MODEL, cfg, seed=seed)
        env_rng = np.random.default_rng()
        env_rng.bit_generator.state = env.rng.bit_generator.state
        try:
            state_ref, row_ref = ref_reset(MODEL, cfg, env_rng, terrain, dr, commands)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                env.reset(terrain, dr, commands)
        else:
            env.reset(terrain, dr, commands)
            assert_same_array(env.bundle.row, row_ref)
            assert_same_state(env.state, state_ref)
        assert env.rng.bit_generator.state == env_rng.bit_generator.state
