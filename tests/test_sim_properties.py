"""Physical properties of the float step, as hypothesis properties.

Mirror symmetry: from the symmetric nominal pose, swapping the legs in every
action swaps the legs in the trajectory.  The joints are integrated joint by
joint, so their states mirror exactly, and the yaw proxy reads the hips'
torque difference, so heading and yaw rate are exactly negated.  The base
sums its two feet's contact forces in the other order, so x, z and pitch
agree only to rounding: within ``MIRROR_TOL``, fixed before the property
was first run.

Translation: on flat ground, spawning a whole number of cells further along
the track moves the trajectory along with it.  The joints never see the
base, so their states agree exactly; x (less the shift), z and pitch pass
through contact positions that differ in rounding, so they agree within
``TRANSLATION_TOL``, fixed before the property was first run.

Bounds, after every substep of ``env.step``:

- each joint is inside its limits, exactly;
- no contact point pushes harder than ``contact_force_cap``: a foot's normal
  force is at most the cap times the number of its points in contact (the
  friction anchors mark them);
- with pushes off, a substep without contact is the semi-implicit gravity
  update, ``vz += dt * (-M g) / M`` then ``z += dt * vz``, within
  ``GRAVITY_TOL`` (fixed before the first run), with no contact force.  A
  base spawned clear of the ground follows it until first contact.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitrl.env as env_module
from gaitrl.biped import N_JOINTS, VZ, Z, BipedModel, BipedState
from gaitrl.env import CommandState, EnvConfig, TerrainEnv, sample_dr
from gaitrl.terrain import TERRAIN_KINDS, generate_terrain

MODEL = BipedModel()
# the largest gap a probe of this property saw was 1.8e-14
MIRROR_TOL = 1e-9
MIRROR = np.r_[3:6, 0:3]  # [left, right] -> [right, left] joint triples
TRANSLATION_TOL = 1e-9  # m and rad
GRAVITY_TOL = 1e-12  # m and m/s

ACTION = st.lists(st.floats(min_value=-MODEL.action_bound, max_value=MODEL.action_bound),
                  min_size=N_JOINTS, max_size=N_JOINTS)
ACTIONS = st.lists(ACTION, min_size=1, max_size=30)
# long enough for a base dropped from 1 m to land (0.45 s) and push on
LONG_ACTIONS = st.lists(ACTION, min_size=50, max_size=50)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(TERRAIN_KINDS),
    difficulty=st.floats(min_value=0.0, max_value=1.0),
    terrain_seed=st.integers(min_value=0, max_value=2**16),
    dr_seed=st.integers(min_value=0, max_value=2**32 - 1),
    dr_enabled=st.booleans(),
    actions=ACTIONS,
)
def test_swapping_the_legs_mirrors_the_trajectory(
    kind, difficulty, terrain_seed, dr_seed, dr_enabled, actions
):
    terrain = generate_terrain(kind, difficulty, seed=terrain_seed)
    dr = sample_dr(np.random.default_rng(dr_seed), dr_enabled)
    envs = [TerrainEnv(MODEL, EnvConfig(), seed=5) for _ in range(2)]
    for env in envs:
        env.reset(terrain, dr, CommandState(v_cmd=0.5, gait=np.zeros(3)))
    plain, mirrored = envs
    assert plain.state.joint_pos.tobytes() == plain.state.joint_pos[MIRROR].tobytes()
    for step, a in enumerate(actions):
        a = np.array(a)
        res, res_m = plain.step(a), mirrored.step(a[MIRROR])
        s, m = plain.state, mirrored.state
        for name in ("x", "z", "pitch"):
            assert abs(getattr(s, name) - getattr(m, name)) <= MIRROR_TOL, (step, name)
        for name in ("joint_pos", "joint_vel"):
            assert getattr(m, name).tobytes() == getattr(s, name)[MIRROR].tobytes(), (step, name)
        assert (m.heading, m.yaw_rate) == (-s.heading, -s.yaw_rate), step
        assert res_m.termination == res.termination, step
        if res.done:
            break


@settings(max_examples=100, deadline=None)
@given(
    cells=st.integers(min_value=1, max_value=200),
    dr_seed=st.integers(min_value=0, max_value=2**32 - 1),
    dr_enabled=st.booleans(),
    actions=ACTIONS,
)
def test_spawning_further_along_flat_ground_translates_the_trajectory(
    cells, dr_seed, dr_enabled, actions
):
    terrain = generate_terrain("flat", 0.0, seed=0)
    dr = sample_dr(np.random.default_rng(dr_seed), dr_enabled)
    base = EnvConfig()
    shift = cells * terrain.cell_size
    envs = [TerrainEnv(MODEL, EnvConfig(spawn_x=x), seed=5)
            for x in (base.spawn_x, base.spawn_x + shift)]
    for env in envs:
        env.reset(terrain, dr, CommandState(v_cmd=0.5, gait=np.zeros(3)))
    plain, moved = envs
    for step, a in enumerate(actions):
        res, res_m = plain.step(np.array(a)), moved.step(np.array(a))
        s, m = plain.state, moved.state
        assert abs((m.x - shift) - s.x) <= TRANSLATION_TOL, step
        for name in ("z", "pitch"):
            assert abs(getattr(s, name) - getattr(m, name)) <= TRANSLATION_TOL, (step, name)
        for name in ("joint_pos", "joint_vel"):
            assert getattr(m, name).tobytes() == getattr(s, name).tobytes(), (step, name)
        # the track's start is a bound (out_of_bounds) that the moved run is further from
        if res.done or res_m.done:
            break


def checked_substep(substep, violations):
    """``substep``, followed by the bounds check of its result (the float
    state it wrote, read through a ``BipedState``)."""

    def run(model, s, tau, terrain, dt, friction, dn, total_mass, *args):
        z0, vz0 = s[Z], s[VZ]
        substep(model, s, tau, terrain, dt, friction, dn, total_mass, *args)
        state = BipedState(np.array(s))
        q = state.joint_pos
        if not ((q >= model.lower()) & (q <= model.upper())).all():
            violations.append(("joint limits", q.copy()))
        points = state.anchor_on.sum(axis=1)
        if not (state.contact_force[:, 1] <= model.contact_force_cap * points).all():
            violations.append(("force cap", state.contact_force.copy(), points))
        if not points.any():
            vz = vz0 + dt * (-total_mass * model.gravity) / total_mass
            if (abs(state.vz - vz) > GRAVITY_TOL or abs(state.z - (z0 + dt * vz)) > GRAVITY_TOL
                    or state.contact_force.any()):
                violations.append(("gravity", z0, vz0, state.z, state.vz))

    return run


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(TERRAIN_KINDS),
    difficulty=st.floats(min_value=0.0, max_value=1.0),
    terrain_seed=st.integers(min_value=0, max_value=2**16),
    dr_seed=st.integers(min_value=0, max_value=2**32 - 1),
    dr_enabled=st.booleans(),
    drop=st.floats(min_value=0.0, max_value=1.0),
    actions=LONG_ACTIONS,
)
def test_every_substep_keeps_the_bounds(
    kind, difficulty, terrain_seed, dr_seed, dr_enabled, drop, actions
):
    terrain = generate_terrain(kind, difficulty, seed=terrain_seed)
    dr = sample_dr(np.random.default_rng(dr_seed), dr_enabled)
    env = TerrainEnv(MODEL, EnvConfig(push_vel_max=0.0), seed=5)
    env.reset(terrain, dr, CommandState(v_cmd=0.5, gait=np.zeros(3)))
    env.state.z += drop  # clear of the ground for any drop > 0
    violations = []
    with mock.patch.object(env_module, "substep", checked_substep(env_module.substep, violations)):
        for a in actions:
            if env.step(np.array(a)).done:
                break
    assert violations == []
