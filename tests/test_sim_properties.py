"""Physical properties of the float step, as hypothesis properties.

Mirror symmetry: from the symmetric nominal pose, swapping the legs in every
action swaps the legs in the trajectory.  The joints are integrated joint by
joint, so their states mirror exactly, and the yaw proxy reads the hips'
torque difference, so heading and yaw rate are exactly negated.  The base
sums its two feet's contact forces in the other order, so x, z and pitch
agree only to rounding: within ``MIRROR_TOL``, fixed before the property
was first run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrl.biped import N_JOINTS, BipedModel
from gaitrl.env import CommandState, EnvConfig, TerrainEnv, sample_dr
from gaitrl.terrain import TERRAIN_KINDS, generate_terrain

MODEL = BipedModel()
# the largest gap a probe of this property saw was 1.8e-14
MIRROR_TOL = 1e-9
MIRROR = np.r_[3:6, 0:3]  # [left, right] -> [right, left] joint triples

ACTIONS = st.lists(
    st.lists(st.floats(min_value=-MODEL.action_bound, max_value=MODEL.action_bound),
             min_size=N_JOINTS, max_size=N_JOINTS),
    min_size=1, max_size=30,
)


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
