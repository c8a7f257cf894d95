import math

import numpy as np
import pytest

from gaitrl.biped import N_JOINTS, BipedModel, BipedState
from gaitrl.env import CommandState, one_hot
from gaitrl.refmotion import GAIT_HIGH_KNEES, GAIT_SQUAT, GAIT_WALK_RUN
from gaitrl.config import config_from_dict
from gaitrl.rewards import DEFAULT_WEIGHTS, RewardConfig

# the library's batch calls, on one env
from oracles import score_gait, score_locomotion, score_total

MODEL = BipedModel()
CFG = RewardConfig()


def random_state(rng):
    st = BipedState(
        x=rng.uniform(0, 10),
        z=rng.uniform(0.5, 1.0),
        pitch=rng.uniform(-0.5, 0.5),
        vx=rng.uniform(-1, 2),
        vz=rng.uniform(-1, 1),
        pitch_rate=rng.uniform(-2, 2),
        yaw_rate=rng.uniform(-1, 1),
        heading=rng.uniform(-2, 2),
        y_offset=rng.uniform(-1, 1),
        joint_pos=rng.uniform(MODEL.lower(), MODEL.upper()),
        joint_vel=rng.uniform(-15, 15, N_JOINTS),
        joint_acc=rng.uniform(-200, 200, N_JOINTS),
        joint_torque=rng.uniform(-130, 130, N_JOINTS),
        foot_pos=rng.uniform(-1, 1, (2, 2)),
        foot_vel=rng.uniform(-2, 2, (2, 2)),
        contact=rng.random(2) < 0.5,
        contact_force=rng.uniform(-50, 250, (2, 2)),
        knee_heights=rng.uniform(0.0, 0.9, 2),
    )
    st.n_collisions = int(rng.integers(0, 3))
    return st


def random_inputs(rng):
    st = random_state(rng)
    cmd = CommandState(
        v_cmd=rng.uniform(-0.5, 1.2),
        w_cmd=rng.uniform(-0.6, 0.6),
        gait=one_hot(int(rng.integers(0, 3)), 3),
    )
    a_t, a_p, a_pp = (rng.uniform(-2, 2, N_JOINTS) for _ in range(3))
    return st, cmd, a_t, a_p, a_pp


def dual_locomotion(st, cmd, a_t, a_p, a_pp, cfg, model):
    """Independent re-coding of every locomotion-table row."""
    out = {}
    out["track_lin_vel"] = math.exp(-((cmd.v_cmd - st.vx) ** 2) / 0.25)
    out["track_ang_vel"] = math.exp(-((cmd.w_cmd - st.yaw_rate) ** 2) / 0.25)
    out["joint_acc"] = sum(a * a for a in st.joint_acc)
    out["joint_vel"] = sum(v * v for v in st.joint_vel)
    out["action_rate"] = sum((x - y) ** 2 for x, y in zip(a_t, a_p))
    out["action_smoothness"] = sum(
        (x - 2 * y + z) ** 2 for x, y, z in zip(a_t, a_p, a_pp)
    )
    out["ang_vel_pitch"] = st.pitch_rate**2
    out["joint_power"] = sum(abs(t) * abs(v) for t, v in zip(st.joint_torque, st.joint_vel))
    out["feet_stumble"] = float(
        any(
            abs(st.contact_force[i, 0]) >= 3 * abs(st.contact_force[i, 1]) and st.contact[i]
            for i in range(2)
        )
    )
    out["posture_deviation"] = sum(
        abs(st.joint_pos[j] - model.nominal()[j]) for j in (2, 5)  # the ankles
    )
    lo, hi = model.lower(), model.upper()
    total = 0.0
    for j in range(N_JOINTS):
        mid = 0.5 * (lo[j] + hi[j])
        half = 0.5 * (hi[j] - lo[j]) * cfg.soft_limit_frac
        q = st.joint_pos[j]
        total += max(0.0, (mid - half) - q) + max(0.0, q - (mid + half))
    out["joint_pos_limits"] = total
    out["joint_vel_limits"] = sum(
        max(0.0, abs(v) - cfg.joint_vel_soft) for v in st.joint_vel
    )
    tmax = [t * cfg.torque_soft_frac for t in MODEL.torque_limit]
    out["torque_limits"] = sum(
        max(0.0, abs(t) - m) for t, m in zip(st.joint_torque, tmax)
    )
    sep = abs(st.foot_pos[0, 0] - st.foot_pos[1, 0])
    out["feet_distance"] = -max(0.0, cfg.d_min_feet - sep)
    out["feet_slippage"] = sum(
        math.hypot(*st.foot_vel[i]) * float(st.contact[i]) for i in range(2)
    )
    out["feet_force"] = sum(
        max(0.0, st.contact_force[i, 1] - cfg.f_min_force) for i in range(2)
    )
    out["collision"] = float(st.n_collisions)
    out["stuck"] = float(
        abs(st.vx) <= cfg.stuck_v and math.hypot(cmd.v_cmd, cmd.w_cmd) >= cfg.stuck_cmd
    )
    out["cheat"] = float(abs(st.heading) > cfg.heading_limit)
    out["y_offset"] = abs(st.y_offset)
    return out


class TestClosedForm:
    def test_zero_velocity_error_gives_full_weight(self):
        rng = np.random.default_rng(0)
        st, cmd, a, ap, app = random_inputs(rng)
        cmd.v_cmd = st.vx
        bd = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
        assert bd.weighted["track_lin_vel"] == pytest.approx(2.0, abs=1e-12)

    def test_quarter_squared_error_tracking_value(self):
        rng = np.random.default_rng(1)
        st, cmd, a, ap, app = random_inputs(rng)
        cmd.v_cmd = st.vx + 0.5  # err^2 = 0.25
        bd = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
        assert bd.weighted["track_lin_vel"] == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)

    def test_constant_actions_zero_rate_and_smoothness(self):
        rng = np.random.default_rng(2)
        st, cmd, a, _, _ = random_inputs(rng)
        bd = score_locomotion(st, cmd, a, a.copy(), a.copy(), CFG, MODEL)
        assert bd.raw["action_rate"] == 0.0
        assert bd.raw["action_smoothness"] == 0.0

    def test_knee_height_at_target(self):
        rng = np.random.default_rng(3)
        st = random_state(rng)
        st.knee_heights[:] = (0.2, CFG.knee_lift_target)
        bd = score_gait(st, one_hot(GAIT_HIGH_KNEES, 3), CFG)
        assert bd.weighted["knee_height"] == pytest.approx(2.0, abs=1e-12)

    def test_knee_height_quarter_error(self):
        rng = np.random.default_rng(4)
        st = random_state(rng)
        st.knee_heights[:] = (0.0, CFG.knee_lift_target - 0.25)
        bd = score_gait(st, one_hot(GAIT_HIGH_KNEES, 3), CFG)
        assert bd.weighted["knee_height"] == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)

    def test_walk_run_command_zeroes_gait_terms(self):
        rng = np.random.default_rng(5)
        st = random_state(rng)
        bd = score_gait(st, one_hot(GAIT_WALK_RUN, 3), CFG)
        assert bd.raw["knee_height"] == 0.0
        assert bd.raw["squat_height"] == 0.0
        assert bd.r_g == 0.0


class TestDualImplementation:
    def test_1000_random_states_match_within_1e12(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            st, cmd, a, ap, app = random_inputs(rng)
            bd = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
            expect = dual_locomotion(st, cmd, a, ap, app, CFG, MODEL)
            for name, val in expect.items():
                assert bd.raw[name] == pytest.approx(val, abs=1e-12), name


class TestRoutingAndSigns:
    def test_gait_command_never_touches_locomotion(self):
        rng = np.random.default_rng(8)
        st, cmd, a, ap, app = random_inputs(rng)
        values = []
        for g in range(3):
            c = CommandState(v_cmd=cmd.v_cmd, w_cmd=cmd.w_cmd, gait=one_hot(g, 3))
            bd = score_locomotion(st, c, a, ap, app, CFG, MODEL)
            values.append(bd.weighted)
        assert values[0] == values[1] == values[2]

    def test_noncommanded_gait_terms_exactly_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            st = random_state(rng)
            for active in range(3):
                bd = score_gait(st, one_hot(active, 3), CFG)
                if active != GAIT_HIGH_KNEES:
                    assert bd.weighted["knee_height"] == 0.0
                if active != GAIT_SQUAT:
                    assert bd.weighted["squat_height"] == 0.0

    def test_bounded_positive_terms(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            st, cmd, a, ap, app = random_inputs(rng)
            bd = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
            assert 0.0 < bd.weighted["track_lin_vel"] <= 2.0
            assert 0.0 < bd.weighted["track_ang_vel"] <= 2.0
            gb = score_gait(st, one_hot(GAIT_HIGH_KNEES, 3), CFG)
            assert 0.0 < gb.weighted["knee_height"] <= 2.0

    def test_sign_discipline_default_mode(self):
        bonus = {"track_lin_vel", "track_ang_vel"}
        rng = np.random.default_rng(11)
        for _ in range(300):
            st, cmd, a, ap, app = random_inputs(rng)
            bd = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
            for name, w in bd.weighted.items():
                if name in bonus:
                    assert w >= 0.0, name
                else:
                    assert w <= 0.0, name
            gb = score_gait(st, one_hot(GAIT_SQUAT, 3), CFG)
            assert gb.weighted["squat_height"] <= 0.0


class TestTotal:
    def test_stage1_inputs_add_exactly_zero(self):
        # stage 1 passes no style score and an all-zero gait command
        rng = np.random.default_rng(12)
        for _ in range(50):
            st, cmd, a, ap, app = random_inputs(rng)
            loco = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
            bd = score_total(loco, 0.0, score_gait(st, np.zeros(3), CFG), CFG)
            assert math.copysign(1.0, bd.r_s) == math.copysign(1.0, bd.r_g) == 1.0
            assert bd.r_s == bd.r_g == 0.0
            assert bd.total == loco.r_l + 0.0

    def test_stage2_includes_all_components(self):
        rng = np.random.default_rng(13)
        st, cmd, a, ap, app = random_inputs(rng)
        loco = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
        gait = score_gait(st, one_hot(GAIT_HIGH_KNEES, 3), CFG)
        bd = score_total(loco, style_raw=0.8, gait_bd=gait, cfg=CFG)
        assert bd.r_s == pytest.approx(5.0 * 0.8)
        assert bd.total == pytest.approx(bd.r_l + bd.r_s + bd.r_g)

    def test_all_zero_terms_give_zero_total(self):
        st = BipedState()
        st.foot_pos[:, 0] = (0.0, 0.5)  # separation beyond the floor
        cmd = CommandState(gait=np.zeros(3))
        zero = np.zeros(N_JOINTS)
        st.joint_pos = MODEL.nominal()
        loco = score_locomotion(st, cmd, zero, zero, zero, CFG, MODEL)
        gait = score_gait(st, np.zeros(3), CFG)
        bd = score_total(loco, 0.0, gait, cfg=CFG)
        # tracking terms are 1.0 * 2 each at zero error; remove them for the zero check
        residual = bd.total - bd.weighted["track_lin_vel"] - bd.weighted["track_ang_vel"]
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_total_recomputable_from_logged_terms(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            st, cmd, a, ap, app = random_inputs(rng)
            loco = score_locomotion(st, cmd, a, ap, app, CFG, MODEL)
            gait = score_gait(st, one_hot(int(rng.integers(0, 3)), 3), CFG)
            style = float(rng.uniform(0, 1))
            bd = score_total(loco, style, gait, cfg=CFG)
            assert bd.total == pytest.approx(sum(bd.weighted.values()), abs=1e-12)


class TestLimitConfig:
    def test_changed_soft_limits_take_effect_on_a_used_config(self):
        rng = np.random.default_rng(21)
        st, cmd, a, ap, app = random_inputs(rng)
        st.joint_pos = MODEL.upper() - 0.05  # inside the hard limits, near the top
        st.joint_torque = np.array(MODEL.torque_limit) * 0.8
        cfg = RewardConfig()
        first = score_locomotion(st, cmd, a, ap, app, cfg, MODEL)
        cfg.soft_limit_frac = 0.5
        cfg.torque_soft_frac = 0.5
        changed = score_locomotion(st, cmd, a, ap, app, cfg, MODEL)
        fresh = score_locomotion(
            st, cmd, a, ap, app,
            RewardConfig(soft_limit_frac=0.5, torque_soft_frac=0.5), MODEL,
        )
        for name in ("joint_pos_limits", "torque_limits"):
            assert changed.raw[name] == fresh.raw[name]
            assert changed.raw[name] > first.raw[name]
        assert not [k for k in vars(cfg) if k.startswith("_")]


class TestWeightTable:
    def test_a_partial_table_keeps_the_other_default_weights(self):
        # built in code as the config decoder builds it: one table, one meaning
        cfg = RewardConfig(weights={"track_lin_vel": 1.0})
        assert cfg.weight("track_lin_vel") == 1.0
        assert cfg.weight("collision") == -15.0
        assert cfg.weights == {**DEFAULT_WEIGHTS, "track_lin_vel": 1.0}
        assert config_from_dict({"rewards": {"weights": {"track_lin_vel": 1.0}}}).rewards == cfg
