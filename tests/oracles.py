"""Independent oracles shared by the test suite.

Everything here is deliberately written straight from definitions (central
finite differences, naive re-evaluation loops) and never calls the library's
backward paths, so the two routes stay independent.
"""

from __future__ import annotations

import math

import numpy as np


def central_diff_params(f, params: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradient of scalar f() w.r.t. each array in params.

    f takes no arguments and reads the (mutated) arrays.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = f()
            p[idx] = orig - step
            lo = f()
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise relative error with an absolute floor in the denominator."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def mlp_eval(layers, x):
    """Straight-line re-evaluation of an affine+activation chain.

    layers: iterable of (W, b, activation-name) tuples; x: 1-D input.
    """
    z = np.asarray(x, dtype=float)
    for w, b, act in layers:
        s = w @ z + b
        if act == "tanh":
            z = np.tanh(s)
        elif act == "relu":
            z = np.where(s > 0, s, 0.0)
        elif act == "elu":
            z = np.where(s > 0, s, np.exp(np.minimum(s, 0.0)) - 1.0)
        elif act == "identity":
            z = s
        else:
            raise ValueError(act)
    return z


def discounted_advantages(rewards, values, dones, gamma, lam):
    """Brute-force GAE: for each t, sum the discounted deltas forward."""
    T = len(rewards)
    adv = np.zeros(T)
    for t in range(T):
        total = 0.0
        coef = 1.0
        for k in range(t, T):
            delta = rewards[k] + gamma * values[k + 1] * (1.0 - dones[k]) - values[k]
            total += coef * delta
            if dones[k]:
                break
            coef *= gamma * lam
        adv[t] = total
    return adv


def fk_leg_points(base_x, base_z, pitch, hip, knee, ankle, l1, l2, l3):
    """Planar 3-link leg forward kinematics: returns (knee, ankle, foot) xz points."""
    a1 = pitch + hip
    a2 = a1 + knee
    a3 = a2 + ankle
    kx = base_x + l1 * math.sin(a1)
    kz = base_z - l1 * math.cos(a1)
    ax = kx + l2 * math.sin(a2)
    az = kz - l2 * math.cos(a2)
    fx = ax + l3 * math.sin(a3)
    fz = az - l3 * math.cos(a3)
    return (kx, kz), (ax, az), (fx, fz)


def standing_drop(frame, l1, l2, l3):
    """Vertical base-to-lowest-foot distance implied by one joint-angle frame."""
    drops = []
    for side in (0, 1):
        hip, knee, ankle = frame[3 * side : 3 * side + 3]
        _, _, (fx, fz) = fk_leg_points(0.0, 0.0, 0.0, hip, knee, ankle, l1, l2, l3)
        drops.append(-fz)
    return max(drops)


# -- numpy reference versions of the per-env control step ----------------------
#
# These are the array-at-a-time formulations the library's scalar hot path
# replaced.  The library computes the same expressions on Python floats in the
# same order; tests/test_hotpath_oracle.py holds the two to bit equality.
# Terrain cells are read straight from the heightfield's arrays here, not
# through its lookup methods.


def _cell(terrain, x):
    i = int(x * terrain._inv_cell)
    if i < 0:
        return 0
    return i if i < terrain._last else terrain._last


def ref_pd_torques(model, state, action, kp_scale, kd_scale, motor_strength, target=None):
    if target is None:
        target = model.action_scale * action + model._nominal
    tau = model._kp * kp_scale * (target - state.joint_pos) - model._kd * kd_scale * state.joint_vel
    tau *= motor_strength
    np.minimum(tau, model._tlim, out=tau)
    np.maximum(tau, -model._tlim, out=tau)
    return tau


def ref_substep(model, state, tau, terrain, dt, friction, restitution, total_mass,
                com_shift, inertia_scale=1.0):
    qdd = (tau - model.joint_damping * state.joint_vel) / model.joint_inertia
    state.joint_vel += dt * qdd
    np.clip(state.joint_vel, -model.joint_vel_limit, model.joint_vel_limit, out=state.joint_vel)
    state.joint_pos += dt * state.joint_vel
    lo, hi = model._lower, model._upper
    below = state.joint_pos < lo
    above = state.joint_pos > hi
    if below.any() or above.any():
        state.joint_pos = np.clip(state.joint_pos, lo, hi)
        state.joint_vel[below & (state.joint_vel < 0)] = 0.0
        state.joint_vel[above & (state.joint_vel > 0)] = 0.0

    q = state.joint_pos.tolist()
    qd = state.joint_vel.tolist()
    bx, bz = float(state.x), float(state.z)
    vx, vz = float(state.vx), float(state.vz)
    pitch, pr = float(state.pitch), float(state.pitch_rate)
    l1, l2, l3, fh = model.thigh_len, model.shin_len, model.foot_len, model.foot_half
    f_x = 0.0
    f_z = -total_mass * model.gravity
    torque = 0.0
    cosp = math.cos(pitch)
    com_x = bx + com_shift * cosp
    com_z = bz - com_shift * math.sin(pitch)
    dn = model.contact_dn * (1.0 - 0.85 * restitution)
    kn, kt, ct = model.contact_kn, model.contact_kt, model.contact_ct

    for side in (0, 1):
        q1, q2, q3 = q[3 * side], q[3 * side + 1], q[3 * side + 2]
        qd1, qd2, qd3 = qd[3 * side], qd[3 * side + 1], qd[3 * side + 2]
        a1 = pitch + q1
        a2 = a1 + q2
        a3 = a2 + q3
        s1, c1 = math.sin(a1), math.cos(a1)
        s2, c2 = math.sin(a2), math.cos(a2)
        s3, c3 = math.sin(a3), math.cos(a3)
        kx = bx + l1 * s1
        kz = bz - l1 * c1
        fx = kx + l2 * s2 + l3 * s3
        fz = kz - l2 * c2 - l3 * c3
        j02 = l3 * c3
        j12 = l3 * s3
        j01 = l2 * c2 + j02
        j11 = l2 * s2 + j12
        j00 = l1 * c1 + j01
        j10 = l1 * s1 + j11
        vfx = vx + j00 * (pr + qd1) + j01 * qd2 + j02 * qd3
        vfz = vz + j10 * (pr + qd1) + j11 * qd2 + j12 * qd3
        state.foot_pos[side, 0] = fx
        state.foot_pos[side, 1] = fz
        state.foot_vel[side, 0] = vfx
        state.foot_vel[side, 1] = vfz
        state.knee_heights[side] = kz - (
            terrain.heights[_cell(terrain, kx)] if terrain is not None else 0.0
        )

        in_contact = False
        force_x = force_z = 0.0
        if terrain is not None:
            rate_sum = pr + qd1 + qd2 + qd3
            for pt, sgn in ((0, -1.0), (1, 1.0)):
                px = fx + sgn * fh * c3
                pz = fz + sgn * fh * s3
                if terrain.void[_cell(terrain, px)]:
                    state.anchor_on[side, pt] = False
                    continue
                pen = terrain.heights[_cell(terrain, px)] - pz
                if pen <= 0.0:
                    state.anchor_on[side, pt] = False
                    continue
                vpx = vfx - sgn * fh * s3 * rate_sum
                vpz = vfz + sgn * fh * c3 * rate_sum
                ramp = min(pen / model.contact_damp_ramp, 1.0)
                fcz = kn * pen - dn * ramp * vpz
                if fcz <= 0.0:
                    state.anchor_on[side, pt] = False
                    continue
                fcz = min(fcz, model.contact_force_cap)
                if not state.anchor_on[side, pt]:
                    state.anchor_on[side, pt] = True
                    state.anchor_x[side, pt] = px
                fcx = -kt * (px - state.anchor_x[side, pt]) - ct * vpx
                cap = friction * fcz
                if fcx > cap:
                    fcx = cap
                    state.anchor_x[side, pt] = px + (fcx + ct * vpx) / kt
                elif fcx < -cap:
                    fcx = -cap
                    state.anchor_x[side, pt] = px + (fcx + ct * vpx) / kt
                in_contact = True
                force_x += fcx
                force_z += fcz
                f_x += fcx
                f_z += fcz
                torque += (px - com_x) * fcz - (pz - com_z) * fcx
        state.contact[side] = in_contact
        state.contact_force[side, 0] = force_x
        state.contact_force[side, 1] = force_z

    torque -= model.base_rot_damping * pr
    vx += dt * f_x / total_mass
    vz += dt * f_z / total_mass
    pr += dt * torque / (model.base_inertia * inertia_scale)
    state.vx = vx
    state.vz = vz
    state.pitch_rate = pr
    state.x = bx + dt * vx
    state.z = bz + dt * vz
    state.pitch = pitch + dt * pr

    grounded = bool(state.contact[0] or state.contact[1])
    yaw_tau = model.yaw_gain * float(tau[0] - tau[3]) * (1.0 if grounded else 0.0)
    yr = float(state.yaw_rate)
    yr += dt * (yaw_tau - model.yaw_damping * yr) / model.yaw_inertia
    state.yaw_rate = yr
    state.heading = float(state.heading) + dt * yr
    state.y_offset = float(state.y_offset) + dt * yr * vx * 0.5

    state.time += dt


def ref_locomotion_raw(state, commands, a_t, a_prev, a_prev2, cfg, model):
    """Raw locomotion terms, in the library's key order, with the soft limits
    derived from ``cfg`` on every call."""
    lower, upper = model.lower(), model.upper()
    mid = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower) * cfg.soft_limit_frac
    soft_lo, soft_hi = mid - half, mid + half
    tmax = np.asarray(model.torque_limit) * cfg.torque_soft_frac
    nominal = model.nominal()
    st = state
    jv = st.joint_vel
    jt = st.joint_torque
    jp = st.joint_pos
    abs_jv = np.abs(jv)
    abs_jt = np.abs(jt)
    d1 = a_t - a_prev
    d2 = d1 - (a_prev - a_prev2)
    verr = commands.v_cmd - st.vx
    werr = commands.w_cmd - st.yaw_rate
    f = st.contact_force
    stumble = float(
        (st.contact[0] and abs(f[0, 0]) >= 3.0 * abs(f[0, 1]))
        or (st.contact[1] and abs(f[1, 0]) >= 3.0 * abs(f[1, 1]))
    )
    out = np.maximum(soft_lo - jp, 0.0)
    out += np.maximum(jp - soft_hi, 0.0)
    sep = abs(st.foot_pos[0, 0] - st.foot_pos[1, 0])
    slip = float(
        st.contact[0] * math.hypot(st.foot_vel[0, 0], st.foot_vel[0, 1])
        + st.contact[1] * math.hypot(st.foot_vel[1, 0], st.foot_vel[1, 1])
    )
    return {
        "track_lin_vel": math.exp(-(verr * verr) / cfg.tracking_sigma),
        "track_ang_vel": math.exp(-(werr * werr) / cfg.tracking_sigma),
        "joint_acc": float(np.sum(st.joint_acc * st.joint_acc)),
        "joint_vel": float(np.sum(jv * jv)),
        "action_rate": float(np.sum(d1 * d1)),
        "action_smoothness": float(np.sum(d2 * d2)),
        "ang_vel_pitch": st.pitch_rate * st.pitch_rate,
        "joint_power": float(np.sum(abs_jt * abs_jv)),
        "feet_stumble": stumble,
        "posture_deviation": float(sum(abs(jp[j] - nominal[j]) for j in cfg.posture_joints)),
        "joint_pos_limits": float(out.sum()),
        "joint_vel_limits": float(np.maximum(abs_jv - cfg.joint_vel_soft, 0.0).sum()),
        "torque_limits": float(np.maximum(abs_jt - tmax, 0.0).sum()),
        "feet_distance": (sep - cfg.d_min_feet)
        if cfg.literal_signs
        else -max(cfg.d_min_feet - sep, 0.0),
        "feet_slippage": slip,
        "feet_force": float(
            max(f[0, 1] - cfg.f_min_force, 0.0) + max(f[1, 1] - cfg.f_min_force, 0.0)
        ),
        "collision": float(st.n_collisions),
        "stuck": float(
            abs(st.vx) <= cfg.stuck_v
            and math.hypot(commands.v_cmd, commands.w_cmd) >= cfg.stuck_cmd
        ),
        "cheat": float(abs(st.heading) > cfg.heading_limit),
        "y_offset": abs(st.y_offset),
    }


def ref_locomotion_total(raw, cfg):
    """Weighted sum of the enabled raw terms, accumulated in key order."""
    total = 0.0
    for name, value in raw.items():
        if cfg.enabled.get(name, True):
            total += cfg.weights.get(name, 0.0) * value
    return total


# -- reference batch-of-one policy inference -------------------------------------
#
# The array formulation the library's batch-of-one path replaced: np.stack
# copies for the batch, np.tile for the history shift/scale on every call,
# ``z @ W.T + b``, np.all(np.isfinite(...)), and the gate-weighted expert sum
# redone in Python for z'.  tests/test_inference_oracle.py holds the library
# to these bit for bit.  Network weights are read straight from the layers.

NORMALIZER_FIELDS = (
    "o_shift", "o_scale", "scan_shift", "scan_scale", "m_shift", "m_scale", "e_shift", "e_scale",
)


def ref_stack(bundles) -> dict:
    return {k: np.stack([getattr(b, k) for b in bundles]) for k in ("o", "hist", "scans", "m", "e")}


def _ref_act(name, s):
    if name == "tanh":
        return np.tanh(s)
    if name == "relu":
        return np.maximum(s, 0.0)
    if name == "elu":
        return np.where(s > 0.0, s, np.expm1(np.minimum(s, 0.0)))
    if name == "identity":
        return s
    raise ValueError(name)


def ref_net_forward(net, x):
    xb = np.asarray(x, dtype=np.float64)
    single = xb.ndim == 1
    if single:
        xb = xb[None, :]
    if not np.all(np.isfinite(xb)):
        raise ValueError("non-finite network input")
    z = xb
    for layer in net.layers:
        z = _ref_act(layer.activation, z @ layer.weight.T + layer.bias)
    return z[0] if single else z


def ref_softmax(w):
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite softmax input")
    shifted = w - w.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_encode_features(policy, batch: dict):
    nz = policy.normalizer
    H = batch["hist"].shape[-1] // nz.o_shift.shape[0]
    hist = (batch["hist"] - np.tile(nz.o_shift, H)) * np.tile(nz.o_scale, H)
    f_d = ref_net_forward(policy.scan_enc, (batch["scans"] - nz.scan_shift) * nz.scan_scale)
    f_h = ref_net_forward(policy.hist_enc, hist)
    return np.concatenate([(batch["o"] - nz.o_shift) * nz.o_scale, f_d, f_h], axis=1)


def ref_residual_forward(residual, feats, gait):
    """(z', gate weights, expert outputs) over [feats, gait]."""
    res_in = np.concatenate([feats, gait], axis=1)
    outs = [ref_net_forward(net, res_in) for net in residual.experts]
    w = ref_softmax(ref_net_forward(residual.gate, res_in))
    z = np.zeros_like(outs[0])
    for i, y in enumerate(outs):
        z += w[:, i : i + 1] * y
    return z, w, outs


def ref_actor_mean(policy, batch: dict, gait):
    """(mean, z_o, (gate weights, expert outputs) or None)."""
    feats = ref_encode_features(policy, batch)
    z_o = ref_net_forward(policy.trunk, feats)
    if policy.mode.stage >= 2 and policy.residual is not None:
        if gait is None:
            raise ValueError("stage-2 policy needs a gait command")
        gait = np.atleast_2d(gait)
        z_p, w, outs = ref_residual_forward(policy.residual, feats, gait)
        if policy.mode.residual_fusion == "latent":
            mean = ref_net_forward(policy.head, z_o + z_p)
        else:
            mean = ref_net_forward(policy.head, z_o) + z_p
        return mean, z_o, (w, outs)
    return ref_net_forward(policy.head, z_o), z_o, None


def ref_gaussian_log_prob(action, mean, log_std) -> float:
    std = np.exp(log_std)
    z = (action - mean) / std
    return float(-0.5 * np.sum(z * z) - np.sum(log_std) - 0.5 * len(mean) * math.log(2.0 * math.pi))


def ref_act(policy, bundle, gait=None, rng=None, deterministic=False):
    """(action, log_prob, mean, z_o, z_prime, gate_w), as ActResult holds them."""
    mean, z_o, res = ref_actor_mean(
        policy, ref_stack([bundle]), None if gait is None else gait[None, :]
    )
    mean = mean[0]
    z_p = gate_w = None
    if res is not None:
        w, outs = res
        gate_w = w[0]
        z_p = sum(w[0, i] * outs[i][0] for i in range(len(outs)))
    std = np.exp(policy.log_std)
    if deterministic or rng is None:
        action = mean.copy()
    else:
        action = mean + std * rng.standard_normal(len(mean))
    logp = ref_gaussian_log_prob(action, mean, policy.log_std)
    return action, logp, mean, z_o[0], z_p, gate_w


def ref_controller_act(policy, gait, bundle, commands):
    """PolicyController.act: deterministic action clipped with np.clip."""
    if policy.mode.stage >= 2 and gait is None:
        gait = commands.gait
    action = ref_act(policy, bundle, gait, deterministic=True)[0]
    bound = policy.model.action_bound
    return np.clip(action, -bound, bound)


def ref_residual_latents(policy, samples):
    """(z' rows, gate-weight rows, gait labels, terrain labels)."""
    zs, ws, gl, tl = [], [], [], []
    for bundle, gait, terrain_label in samples:
        feats = ref_encode_features(policy, ref_stack([bundle]))
        z_p, w, _ = ref_residual_forward(policy.residual, feats, np.atleast_2d(gait))
        zs.append(z_p[0])
        ws.append(w[0])
        gl.append(int(np.argmax(gait)))
        tl.append(terrain_label)
    return np.array(zs), np.array(ws), np.array(gl, dtype=int), tl


def ref_normalizer_dict(normalizer, encode_array) -> dict:
    """The normalizer's eight arrays, encoded in declaration order."""
    return {k: encode_array(getattr(normalizer, k)) for k in NORMALIZER_FIELDS}
