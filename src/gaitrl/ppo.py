"""PPO machinery: rollout storage, GAE, and the clipped-surrogate update.

The update differentiates the clipped objective by hand: the per-sample
cotangent on the action mean and log-std follows from the diagonal-Gaussian
log-density, and flows through the policy's own backward pass.  A NaN in the
loss or any gradient aborts the iteration and restores the pre-update
parameters and optimizer states.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .nets import AdamState, adam_step, clip_grad_norm, net_backward
from .policy import ActorCritic, BundleBatch, gaussian_log_prob_batch

log = logging.getLogger(__name__)

LOG_2PI_E = 1.0 + float(np.log(2.0 * np.pi))


@dataclass
class PPOConfig:
    gamma: float = 0.99
    lam: float = 0.95
    clip: float = 0.2
    epochs: int = 4
    minibatch: int = 512
    value_coef: float = 1.0
    entropy_coef: float = 0.005
    lr: float = 3e-4
    lr_residual: float = 1e-3
    max_grad_norm: float = 1.0
    horizon: int = 64
    n_envs: int = 64
    iterations: int = 300
    freeze: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.clip <= 0.0:
            raise ValueError("clip must be positive")


class RolloutBuffer:
    """Fixed-horizon on-policy storage for a batch of environments."""

    def __init__(self, horizon: int, n_envs: int, dims: dict, n_gaits: int, n_joints: int):
        T, N = horizon, n_envs
        self.horizon = horizon
        self.n_envs = n_envs
        self.o = np.zeros((T, N, dims["d_o"]))
        self.hist = np.zeros((T, N, dims["d_hist"]))
        self.scans = np.zeros((T, N, dims["d_scan"]))
        self.m = np.zeros((T, N, dims["d_m"]))
        self.e = np.zeros((T, N, dims["d_e"]))
        self.gait = np.zeros((T, N, n_gaits))
        self.actions = np.zeros((T, N, n_joints))
        self.log_probs = np.zeros((T, N))
        self.values = np.zeros((T + 1, N))
        self.rewards = np.zeros((T, N))
        self.dones = np.zeros((T, N))
        self.r_l = np.zeros((T, N))
        self.r_s = np.zeros((T, N))
        self.r_g = np.zeros((T, N))
        self.filled = 0

    def add_step(self, t, env_i, bundle, gait, action, log_prob, value, reward, done, breakdown=None):
        self.o[t, env_i] = bundle.o
        self.hist[t, env_i] = bundle.hist
        self.scans[t, env_i] = bundle.scans
        self.m[t, env_i] = bundle.m
        self.e[t, env_i] = bundle.e
        self.gait[t, env_i] = gait
        self.actions[t, env_i] = action
        self.log_probs[t, env_i] = log_prob
        self.values[t, env_i] = value
        self.rewards[t, env_i] = reward
        self.dones[t, env_i] = float(done)
        if breakdown is not None:
            self.r_l[t, env_i] = breakdown.r_l
            self.r_s[t, env_i] = breakdown.r_s
            self.r_g[t, env_i] = breakdown.r_g

    def mark_filled(self):
        self.filled = self.horizon * self.n_envs


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw generalized advantages and returns.

    rewards/dones are [T, N]; values is [T+1, N] with the bootstrap row last.
    A done step blocks bootstrapping across the boundary (timeout bootstraps
    are folded into the reward by the caller).  Normalization happens inside
    the PPO update, not here.
    """
    rewards = np.atleast_2d(np.asarray(rewards, dtype=np.float64))
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    dones = np.atleast_2d(np.asarray(dones, dtype=np.float64))
    T = rewards.shape[0]
    if values.shape[0] != T + 1:
        raise ValueError("values must carry one bootstrap row beyond the horizon")
    adv = np.zeros_like(rewards)
    gae = np.zeros(rewards.shape[1])
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        adv[t] = gae
    returns = adv + values[:T]
    return adv, returns


def make_optimizers(policy: ActorCritic, cfg: PPOConfig) -> dict[str, AdamState]:
    """One Adam state per component; residual parts get the residual rate."""
    opts = {}
    for name, params in policy.components().items():
        lr = cfg.lr_residual if (name.startswith("expert_") or name == "gate") else cfg.lr
        opts[name] = AdamState(params, lr=lr)
    return opts


def _snapshot(policy: ActorCritic, opts: dict[str, AdamState]) -> tuple:
    """Copies of everything an update touches: parameters and Adam states."""
    params = {k: [p.copy() for p in ps] for k, ps in policy.components().items()}
    adam = {
        k: (o.step_count, [m.copy() for m in o.m], [v.copy() for v in o.v])
        for k, o in opts.items()
    }
    return params, adam


def _restore(policy: ActorCritic, opts: dict[str, AdamState], snap: tuple) -> None:
    params, adam = snap
    for k, ps in policy.components().items():
        for p, s in zip(ps, params[k]):
            p[:] = s
    for k, o in opts.items():
        o.step_count, ms, vs = adam[k]
        for m, s in zip(o.m, ms):
            m[:] = s
        for v, s in zip(o.v, vs):
            v[:] = s


def ppo_loss_and_grads(
    policy: ActorCritic,
    mb: BundleBatch,
    gaits: np.ndarray | None,
    actions: np.ndarray,
    adv: np.ndarray,
    returns: np.ndarray,
    old_logp: np.ndarray,
    cfg: PPOConfig,
) -> tuple[float, dict[str, list[np.ndarray]], dict]:
    """Loss and per-component gradient lists for one prepared minibatch.

    The advantages are used as given (normalization is the caller's step).
    """
    nb = actions.shape[0]
    mean, cache = policy.actor_mean(mb, gaits)
    log_std = policy.log_std
    std2 = np.exp(2.0 * log_std)
    lp_new = gaussian_log_prob_batch(actions, mean, log_std)
    ratio = np.exp(np.clip(lp_new - old_logp, -20.0, 20.0))
    surr1 = ratio * adv
    clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip)
    surr2 = clipped * adv
    policy_loss = -float(np.mean(np.minimum(surr1, surr2)))
    entropy = float(np.sum(log_std) + 0.5 * len(log_std) * LOG_2PI_E)

    # d(-min)/d(logp): active branch only; the clipped branch is flat
    use1 = surr1 <= surr2
    in_band = (ratio > 1.0 - cfg.clip) & (ratio < 1.0 + cfg.clip)
    dmin_dratio = np.where(use1, adv, np.where(in_band, adv, 0.0))
    dl_dlogp = -(dmin_dratio * ratio) / nb

    z = (actions - mean) / np.exp(log_std)
    d_mean = dl_dlogp[:, None] * (-(mean - actions) / std2)
    d_logstd = (dl_dlogp[:, None] * (z * z - 1.0)).sum(axis=0)
    d_logstd -= cfg.entropy_coef  # entropy bonus, per dimension

    v, vtape = policy.critic_value(mb.m, mb.e, gaits)
    v_err = v - returns
    value_loss = cfg.value_coef * float(np.mean(v_err**2))
    d_v = (2.0 * cfg.value_coef * v_err / nb)[:, None]

    loss = policy_loss + value_loss - cfg.entropy_coef * entropy

    grads = policy.actor_backward(cache, d_mean)
    cg, _ = net_backward(policy.critic, vtape, d_v)
    grad_lists = {name: g.params() for name, g in grads.items()}
    grad_lists["critic"] = cg.params()
    grad_lists["log_std"] = [d_logstd]

    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(old_logp - lp_new)),
        "clip_frac": float(np.mean(~in_band)),
        "surr1": surr1,
        "surr2": surr2,
    }
    return loss, grad_lists, stats


def ppo_update(
    policy: ActorCritic,
    buffer: RolloutBuffer,
    cfg: PPOConfig,
    opts: dict[str, AdamState],
    rng: np.random.Generator,
) -> dict:
    """Epochs of minibatched clipped-surrogate updates over the buffer."""
    if buffer.filled == 0:
        log.warning("ppo_update called with an empty buffer; skipping")
        return {"skipped": True}

    T, N = buffer.horizon, buffer.n_envs
    B = T * N
    flat = lambda a: a.reshape(B, *a.shape[2:])
    obs = BundleBatch(
        o=flat(buffer.o), hist=flat(buffer.hist), scans=flat(buffer.scans),
        m=flat(buffer.m), e=flat(buffer.e),
    )
    gaits = flat(buffer.gait)
    actions = flat(buffer.actions)
    old_logp = buffer.log_probs.reshape(B)

    adv, returns = compute_gae(buffer.rewards, buffer.values, buffer.dones, cfg.gamma, cfg.lam)
    adv = adv.reshape(B)
    returns = returns.reshape(B)
    adv_std = adv.std()
    adv_n = (adv - adv.mean()) / (adv_std + 1e-8)

    snap = _snapshot(policy, opts)
    stage2 = policy.mode.stage >= 2
    stats = {"policy_loss": [], "value_loss": [], "entropy": [], "approx_kl": [], "clip_frac": []}

    for _ in range(cfg.epochs):
        perm = rng.permutation(B)
        for start in range(0, B, cfg.minibatch):
            idx = perm[start : start + cfg.minibatch]
            mb = BundleBatch(
                o=obs.o[idx], hist=obs.hist[idx], scans=obs.scans[idx],
                m=obs.m[idx], e=obs.e[idx],
            )
            g = gaits[idx] if stage2 else None
            loss, grad_lists, piece = ppo_loss_and_grads(
                policy, mb, g, actions[idx], adv_n[idx], returns[idx], old_logp[idx], cfg
            )

            finite = np.isfinite(loss) and all(
                all(np.all(np.isfinite(ga)) for ga in gl) for gl in grad_lists.values()
            )
            if not finite:
                _restore(policy, opts, snap)
                log.warning(
                    "non-finite PPO loss/gradient; iteration aborted, parameters "
                    "and optimizer states restored"
                )
                return {"nan_aborted": True}

            comps = policy.components()
            for name, gl in grad_lists.items():
                if name in cfg.freeze or name not in opts:
                    continue
                clip_grad_norm(gl, cfg.max_grad_norm)
                adam_step(comps[name], gl, opts[name])
            np.clip(
                policy.log_std, policy.arch.log_std_min, policy.arch.log_std_max,
                out=policy.log_std,
            )

            for k in ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_frac"):
                stats[k].append(piece[k])

    out = {k: float(np.mean(v)) for k, v in stats.items()}
    out["adv_std"] = float(adv_std)
    out["mean_return"] = float(np.mean(returns))
    return out
