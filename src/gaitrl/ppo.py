"""PPO machinery: rollout storage, GAE, and the clipped-surrogate update.

The update differentiates the clipped objective by hand: the per-sample
cotangent on the action mean and log-std follows from the diagonal-Gaussian
log-density, and flows through the policy's own backward pass.  Every
component of the policy steps on every minibatch, each with its own Adam
state.  A NaN in the loss or any gradient aborts the update and restores
the snapshot it is given (:class:`gaitrl.nets.Snapshot`, taken by the caller
before the iteration's updates).

On each minibatch the actor's forward and backward passes run first and its
tapes are dropped; only then do the critic's forward and backward passes
run, so the tapes of one network at a time are alive.  The critic's input
gradient is not computed: nothing reads it.

The dtype rule: the buffer's observation arrays hold the env's float32 rows
and the nets compute in their own dtype (float32 for the package's nets,
:mod:`gaitrl.nets`); the actions, log-probabilities, rewards, values,
returns and advantages are float64, and so is the surrogate's arithmetic up
to the cotangents the nets' backward passes take.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .codec import NON_NEGATIVE, POSITIVE, UNIT, UNIT_OPEN, Bounded
from .env import ROW_DTYPE, obs_slices
from .nets import AdamState, Snapshot, adam_step, clip_grad_norm, finite_step, net_backward
from .policy import ActorCritic, BundleBatch, gaussian_log_prob_batch

log = logging.getLogger(__name__)

LOG_2PI_E = 1.0 + float(np.log(2.0 * np.pi))


@dataclass
class PPOConfig(Bounded):
    gamma: Annotated[float, UNIT_OPEN] = 0.99
    lam: Annotated[float, UNIT] = 0.95
    clip: Annotated[float, POSITIVE] = 0.2
    epochs: Annotated[int, POSITIVE] = 4
    minibatch: Annotated[int, POSITIVE] = 512
    value_coef: Annotated[float, NON_NEGATIVE] = 1.0  # 0: the critic does not learn
    entropy_coef: Annotated[float, NON_NEGATIVE] = 0.005  # 0: no entropy bonus
    lr: Annotated[float, POSITIVE] = 3e-4
    lr_residual: Annotated[float, POSITIVE] = 1e-3
    max_grad_norm: Annotated[float, NON_NEGATIVE] = 1.0  # 0: no clipping (clip_grad_norm)
    horizon: Annotated[int, POSITIVE] = 64
    n_envs: Annotated[int, POSITIVE] = 64
    iterations: Annotated[int, POSITIVE] = 300


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float32 arrays hold the same bits (NaN and -0.0 included)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class RolloutBuffer:
    """Fixed-horizon on-policy storage for a batch of environments.

    One row per control step, from the batch the policy acted on and from
    what the step returned; ``values`` has one bootstrap row beyond the
    horizon.  A row stores only what is new at its step, normalized as the
    env wrote it (float32): ``o``, the current scan (``scan``), ``m``, ``e``
    and the gait command.  :meth:`batch` rebuilds each row's history and previous
    scan from earlier rows by the rule the :mod:`gaitrl.env` docstring
    states, so ``o`` starts with the H - 1 history rows, and ``scan`` with
    the previous scan, that the rollout's first row starts from: row ``t``
    is ``o[t + H - 1]`` and ``scan[t + 1]``.  ``start`` holds the row each
    row's episode starts at, or -H for an episode that began before the
    rollout (its first rows are already repeated in the lead rows).
    """

    def __init__(self, horizon: int, n_envs: int, dims: dict, n_joints: int):
        T, N = horizon, n_envs
        self.horizon = horizon
        self.n_envs = n_envs
        self.history_len = H = dims["d_hist"] // dims["d_o"]
        self.slices = obs_slices(dims)
        self.o = np.zeros((H - 1 + T, N, dims["d_o"]), ROW_DTYPE)
        self.scan = np.zeros((1 + T, N, dims["d_scan"] // 2), ROW_DTYPE)
        self.m = np.zeros((T, N, dims["d_m"]), ROW_DTYPE)
        self.e = np.zeros((T, N, dims["d_e"]), ROW_DTYPE)
        self.gait = np.zeros((T, N, dims["d_gait"]), ROW_DTYPE)
        self.start = np.full((T, N), -H)
        self.actions = np.zeros((T, N, n_joints))
        self.log_probs = np.zeros((T, N))
        self.values = np.zeros((T + 1, N))
        self.rewards = np.zeros((T, N))
        self.dones = np.zeros((T, N))
        self.r_l = np.zeros((T, N))
        self.r_s = np.zeros((T, N))
        self.r_g = np.zeros((T, N))

    def batch(self, rows: np.ndarray) -> BundleBatch:
        """The rows the policy acted on at ``rows``, flat indices ``t * N + n``.

        ``hist`` and ``scans`` are the last H ``o`` rows and the last two
        current scans of each row's episode, oldest first: each source row
        is clamped at the episode's start.
        """
        N, H, sl = self.n_envs, self.history_len, self.slices
        t, n = np.divmod(rows, N)
        s = self.start[t, n][:, None]
        flat = lambda a: a.reshape(-1, a.shape[2])

        def window(steps: np.ndarray, lead: int, width: int) -> np.ndarray:
            src = np.maximum(t[:, None] + np.arange(1 - width, 1), s)
            return np.take(flat(steps), (src + lead) * N + n[:, None], axis=0).reshape(len(rows), -1)

        out = np.empty((len(rows), sl["scans"].stop), ROW_DTYPE)
        for name in ("m", "e", "gait"):
            out[:, sl[name]] = np.take(flat(getattr(self, name)), rows, axis=0)
        out[:, sl["o"]] = np.take(flat(self.o), rows + (H - 1) * N, axis=0)
        out[:, sl["hist"]] = window(self.o, H - 1, H)
        out[:, sl["scans"]] = window(self.scan, 1, 2)
        return BundleBatch(out, sl)

    def add_step(self, t, batch, actions, log_probs, values, rewards, dones, breakdown):
        """Row ``t``: ``[N, ...]`` arrays (``dones`` may be a list) and the
        step's ``RewardBreakdown``, in env order; rows
        are added in order from ``t = 0``.  A ``ValueError`` refuses a batch
        whose history or previous scan does not follow from the row before by
        the history rule, so that :meth:`batch` rebuilds every row bit for bit.
        """
        N, H = self.n_envs, self.history_len
        d_o, K = self.o.shape[2], self.scan.shape[2]
        o, hist, scans = batch.o, batch.hist, batch.scans
        if t == 0:  # the history and scan the rollout's first row starts from
            tail, prev = hist[:, :-d_o], scans[:, :K]
        else:
            new = self.dones[t - 1] != 0.0
            tail = self._tail  # the row before's history, but its oldest o
            tail.reshape(N, H - 1, d_o)[new] = o[new, None]
            prev = np.where(new[:, None], scans[:, K:], self.scan[t])
        if not (_same_bits(hist[:, :-d_o], tail) and _same_bits(hist[:, -d_o:], o)
                and _same_bits(scans[:, :K], prev)):
            raise ValueError(f"row {t}: a history or previous scan that is not the "
                             "episode's earlier rows")
        self._tail = hist[:, d_o:].copy()
        if t == 0:
            self.o[: H - 1] = tail.reshape(N, H - 1, d_o).swapaxes(0, 1)
            self.scan[0] = prev
        else:
            self.start[t] = np.where(new, t, self.start[t - 1])
        self.o[t + H - 1] = o
        self.scan[t + 1] = scans[:, K:]
        for name in ("m", "e", "gait"):
            getattr(self, name)[t] = getattr(batch, name)
        self.actions[t] = actions
        self.log_probs[t] = log_probs
        self.values[t] = values
        self.rewards[t] = rewards
        self.dones[t] = dones
        self.r_l[t] = breakdown.r_l
        self.r_s[t] = breakdown.r_s
        self.r_g[t] = breakdown.r_g


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


def policy_parts(policy: ActorCritic, opts: dict[str, AdamState]) -> list[tuple]:
    """Each component's parameters with its Adam state: what a PPO update touches."""
    return [(params, opts[name]) for name, params in policy.components().items()]


def ppo_loss_and_grads(
    policy: ActorCritic,
    mb: BundleBatch,
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
    mean, cache = policy.actor_mean(mb)
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

    grads = policy.actor_backward(cache, d_mean)
    del cache

    v, vtape = policy.critic_value(mb)
    v_err = v - returns
    value_loss = cfg.value_coef * float(np.mean(v_err**2))
    d_v = (2.0 * cfg.value_coef * v_err / nb)[:, None]
    cg, _ = net_backward(policy.critic, vtape, d_v, input_grad=False)

    loss = policy_loss + value_loss - cfg.entropy_coef * entropy
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
    snap: Snapshot,
) -> dict:
    """Epochs of minibatched clipped-surrogate updates over the buffer, every
    row of which the rollout has written.  A non-finite loss or gradient
    restores ``snap`` and returns ``{"nan_aborted": True, "nan_update": "ppo"}``."""
    B = buffer.horizon * buffer.n_envs
    actions = buffer.actions.reshape(B, -1)
    old_logp = buffer.log_probs.reshape(B)

    adv, returns = compute_gae(buffer.rewards, buffer.values, buffer.dones, cfg.gamma, cfg.lam)
    adv = adv.reshape(B)
    returns = returns.reshape(B)
    adv_std = adv.std()
    adv_n = (adv - adv.mean()) / (adv_std + 1e-8)

    stats = {"policy_loss": [], "value_loss": [], "entropy": [], "approx_kl": [], "clip_frac": []}

    for _ in range(cfg.epochs):
        perm = rng.permutation(B)
        for start in range(0, B, cfg.minibatch):
            idx = perm[start : start + cfg.minibatch]
            mb = buffer.batch(idx)
            loss, grad_lists, piece = ppo_loss_and_grads(
                policy, mb, actions[idx], adv_n[idx], returns[idx], old_logp[idx], cfg
            )

            if not finite_step(loss, [g for gl in grad_lists.values() for g in gl]):
                snap.restore()
                log.warning(
                    "non-finite PPO loss/gradient; iteration aborted, parameters "
                    "and optimizer states restored"
                )
                return {"nan_aborted": True, "nan_update": "ppo"}

            comps = policy.components()
            for name, gl in grad_lists.items():
                clip_grad_norm(gl, cfg.max_grad_norm)
                adam_step(comps[name], gl, opts[name])
            np.clip(
                policy.log_std, policy.arch.log_std_min, policy.arch.log_std_max,
                out=policy.log_std,
            )

            for k in ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_frac"):
                stats[k].append(piece[k])
            del grad_lists  # not alive through the next minibatch's passes

    out = {k: float(np.mean(v)) for k, v in stats.items()}
    out["adv_std"] = float(adv_std)
    out["mean_return"] = float(np.mean(returns))
    return out
