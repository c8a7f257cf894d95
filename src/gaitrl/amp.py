"""Per-gait discriminators over 5-step joint-angle windows and the style reward.

Each gait id owns one scalar-output MLP trained with the least-squares GAN
objective (+1 targets on reference windows, -1 on policy windows) plus a
gradient penalty on the reference samples: (alpha/2) * mean ||d D / d tau||_2,
the L2 norm, not its square.  The penalty's parameter gradient runs through
the hand-derived second-order rule in nets.py.

The style reward routes through the gait command: only the commanded gait's
discriminator is read, every other one contributes exactly zero.  It is a
batch call on the env axis, one row per env: each gait's rows go through
that gait's discriminator in one stacked pass, each row at the bits of a
batch of one, so a row's reward does not depend on its batchmates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .nets import (
    AdamState,
    DenseNet,
    NetGrads,
    Snapshot,
    adam_step,
    finite_input,
    finite_step,
    make_net,
    net_backward,
    net_directional_param_grads,
    net_forward,
    net_forward_rows,
)

log = logging.getLogger(__name__)


@dataclass
class DiscriminatorSet:
    nets: list[DenseNet]
    alpha_gp: float = 10.0

    def __post_init__(self):
        if len({net.dtype for net in self.nets}) > 1:
            raise ValueError("every discriminator of a set has one dtype")

    @property
    def n_gaits(self) -> int:
        return len(self.nets)

    @property
    def dtype(self) -> np.dtype:
        """The discriminators' dtype, which the style windows are written in."""
        return self.nets[0].dtype


def make_discriminators(
    n_gaits: int,
    window_dim: int,
    rng: np.random.Generator,
    hidden: tuple = (64, 32),
    alpha_gp: float = 10.0,
    dtype=np.float32,
) -> DiscriminatorSet:
    nets = [
        make_net([window_dim, *hidden, 1], rng, hidden_activation="tanh", dtype=dtype)
        for _ in range(n_gaits)
    ]
    return DiscriminatorSet(nets=nets, alpha_gp=alpha_gp)


def discriminator_loss(
    net: DenseNet,
    real: np.ndarray,
    fake: np.ndarray,
    alpha_gp: float,
) -> tuple[float, NetGrads, dict]:
    """LSGAN loss with reference-sample gradient penalty, plus its gradients."""
    if real.shape[0] == 0 or fake.shape[0] == 0:
        raise ValueError("empty discriminator batch")
    n_r, n_f = real.shape[0], fake.shape[0]
    real, fake = finite_input(real, net.dtype), finite_input(fake, net.dtype)

    y_r, tape_r = net_forward(net, real)
    y_r = y_r[:, 0]
    loss_real = float(np.mean((y_r - 1.0) ** 2))
    grads, _ = net_backward(net, tape_r, (2.0 * (y_r - 1.0) / n_r)[:, None], input_grad=False)

    y_f, tape_f = net_forward(net, fake)
    y_f = y_f[:, 0]
    loss_fake = float(np.mean((y_f + 1.0) ** 2))
    g_f, _ = net_backward(net, tape_f, (2.0 * (y_f + 1.0) / n_f)[:, None], input_grad=False)
    grads.add_(g_f)

    penalty = 0.0
    grad_norm_mean = 0.0
    if alpha_gp > 0.0:
        # per-row input gradients of the scalar head, one batched call
        _, u = net_backward(net, tape_r, np.ones((n_r, 1)), param_grads=False)
        norms = np.sqrt(np.sum(u * u, axis=1))
        grad_norm_mean = float(np.mean(norms))
        penalty = 0.5 * alpha_gp * grad_norm_mean
        safe = norms > 1e-12
        if np.any(safe):
            # d||u||/dtheta = (u/||u||) . du/dtheta, folded into one weighted
            # directional second-order pass; rows with zero norm contribute 0
            v = np.zeros_like(u)
            v[safe] = u[safe] / norms[safe, None]
            v *= 0.5 * alpha_gp / n_r
            _, g_p = net_directional_param_grads(net, tape_r, v, np.ones((n_r, 1)))
            grads.add_(g_p)

    loss = loss_real + loss_fake + penalty
    metrics = {
        "loss": loss,
        "loss_real": loss_real,
        "loss_fake": loss_fake,
        "penalty": penalty,
        "mean_real": float(np.mean(y_r)),
        "mean_fake": float(np.mean(y_f)),
        "grad_norm": grad_norm_mean,
    }
    return loss, grads, metrics


def style_reward_value(score: float) -> float:
    """Bounded imitation reward from one discriminator score."""
    return max(0.0, 1.0 - 0.25 * (score - 1.0) ** 2)


def style_reward(
    windows: np.ndarray, gait_ids: np.ndarray, discs: DiscriminatorSet
) -> np.ndarray:
    """The style rewards ``[n]`` of ``[n, window_dim]`` windows, each read by
    the discriminator of its gait id (``gait_ids``, ``[n]``) only.

    The windows are checked finite once.  Each gait's rows go through its
    discriminator in one stacked pass (``net_forward_rows``), each row at the
    bits of a batch of one, and each score becomes a reward by the Python
    formula of ``style_reward_value``."""
    windows = finite_input(windows, discs.dtype)
    gait_ids = np.asarray(gait_ids)
    if windows.ndim != 2 or gait_ids.shape != windows.shape[:1]:
        raise ValueError(f"windows {windows.shape} and gait ids {gait_ids.shape}: "
                         "expected [n, window_dim] and [n]")
    if gait_ids.size and not 0 <= gait_ids.min() <= gait_ids.max() < discs.n_gaits:
        raise ValueError(f"a gait id outside the {discs.n_gaits} discriminators")
    rewards = np.empty(len(gait_ids))
    for gid, net in enumerate(discs.nets):
        rows = gait_ids == gid
        if rows.any():
            scores = net_forward_rows(net, windows[rows])[:, 0]
            rewards[rows] = [style_reward_value(s) for s in scores.tolist()]
    return rewards


class WindowBuffer:
    """Per-gait FIFO of the most recent policy windows.

    Each gait owns a preallocated ring of ``capacity`` rows, so ``add`` writes
    only the new rows.  The rings hold the discriminators' dtype (float32):
    ``add`` rounds a float64 window once, as the discriminators' input cast
    did (the trainer's windows are float32 already), and ``sample`` hands
    them rows they read without a cast.  Logical index 0 is the oldest window
    held; ``sample`` draws logical indices and maps them onto the ring, so a
    given rng draw picks the same windows as it would from an oldest-first
    array.
    """

    def __init__(self, n_gaits: int, window_dim: int, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("window buffer capacity must be positive")
        self.capacity = capacity
        self._rings = [np.zeros((capacity, window_dim), np.float32) for _ in range(n_gaits)]
        self._sizes = [0] * n_gaits
        self._next = [0] * n_gaits  # ring row the next window goes to

    def add(self, gait_id: int, windows: np.ndarray) -> None:
        n = windows.shape[0]
        if n == 0:
            return
        cap = self.capacity
        if n > cap:
            windows = windows[-cap:]
            n = cap
        ring = self._rings[gait_id]
        start = self._next[gait_id]
        head = min(n, cap - start)
        ring[start : start + head] = windows[:head]
        ring[: n - head] = windows[head:]
        self._next[gait_id] = (start + n) % cap
        self._sizes[gait_id] = min(self._sizes[gait_id] + n, cap)

    def size(self, gait_id: int) -> int:
        return self._sizes[gait_id]

    def _rows(self, gait_id: int, logical: np.ndarray) -> np.ndarray:
        """Ring rows of oldest-first logical indices."""
        oldest = (self._next[gait_id] - self._sizes[gait_id]) % self.capacity
        return (oldest + logical) % self.capacity

    def sample(self, gait_id: int, n: int, rng: np.random.Generator) -> np.ndarray:
        size = self._sizes[gait_id]
        idx = rng.integers(0, size, size=min(n, size))
        return self._rings[gait_id][self._rows(gait_id, idx)]


def sample_reference(
    refs: dict[int, np.ndarray], gait_id: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    pool = refs[gait_id]
    idx = rng.integers(0, pool.shape[0], size=n)
    return pool[idx]


def disc_parts(discs: DiscriminatorSet, opt_states: list[AdamState]) -> list[tuple]:
    """Each discriminator's parameters with its Adam state: what an AMP update touches."""
    return [(net.params(), state) for net, state in zip(discs.nets, opt_states)]


def amp_update(
    discs: DiscriminatorSet,
    refs: dict[int, np.ndarray],
    policy_buffer: WindowBuffer,
    opt_states: list[AdamState],
    rng: np.random.Generator,
    snap: Snapshot,
    batch_size: int = 256,
    updates: int = 1,
) -> dict:
    """One round of discriminator training; gaits with no policy data are
    skipped.  A non-finite loss or gradient restores ``snap`` and ends the
    round with ``{"nan_aborted": True, "nan_update": "disc<g>"}`` for the
    discriminator ``g`` that met it."""
    metrics: dict = {}
    for gid, net in enumerate(discs.nets):
        if policy_buffer.size(gid) == 0:
            log.warning("skipping discriminator %d: empty policy buffer", gid)
            metrics[f"disc{gid}"] = {"skipped": True}
            continue
        last = None
        for _ in range(updates):
            real = sample_reference(refs, gid, batch_size, rng)
            fake = policy_buffer.sample(gid, batch_size, rng)
            loss, grads, last = discriminator_loss(net, real, fake, discs.alpha_gp)
            if not finite_step(loss, grads.params()):
                snap.restore()
                log.warning("non-finite loss/gradient in discriminator %d; iteration aborted, "
                            "parameters and optimizer states restored", gid)
                return {"nan_aborted": True, "nan_update": f"disc{gid}"}
            adam_step(net.params(), grads.params(), opt_states[gid])
        metrics[f"disc{gid}"] = last
    return metrics
