"""Actor-critic with latent-residual mixture of experts.

The actor stack: scan and history encoders feed a trunk that produces the
pre-action latent ``z_o``; an action head maps the latent to joint targets.
In stage 2 a residual module (N experts + softmax gate over ``[features,
gait command]``) produces ``z'`` which is added to ``z_o`` before the head
(latent fusion) or directly to the action mean (the action-space ablation).
Expert and gate output layers are zero-initialized, so at stage-2 attachment
the policy is bit-for-bit the stage-1 policy.

The critic reads a prefix of the observation row: ``[m, e, o, hist]``, the
privileged blocks (elevation map and extras) and the actor's proprioception
and its history, plus the gait command at stage 2.  It never shares
parameters with the actor; the actor path never sees a privileged column.

Every network input is a view of one ``BundleBatch``, rows the env wrote
already normalized (see :mod:`gaitrl.env`): the gait command is its ``gait``
block, so the forward passes take the batch and nothing else.

Each block is checked finite where it enters the nets, once (the finite rule
of :mod:`gaitrl.nets`): ``encode_features`` checks the actor's blocks, the
rows' suffix ``[o, hist, gait, scans]``, for ``actor_mean``, ``act`` and
``export_residual_latents`` alike; ``critic_value`` checks the critic's
prefix, ``[m, e, o, hist]`` and ``gait`` at stage 2.  The encoders' features,
the trunk latent, the residual's input and the gate logits are not checked
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Annotated, ClassVar

import numpy as np

from .biped import BipedModel, N_JOINTS
from .codec import EACH_POSITIVE, FINITE, NON_NEGATIVE, POSITIVE, Bounded, encode, one_of
from .env import EnvConfig, ObservationBundle, obs_dims
from .nets import (
    DenseNet,
    GradientTape,
    NetGrads,
    PackedArray,
    finite_input,
    make_net,
    net_backward,
    net_forward,
    softmax,
)

POLICY_FORMAT_VERSION = 1

LOG_2PI = math.log(2.0 * math.pi)

RESIDUAL_FUSIONS = ("latent", "action")


@dataclass
class PolicyMode(Bounded):
    stage: Annotated[int, one_of((1, 2))] = 1
    residual_fusion: Annotated[str, one_of(RESIDUAL_FUSIONS)] = "latent"
    one_stage: bool = False
    n_experts: Annotated[int, POSITIVE] = 3


@dataclass
class PolicyArch(Bounded):
    d_f: Annotated[int, NON_NEGATIVE] = 32  # encoder feature width
    d_z: Annotated[int, NON_NEGATIVE] = 64  # actor latent width
    encoder_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = (64,)
    trunk_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = (128,)
    head_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = ()  # no hidden layer
    expert_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = (64,)
    gate_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = (32,)
    critic_hidden: Annotated[tuple[int, ...], EACH_POSITIVE] = (256, 128)
    log_std_init: Annotated[float, FINITE] = 0.0
    log_std_min: Annotated[float, FINITE] = -4.0
    log_std_max: Annotated[float, FINITE] = 1.0

    def __post_init__(self):
        super().__post_init__()
        lo, x, hi = self.log_std_min, self.log_std_init, self.log_std_max
        if not lo <= x <= hi:
            raise ValueError(f"log_std_init ({x}) must lie in [log_std_min, log_std_max], "
                             f"got [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class BundleBatch:
    """Observation rows as one read-only ``[B, d]`` array; each block is a
    ``[B, w]`` view of its columns.  A batch of one bundle is a ``[1, d]``
    view of that bundle's row."""

    rows: np.ndarray
    slices: dict[str, slice]

    def __post_init__(self):
        self.rows.flags.writeable = False

    m = property(lambda self: self.rows[:, self.slices["m"]])
    e = property(lambda self: self.rows[:, self.slices["e"]])
    o = property(lambda self: self.rows[:, self.slices["o"]])
    hist = property(lambda self: self.rows[:, self.slices["hist"]])
    gait = property(lambda self: self.rows[:, self.slices["gait"]])
    scans = property(lambda self: self.rows[:, self.slices["scans"]])

    @classmethod
    def stack(cls, bundles: list[ObservationBundle]) -> "BundleBatch":
        if len(bundles) == 1:
            return cls(bundles[0].row[None], bundles[0].slices)
        return cls(np.stack([b.row for b in bundles]), bundles[0].slices)


@dataclass
class ResidualCache:
    res_in: np.ndarray
    expert_tapes: list[GradientTape]
    expert_outs: list[np.ndarray]
    gate_tape: GradientTape
    weights: np.ndarray  # [B, N_e]
    z: np.ndarray  # [B, out], the gate-weighted sum of the expert outputs


@dataclass(init=False, eq=False)
class ResidualModule:
    """Mixture of experts over [actor features, gait command]."""

    feat_dim: int
    gait_dim: int
    out_dim: int
    experts: list[DenseNet]
    gate: DenseNet

    def __init__(
        self,
        n_experts: int,
        feat_dim: int,
        gait_dim: int,
        out_dim: int,
        arch: PolicyArch,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        self.feat_dim = feat_dim
        self.gait_dim = gait_dim
        self.out_dim = out_dim
        in_dim = feat_dim + gait_dim
        self.experts = [
            make_net(
                [in_dim, *arch.expert_hidden, out_dim],
                rng,
                hidden_activation="tanh",
                zero_output_layer=True,
                dtype=dtype,
            )
            for _ in range(n_experts)
        ]
        self.gate = make_net(
            [in_dim, *arch.gate_hidden, n_experts],
            rng,
            hidden_activation="tanh",
            zero_output_layer=True,
            dtype=dtype,
        )

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def forward(self, feats: np.ndarray, gait: np.ndarray) -> tuple[np.ndarray, np.ndarray, ResidualCache]:
        """z' = sum_i softmax(gate)[i] * expert_i over [feats, gait]."""
        res_in = np.concatenate([feats, gait], axis=1)
        outs, tapes = [], []
        for net in self.experts:
            y, t = net_forward(net, res_in)
            outs.append(y)
            tapes.append(t)
        logits, gate_tape = net_forward(self.gate, res_in)
        w = softmax(logits)
        z = np.zeros(outs[0].shape, outs[0].dtype)  # a third of zeros_like's cost on a row
        for i, y in enumerate(outs):
            z += w[:, i : i + 1] * y
        cache = ResidualCache(res_in, tapes, outs, gate_tape, w, z)
        return z, w, cache

    def backward(self, cache: ResidualCache, d_z: np.ndarray) -> tuple[dict, np.ndarray]:
        """Grads for experts/gate plus the cotangent on the feature input."""
        grads: dict[str, NetGrads] = {}
        d_in = np.zeros_like(cache.res_in)
        w = cache.weights
        dw = np.stack(
            [np.einsum("bo,bo->b", cache.expert_outs[i], d_z) for i in range(self.n_experts)],
            axis=1,
        )
        for i, net in enumerate(self.experts):
            g, gx = net_backward(net, cache.expert_tapes[i], w[:, i : i + 1] * d_z)
            grads[f"expert_{i}"] = g
            d_in += gx
        # softmax Jacobian: dl_j = w_j (dw_j - sum_k w_k dw_k)
        dots = np.einsum("bk,bk->b", w, dw)
        d_logits = w * (dw - dots[:, None])
        g, gx = net_backward(self.gate, cache.gate_tape, d_logits)
        grads["gate"] = g
        d_in += gx
        # input layout is [feats, gait]; the gait slice carries no gradient out
        return grads, d_in[:, : self.feat_dim]


@dataclass
class PolicyNets:
    scan_enc: DenseNet
    hist_enc: DenseNet
    trunk: DenseNet
    head: DenseNet
    critic: DenseNet


NET_NAMES = tuple(f.name for f in fields(PolicyNets))


@dataclass
class PolicyState:
    """What a policy saves: a checkpoint's ``policy`` document."""

    format_version: ClassVar[int] = POLICY_FORMAT_VERSION
    arch: PolicyArch
    mode: PolicyMode
    nets: PolicyNets
    log_std: PackedArray
    residual: ResidualModule | None = None

    def __post_init__(self):
        # the residual exists at stage 2 only
        if self.mode.stage >= 2 and self.residual is None:
            raise ValueError("residual: missing; a stage-2 policy has a residual module")
        if self.mode.stage < 2 and self.residual is not None:
            raise ValueError("residual: a stage-1 policy has no residual module")


def _input_widths(dims: dict, arch: PolicyArch, mode: PolicyMode) -> dict[str, int]:
    """Each net's input width over observation blocks of widths ``dims``, by its
    place in a ``PolicyState``; ``residual`` is the stage-2 experts' and gate's,
    which read the gait command, as the critic does at stage 2."""
    feat, gait = dims["d_o"] + 2 * arch.d_f, dims["d_gait"] if mode.stage >= 2 else 0
    return {"nets.scan_enc": dims["d_scan"], "nets.hist_enc": dims["d_hist"], "nets.trunk": feat,
            "residual": feat + gait,
            "nets.critic": dims["d_m"] + dims["d_e"] + dims["d_o"] + dims["d_hist"] + gait}


@dataclass
class ActorCache:
    scan_tape: GradientTape
    hist_tape: GradientTape
    trunk_tape: GradientTape
    head_tape: GradientTape
    z_o: np.ndarray
    residual: ResidualCache | None


class ActorCritic:
    """All learnable pieces, built for the model and the env's observation widths."""

    def __init__(
        self,
        model: BipedModel,
        env_cfg: EnvConfig,
        arch: PolicyArch,
        mode: PolicyMode,
        seed: int = 0,
        dtype=np.float32,
    ):
        """A fresh policy, its networks drawn from ``seed`` and rounded to
        ``dtype`` (:func:`gaitrl.nets.make_net`); ``log_std`` is float64."""
        dims = obs_dims(env_cfg)
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xAC]))
        widths = _input_widths(dims, arch, mode)
        # the four actor nets draw first, so a stage-2 actor starts from the
        # same weights as a stage-1 actor of the same seed; the residual's and
        # the critic's weights follow in the same stream
        scan_enc = make_net([widths["nets.scan_enc"], *arch.encoder_hidden, arch.d_f], rng, hidden_activation="tanh", output_activation="tanh", dtype=dtype)
        hist_enc = make_net([widths["nets.hist_enc"], *arch.encoder_hidden, arch.d_f], rng, hidden_activation="tanh", output_activation="tanh", dtype=dtype)
        trunk = make_net([widths["nets.trunk"], *arch.trunk_hidden, arch.d_z], rng, hidden_activation="tanh", output_activation="tanh", dtype=dtype)
        head = make_net([arch.d_z, *arch.head_hidden, N_JOINTS], rng, out_gain=0.01, dtype=dtype)
        residual = None
        if mode.stage >= 2:
            res_out = arch.d_z if mode.residual_fusion == "latent" else N_JOINTS
            residual = ResidualModule(mode.n_experts, widths["nets.trunk"], dims["d_gait"], res_out, arch, rng, dtype)
        critic = make_net([widths["nets.critic"], *arch.critic_hidden, 1], rng, hidden_activation="tanh", dtype=dtype)
        nets = PolicyNets(scan_enc, hist_enc, trunk, head, critic)
        log_std = np.full(N_JOINTS, float(arch.log_std_init))
        self._adopt(PolicyState(arch, mode, nets, log_std, residual), model, dims)

    def _adopt(self, state: PolicyState, model: BipedModel, dims: dict) -> None:
        """Take over ``state`` as it is (no copy): arch, mode and every array.  A
        ``ValueError`` names the first net that does not read ``dims``' widths."""
        widths = _input_widths(dims, state.arch, state.mode)
        nets = [(f"nets.{n}", getattr(state.nets, n)) for n in ("scan_enc", "hist_enc", "trunk", "critic")]
        if state.residual is not None:  # its experts and its gate read one input
            nets += [("residual", net) for net in (*state.residual.experts, state.residual.gate)]
        for name, net in nets:
            if net.input_dim != widths[name]:
                raise ValueError(f"{name}: the policy has {net.input_dim} inputs, the run {widths[name]}")
        self.model = model
        self.dims = dims
        self.arch = state.arch
        self.mode = state.mode
        for name in NET_NAMES:
            setattr(self, name, getattr(state.nets, name))
        self.log_std = state.log_std
        # stage 2 only; every stage-dependent path asks whether it is attached
        self.residual = state.residual

    @classmethod
    def from_state(cls, state: PolicyState, model: BipedModel, env_cfg: EnvConfig) -> "ActorCritic":
        """A policy that takes over ``state``'s arrays; it builds no network."""
        policy = cls.__new__(cls)
        policy._adopt(state, model, obs_dims(env_cfg))
        return policy

    def load_stage1_weights(self, state: PolicyState) -> None:
        """Take over a stage-1 policy's actor: encoders, trunk, head, log_std;
        the critic and the residual stay.  The caller checks ``state``'s arch."""
        nets = replace(state.nets, critic=self.critic)
        self._adopt(replace(self.state(), nets=nets, log_std=state.log_std), self.model, self.dims)

    # -- structure -----------------------------------------------------------

    def components(self) -> dict[str, list[np.ndarray]]:
        """Parameter lists keyed by component name, for per-component optimizers."""
        out = {
            "scan_enc": self.scan_enc.params(),
            "hist_enc": self.hist_enc.params(),
            "trunk": self.trunk.params(),
            "head": self.head.params(),
            "log_std": [self.log_std],
            "critic": self.critic.params(),
        }
        if self.residual is not None:
            for i, e in enumerate(self.residual.experts):
                out[f"expert_{i}"] = e.params()
            out["gate"] = self.residual.gate.params()
        return out

    # -- forward -------------------------------------------------------------

    def encode_features(self, batch: BundleBatch) -> tuple[np.ndarray, GradientTape, GradientTape]:
        """f = concat(o, scan feature, history feature), fixed order.  The
        actor's inputs are checked finite here, once: the rows' suffix
        ``[o, hist, gait, scans]``, in the nets' dtype."""
        finite_input(batch.rows[:, batch.slices["o"].start :], self.scan_enc.dtype)
        f_d, scan_tape = net_forward(self.scan_enc, batch.scans)
        f_h, hist_tape = net_forward(self.hist_enc, batch.hist)
        feats = np.concatenate([batch.o, f_d, f_h], axis=1)
        return feats, scan_tape, hist_tape

    def actor_mean(self, batch: BundleBatch) -> tuple[np.ndarray, ActorCache]:
        feats, scan_tape, hist_tape = self.encode_features(batch)
        z_o, trunk_tape = net_forward(self.trunk, feats)
        res_cache = None
        if self.residual is not None:
            if self.mode.residual_fusion == "latent":
                z_p, _, res_cache = self.residual.forward(feats, batch.gait)
                z = z_o + z_p
                mean, head_tape = net_forward(self.head, z)
            else:
                mean, head_tape = net_forward(self.head, z_o)
                a_p, _, res_cache = self.residual.forward(feats, batch.gait)
                mean = mean + a_p
        else:
            mean, head_tape = net_forward(self.head, z_o)
        return mean, ActorCache(scan_tape, hist_tape, trunk_tape, head_tape, z_o, res_cache)

    def act(self, bundle: ObservationBundle) -> np.ndarray:
        """The deterministic action for one observation: the action mean."""
        mean, _ = self.actor_mean(BundleBatch.stack([bundle]))
        return mean[0]

    def critic_value(self, batch: BundleBatch) -> tuple[np.ndarray, GradientTape]:
        """Values from a prefix of the rows, a view: ``[m, e, o, hist]``, and
        ``gait`` at stage 2."""
        end = batch.slices["gait" if self.residual is not None else "hist"].stop
        v, tape = net_forward(self.critic, finite_input(batch.rows[:, :end], self.critic.dtype))
        return v[:, 0], tape

    # -- backward ------------------------------------------------------------

    def actor_backward(self, cache: ActorCache, d_mean: np.ndarray) -> dict[str, NetGrads]:
        grads: dict[str, NetGrads] = {}
        g_head, g_z = net_backward(self.head, cache.head_tape, d_mean)
        grads["head"] = g_head
        d_feats_extra = None
        if cache.residual is not None:
            if self.mode.residual_fusion == "latent":
                res_grads, d_feats_extra = self.residual.backward(cache.residual, g_z)
            else:
                res_grads, d_feats_extra = self.residual.backward(cache.residual, d_mean)
            grads.update(res_grads)
        g_trunk, d_feats = net_backward(self.trunk, cache.trunk_tape, g_z)
        grads["trunk"] = g_trunk
        if d_feats_extra is not None:
            d_feats += d_feats_extra
        d_o = self.dims["d_o"]
        d_f = self.arch.d_f
        # the encoders read observations: no gradient flows past their inputs
        g_scan, _ = net_backward(self.scan_enc, cache.scan_tape, d_feats[:, d_o : d_o + d_f],
                                 input_grad=False)
        grads["scan_enc"] = g_scan
        g_hist, _ = net_backward(self.hist_enc, cache.hist_tape, d_feats[:, d_o + d_f :],
                                 input_grad=False)
        grads["hist_enc"] = g_hist
        return grads

    # -- persistence -----------------------------------------------------------

    def state(self) -> PolicyState:
        """The policy's arrays as they are (no copy), for the codec."""
        return PolicyState(
            arch=self.arch,
            mode=self.mode,
            nets=PolicyNets(**{name: getattr(self, name) for name in NET_NAMES}),
            log_std=self.log_std,
            residual=self.residual,
        )

    def to_dict(self) -> dict:
        """The policy document, as a checkpoint stores it."""
        return encode(self.state())


def gaussian_log_prob_batch(
    actions: np.ndarray, means: np.ndarray, log_std: np.ndarray
) -> np.ndarray:
    std = np.exp(log_std)
    z = (actions - means) / std
    # the sum methods: np.sum's reduction without its dispatch overhead
    return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * actions.shape[1] * LOG_2PI


@dataclass
class LatentTable:
    """Residual latents with their labels: what ``latents.json`` holds."""

    format_version: ClassVar[int] = 1
    z_prime: np.ndarray  # [N, d]
    gate_w: np.ndarray  # [N, n_experts]
    gait_labels: np.ndarray  # [N] int
    terrain_labels: list  # [N] str


def export_residual_latents(policy: ActorCritic, samples) -> LatentTable:
    """One row per sample: residual latent, gate weights, gait and terrain labels.

    ``samples`` yields (bundle, terrain_label); the gait label is the
    bundle's gait command.
    """
    if policy.residual is None:
        raise ValueError("latent export needs a stage-2 policy with a residual module")
    zs, ws, gl, tl = [], [], [], []
    for bundle, terrain_label in samples:
        batch = BundleBatch.stack([bundle])
        feats, _, _ = policy.encode_features(batch)
        z_p, w, _ = policy.residual.forward(feats, batch.gait)
        zs.append(z_p[0])
        ws.append(w[0])
        gl.append(int(np.argmax(bundle.gait)))
        tl.append(terrain_label)
    return LatentTable(
        z_prime=np.array(zs) if zs else np.zeros((0, policy.residual.out_dim)),
        gate_w=np.array(ws) if ws else np.zeros((0, policy.mode.n_experts)),
        gait_labels=np.array(gl, dtype=int),
        terrain_labels=tl,
    )
