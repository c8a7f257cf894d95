"""Actor-critic with latent-residual mixture of experts.

The actor stack: scan and history encoders feed a trunk that produces the
pre-action latent ``z_o``; an action head maps the latent to joint targets.
In stage 2 a residual module (N experts + softmax gate over ``[features,
gait command]``) produces ``z'`` which is added to ``z_o`` before the head
(latent fusion) or directly to the action mean (the action-space ablation).
Expert and gate output layers are zero-initialized, so at stage-2 attachment
the policy is bit-for-bit the stage-1 policy.

The critic reads only privileged inputs (elevation map + extras, plus the
gait command in stage 2) and never shares parameters with the actor; the
actor path never sees a privileged array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biped import BipedModel, N_JOINTS
from .env import DR_RANGES, EnvConfig, ObservationBundle, obs_dims
from .nets import (
    GradientTape,
    NetGrads,
    decode_array,
    encode_array,
    make_net,
    net_backward,
    net_forward,
    net_from_dict,
    net_to_dict,
    softmax,
)

POLICY_FORMAT_VERSION = 1

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class PolicyMode:
    stage: int = 1
    residual_fusion: str = "latent"  # or "action"
    one_stage: bool = False
    n_experts: int = 3

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "residual_fusion": self.residual_fusion,
            "one_stage": self.one_stage,
            "n_experts": self.n_experts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyMode":
        return cls(**d)


@dataclass
class PolicyArch:
    d_f: int = 32  # encoder feature width
    d_z: int = 64  # actor latent width
    encoder_hidden: tuple = (64,)
    trunk_hidden: tuple = (128,)
    head_hidden: tuple = ()
    expert_hidden: tuple = (64,)
    gate_hidden: tuple = (32,)
    critic_hidden: tuple = (256, 128)
    n_gaits: int = 3
    log_std_init: float = 0.0
    log_std_min: float = -4.0
    log_std_max: float = 1.0

    def to_dict(self) -> dict:
        return {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in self.__dict__.items()
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyArch":
        kw = {k: (tuple(v) if isinstance(v, list) else v) for k, v in d.items()}
        return cls(**kw)


@dataclass
class ObservationNormalizer:
    """Fixed per-block shift/scale applied before any network input.

    The privileged extras end with ``[o_t, history]``, both normalized like
    ``o``, so the tail of ``e_shift``/``e_scale`` is ``o_shift``/``o_scale``
    tiled over the history; :meth:`norm_hist` reads it from there.
    """

    o_shift: np.ndarray
    o_scale: np.ndarray
    scan_shift: np.ndarray
    scan_scale: np.ndarray
    m_shift: np.ndarray
    m_scale: np.ndarray
    e_shift: np.ndarray
    e_scale: np.ndarray

    def norm_o(self, o):
        return (o - self.o_shift) * self.o_scale

    def norm_hist(self, hist):
        # views of the tail of e's shift/scale: no copy, nothing that can go stale
        k = self.e_shift.shape[0] - hist.shape[-1]
        return (hist - self.e_shift[k:]) * self.e_scale[k:]

    def norm_scan(self, scans):
        return (scans - self.scan_shift) * self.scan_scale

    def norm_m(self, m):
        return (m - self.m_shift) * self.m_scale

    def norm_e(self, e):
        return (e - self.e_shift) * self.e_scale

    def to_dict(self) -> dict:
        return {k: encode_array(v) for k, v in self.__dict__.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ObservationNormalizer":
        return cls(**{k: decode_array(v) for k, v in d.items()})


def build_normalizer(model: BipedModel, env_cfg: EnvConfig) -> ObservationNormalizer:
    dims = obs_dims(env_cfg)
    nj = N_JOINTS
    o_shift = np.zeros(dims["d_o"])
    o_scale = np.ones(dims["d_o"])
    o_scale[0:2] = 0.25  # angular rates
    o_shift[6 : 6 + nj] = model.nominal()
    o_scale[6 + nj : 6 + 2 * nj] = 0.05  # joint velocities
    o_scale[6 + 2 * nj :] = 0.25  # previous action

    H = model.standing_height()
    scan_shift = np.full(dims["d_scan"], -H)
    scan_scale = np.full(dims["d_scan"], 2.0)
    m_shift = np.full(dims["d_m"], -H)
    m_scale = np.full(dims["d_m"], 2.0)

    e_shift = np.zeros(dims["d_e"])
    e_scale = np.ones(dims["d_e"])
    # feet offsets sit around (-0, -H); recentre the vertical components
    e_shift[1] = -H
    e_shift[3] = -H
    dr_lo = np.array([lo for lo, _ in DR_RANGES.values()])
    dr_hi = np.array([hi for _, hi in DR_RANGES.values()])
    k0 = 8  # feet(4) + contacts(2) + velocity(2)
    nd = len(DR_RANGES)
    e_shift[k0 : k0 + nd] = 0.5 * (dr_lo + dr_hi)
    e_scale[k0 : k0 + nd] = 2.0 / np.maximum(dr_hi - dr_lo, 1e-9)
    d_o = dims["d_o"]
    e_shift[k0 + nd : k0 + nd + d_o] = o_shift
    e_scale[k0 + nd : k0 + nd + d_o] = o_scale
    Hn = env_cfg.history_len
    e_shift[k0 + nd + d_o :] = np.tile(o_shift, Hn)
    e_scale[k0 + nd + d_o :] = np.tile(o_scale, Hn)
    return ObservationNormalizer(
        o_shift, o_scale, scan_shift, scan_scale, m_shift, m_scale, e_shift, e_scale
    )


@dataclass
class BundleBatch:
    """Observation bundles as ``[B, d]`` arrays, one per block.

    A batch is read-only: a batch of one bundle holds ``[1, d]`` views of
    that bundle's arrays, so writing into the batch would write into the
    bundle.
    """

    o: np.ndarray
    hist: np.ndarray
    scans: np.ndarray
    m: np.ndarray
    e: np.ndarray

    @classmethod
    def stack(cls, bundles: list[ObservationBundle]) -> "BundleBatch":
        if len(bundles) == 1:
            (b,) = bundles
            return cls(b.o[None], b.hist[None], b.scans[None], b.m[None], b.e[None])
        return cls(
            o=np.stack([b.o for b in bundles]),
            hist=np.stack([b.hist for b in bundles]),
            scans=np.stack([b.scans for b in bundles]),
            m=np.stack([b.m for b in bundles]),
            e=np.stack([b.e for b in bundles]),
        )

    @classmethod
    def from_single(cls, b: ObservationBundle) -> "BundleBatch":
        return cls.stack([b])


@dataclass
class ResidualCache:
    res_in: np.ndarray
    expert_tapes: list[GradientTape]
    expert_outs: list[np.ndarray]
    gate_tape: GradientTape
    weights: np.ndarray  # [B, N_e]
    z: np.ndarray  # [B, out], the gate-weighted sum of the expert outputs


class ResidualModule:
    """Mixture of experts over [actor features, gait command]."""

    def __init__(
        self,
        n_experts: int,
        feat_dim: int,
        gait_dim: int,
        out_dim: int,
        arch: PolicyArch,
        rng: np.random.Generator,
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
            )
            for _ in range(n_experts)
        ]
        self.gate = make_net(
            [in_dim, *arch.gate_hidden, n_experts],
            rng,
            hidden_activation="tanh",
            zero_output_layer=True,
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
        z = np.zeros_like(outs[0])
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

    def to_dict(self) -> dict:
        return {
            "feat_dim": self.feat_dim,
            "gait_dim": self.gait_dim,
            "out_dim": self.out_dim,
            "experts": [net_to_dict(n) for n in self.experts],
            "gate": net_to_dict(self.gate),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResidualModule":
        obj = cls.__new__(cls)
        obj.feat_dim = d["feat_dim"]
        obj.gait_dim = d["gait_dim"]
        obj.out_dim = d["out_dim"]
        obj.experts = [net_from_dict(e) for e in d["experts"]]
        obj.gate = net_from_dict(d["gate"])
        return obj


@dataclass
class ActResult:
    action: np.ndarray
    log_prob: float
    mean: np.ndarray
    z_o: np.ndarray
    z_prime: np.ndarray | None
    gate_w: np.ndarray | None


@dataclass
class ActorCache:
    batch: BundleBatch
    scan_tape: GradientTape
    hist_tape: GradientTape
    trunk_tape: GradientTape
    head_tape: GradientTape
    feats: np.ndarray
    z_o: np.ndarray
    residual: ResidualCache | None
    mean: np.ndarray


class ActorCritic:
    """All learnable pieces plus the fixed observation normalizer."""

    def __init__(
        self,
        model: BipedModel,
        env_cfg: EnvConfig,
        arch: PolicyArch,
        mode: PolicyMode,
        seed: int = 0,
    ):
        self.model = model
        self.env_cfg = env_cfg
        self.arch = arch
        self.mode = mode
        self.dims = obs_dims(env_cfg)
        self.normalizer = build_normalizer(model, env_cfg)
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0xAC]))

        d_o, d_scan, d_hist = self.dims["d_o"], self.dims["d_scan"], self.dims["d_hist"]
        self.scan_enc = make_net([d_scan, *arch.encoder_hidden, arch.d_f], rng, hidden_activation="tanh", output_activation="tanh")
        self.hist_enc = make_net([d_hist, *arch.encoder_hidden, arch.d_f], rng, hidden_activation="tanh", output_activation="tanh")
        self.feat_dim = d_o + 2 * arch.d_f
        self.trunk = make_net([self.feat_dim, *arch.trunk_hidden, arch.d_z], rng, hidden_activation="tanh", output_activation="tanh")
        self.head = make_net([arch.d_z, *arch.head_hidden, N_JOINTS], rng, out_gain=0.01)
        self.log_std = np.full(N_JOINTS, float(arch.log_std_init))
        self.residual: ResidualModule | None = None
        if mode.stage >= 2 or mode.one_stage:
            self.attach_residual(rng)
        self.critic = make_net(
            [self.critic_input_dim(), *arch.critic_hidden, 1], rng, hidden_activation="tanh"
        )

    # -- structure -----------------------------------------------------------

    def critic_input_dim(self) -> int:
        extra = self.arch.n_gaits if self.mode.stage >= 2 else 0
        return self.dims["d_m"] + self.dims["d_e"] + extra

    def residual_out_dim(self) -> int:
        return self.arch.d_z if self.mode.residual_fusion == "latent" else N_JOINTS

    def attach_residual(self, rng: np.random.Generator) -> None:
        self.residual = ResidualModule(
            self.mode.n_experts,
            self.feat_dim,
            self.arch.n_gaits,
            self.residual_out_dim(),
            self.arch,
            rng,
        )

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
        if self.residual is not None and self.mode.stage >= 2:
            for i, e in enumerate(self.residual.experts):
                out[f"expert_{i}"] = e.params()
            out["gate"] = self.residual.gate.params()
        return out

    # -- forward -------------------------------------------------------------

    def encode_features(self, batch: BundleBatch) -> tuple[np.ndarray, GradientTape, GradientTape]:
        """f = concat(o, scan feature, history feature), normalized, fixed order."""
        nz = self.normalizer
        f_d, scan_tape = net_forward(self.scan_enc, nz.norm_scan(batch.scans))
        f_h, hist_tape = net_forward(self.hist_enc, nz.norm_hist(batch.hist))
        feats = np.concatenate([nz.norm_o(batch.o), f_d, f_h], axis=1)
        return feats, scan_tape, hist_tape

    def actor_mean(self, batch: BundleBatch, gait: np.ndarray | None) -> tuple[np.ndarray, ActorCache]:
        feats, scan_tape, hist_tape = self.encode_features(batch)
        z_o, trunk_tape = net_forward(self.trunk, feats)
        res_cache = None
        use_res = self.mode.stage >= 2 and self.residual is not None
        if use_res:
            if gait is None:
                raise ValueError("stage-2 policy needs a gait command")
            gait = np.atleast_2d(gait)
            if self.mode.residual_fusion == "latent":
                z_p, _, res_cache = self.residual.forward(feats, gait)
                z = z_o + z_p
                mean, head_tape = net_forward(self.head, z)
            else:
                mean, head_tape = net_forward(self.head, z_o)
                a_p, _, res_cache = self.residual.forward(feats, gait)
                mean = mean + a_p
        else:
            mean, head_tape = net_forward(self.head, z_o)
        return mean, ActorCache(
            batch, scan_tape, hist_tape, trunk_tape, head_tape, feats, z_o, res_cache, mean
        )

    def act(
        self,
        bundle: ObservationBundle,
        gait: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        deterministic: bool = False,
    ) -> ActResult:
        batch = BundleBatch.from_single(bundle)
        mean, cache = self.actor_mean(batch, None if gait is None else gait[None, :])
        mean = mean[0]
        z_p = None
        gate_w = None
        if cache.residual is not None:
            gate_w = cache.residual.weights[0]
            z_p = cache.residual.z[0]
        if deterministic or rng is None:
            action = mean.copy()
        else:
            action = mean + np.exp(self.log_std) * rng.standard_normal(N_JOINTS)
        logp = gaussian_log_prob(action, mean, self.log_std)
        return ActResult(action, logp, mean, cache.z_o[0], z_p, gate_w)

    def critic_value(
        self, m: np.ndarray, e: np.ndarray, gait: np.ndarray | None = None
    ) -> tuple[np.ndarray, GradientTape]:
        m = np.atleast_2d(m)
        e = np.atleast_2d(e)
        parts = [self.normalizer.norm_m(m), self.normalizer.norm_e(e)]
        if self.mode.stage >= 2:
            if gait is None:
                raise ValueError("stage-2 critic needs the gait command")
            parts.append(np.atleast_2d(gait))
        x = np.concatenate(parts, axis=1)
        if x.shape[1] != self.critic.input_dim:
            raise ValueError(
                f"critic input layout mismatch: got {x.shape[1]}, expected {self.critic.input_dim}"
            )
        v, tape = net_forward(self.critic, x)
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
            d_feats = d_feats + d_feats_extra
        d_o = self.dims["d_o"]
        d_f = self.arch.d_f
        g_scan, _ = net_backward(self.scan_enc, cache.scan_tape, d_feats[:, d_o : d_o + d_f])
        grads["scan_enc"] = g_scan
        g_hist, _ = net_backward(self.hist_enc, cache.hist_tape, d_feats[:, d_o + d_f :])
        grads["hist_enc"] = g_hist
        return grads

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "format_version": POLICY_FORMAT_VERSION,
            "arch": self.arch.to_dict(),
            "mode": self.mode.to_dict(),
            "nets": {
                "scan_enc": net_to_dict(self.scan_enc),
                "hist_enc": net_to_dict(self.hist_enc),
                "trunk": net_to_dict(self.trunk),
                "head": net_to_dict(self.head),
                "critic": net_to_dict(self.critic),
            },
            "log_std": encode_array(self.log_std),
            "normalizer": self.normalizer.to_dict(),
        }
        if self.residual is not None:
            d["residual"] = self.residual.to_dict()
        return d

    @classmethod
    def from_dict(
        cls, d: dict, model: BipedModel, env_cfg: EnvConfig
    ) -> "ActorCritic":
        if d.get("format_version") != POLICY_FORMAT_VERSION:
            raise ValueError(f"unsupported policy version: {d.get('format_version')}")
        arch = PolicyArch.from_dict(d["arch"])
        mode = PolicyMode.from_dict(d["mode"])
        obj = cls(model, env_cfg, arch, mode, seed=0)
        obj.scan_enc = net_from_dict(d["nets"]["scan_enc"])
        obj.hist_enc = net_from_dict(d["nets"]["hist_enc"])
        obj.trunk = net_from_dict(d["nets"]["trunk"])
        obj.head = net_from_dict(d["nets"]["head"])
        obj.critic = net_from_dict(d["nets"]["critic"])
        obj.log_std = decode_array(d["log_std"])
        obj.normalizer = ObservationNormalizer.from_dict(d["normalizer"])
        obj.residual = ResidualModule.from_dict(d["residual"]) if "residual" in d else None
        return obj

    def load_stage1_weights(self, d: dict) -> None:
        """Adopt a stage-1 checkpoint's actor into this (stage-2) policy."""
        if d.get("format_version") != POLICY_FORMAT_VERSION:
            raise ValueError("unsupported policy version")
        src_arch = PolicyArch.from_dict(d["arch"])
        if src_arch.d_z != self.arch.d_z:
            raise ValueError(
                f"latent width mismatch: checkpoint d_z={src_arch.d_z}, model d_z={self.arch.d_z}"
            )
        self.scan_enc = net_from_dict(d["nets"]["scan_enc"])
        self.hist_enc = net_from_dict(d["nets"]["hist_enc"])
        self.trunk = net_from_dict(d["nets"]["trunk"])
        self.head = net_from_dict(d["nets"]["head"])
        self.log_std = decode_array(d["log_std"])
        self.normalizer = ObservationNormalizer.from_dict(d["normalizer"])


def gaussian_log_prob(action: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> float:
    std = np.exp(log_std)
    z = (action - mean) / std
    # the sum methods: np.sum's reduction without its dispatch overhead
    return float(-0.5 * (z * z).sum() - log_std.sum() - 0.5 * len(mean) * LOG_2PI)


def gaussian_log_prob_batch(
    actions: np.ndarray, means: np.ndarray, log_std: np.ndarray
) -> np.ndarray:
    std = np.exp(log_std)
    z = (actions - means) / std
    return -0.5 * np.sum(z * z, axis=1) - np.sum(log_std) - 0.5 * actions.shape[1] * LOG_2PI


@dataclass
class LatentTable:
    z_prime: np.ndarray  # [N, d]
    gate_w: np.ndarray  # [N, n_experts]
    gait_labels: np.ndarray  # [N] int
    terrain_labels: list  # [N] str


def export_residual_latents(policy: ActorCritic, samples) -> LatentTable:
    """One row per sample: residual latent, gate weights, gait and terrain labels.

    ``samples`` yields (bundle, gait_onehot, terrain_label).
    """
    if policy.mode.stage < 2 or policy.residual is None:
        raise ValueError("latent export needs a stage-2 policy with a residual module")
    zs, ws, gl, tl = [], [], [], []
    for bundle, gait, terrain_label in samples:
        batch = BundleBatch.from_single(bundle)
        feats, _, _ = policy.encode_features(batch)
        z_p, w, _ = policy.residual.forward(feats, np.atleast_2d(gait))
        zs.append(z_p[0])
        ws.append(w[0])
        gl.append(int(np.argmax(gait)))
        tl.append(terrain_label)
    return LatentTable(
        z_prime=np.array(zs) if zs else np.zeros((0, policy.residual_out_dim())),
        gate_w=np.array(ws) if ws else np.zeros((0, policy.mode.n_experts)),
        gait_labels=np.array(gl, dtype=int),
        terrain_labels=tl,
    )
