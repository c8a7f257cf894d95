"""Small dense networks with hand-written reverse-mode gradients.

Every learned component in this package (encoders, actor trunk/head, critic,
experts, gate, discriminators) is a plain MLP built from :class:`DenseNet`.
Gradients are derived by hand for this fixed topology and certified against
central finite differences in the test suite, which keeps the substrate free
of any autodiff framework.

Inputs may be single vectors ``[d]`` or batches ``[B, d]``; gradients over a
batch are summed.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("tanh", "relu", "elu", "identity")

NET_FORMAT_VERSION = 1


def _act(name: str, s: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(s)
    if name == "relu":
        return np.maximum(s, 0.0)
    if name == "elu":
        return np.where(s > 0.0, s, np.expm1(np.minimum(s, 0.0)))
    if name == "identity":
        return s
    raise ValueError(f"unknown activation: {name!r}")


def _act_deriv(name: str, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    # z is the already-computed activation output for s
    if name == "tanh":
        return 1.0 - z * z
    if name == "relu":
        return (s > 0.0).astype(s.dtype)
    if name == "elu":
        return np.where(s > 0.0, 1.0, z + 1.0)
    if name == "identity":
        return np.ones_like(s)
    raise ValueError(f"unknown activation: {name!r}")


def _act_deriv2(name: str, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return -2.0 * z * (1.0 - z * z)
    if name == "relu":
        return np.zeros_like(s)
    if name == "elu":
        return np.where(s > 0.0, 0.0, z + 1.0)
    if name == "identity":
        return np.zeros_like(s)
    raise ValueError(f"unknown activation: {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("layer weight must be 2-D and bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("bias length must match weight rows")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")


@dataclass
class DenseNet:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("DenseNet needs at least one layer")
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.weight.shape[0] != b.weight.shape[1]:
                raise ValueError(
                    f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def params(self) -> list[np.ndarray]:
        """Flat parameter list in declared layer order: W0, b0, W1, b1, ..."""
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def copy(self) -> "DenseNet":
        return DenseNet(
            [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )


def make_net(
    dims: list[int],
    rng: np.random.Generator,
    hidden_activation: str = "tanh",
    output_activation: str = "identity",
    out_gain: float = 1.0,
    zero_output_layer: bool = False,
) -> DenseNet:
    """Build an MLP with Xavier-scaled Gaussian init.

    ``dims`` is [input, hidden..., output].  ``out_gain`` scales the final
    layer's init; ``zero_output_layer`` forces the final layer to exact zeros
    (used where a module must start as the zero function).
    """
    if len(dims) < 2:
        raise ValueError("dims needs at least input and output")
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        last = k == len(dims) - 2
        scale = math.sqrt(2.0 / (fan_in + fan_out))
        if last:
            scale *= out_gain
        w = rng.normal(0.0, scale, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        if last and zero_output_layer:
            w[:] = 0.0
        layers.append(Layer(w, b, output_activation if last else hidden_activation))
    return DenseNet(layers)


@dataclass
class GradientTape:
    """Per-layer caches from one forward call, consumed by the backward calls."""

    net_ref: DenseNet
    x: np.ndarray  # [B, in]
    pre: list[np.ndarray]  # s_l, [B, out_l]
    post: list[np.ndarray]  # z_l = act(s_l)
    single: bool = False


@dataclass
class NetGrads:
    """Parameter-shaped gradient accumulators mirroring a DenseNet."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add_(self, other: "NetGrads", scale: float = 1.0) -> None:
        for w, ow in zip(self.weights, other.weights):
            w += scale * ow
        for b, ob in zip(self.biases, other.biases):
            b += scale * ob

    def scale_(self, c: float) -> None:
        for w in self.weights:
            w *= c
        for b in self.biases:
            b *= c

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def zero_grads(net: DenseNet) -> NetGrads:
    return NetGrads(
        weights=[np.zeros_like(l.weight) for l in net.layers],
        biases=[np.zeros_like(l.bias) for l in net.layers],
    )


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected [*, {dim}]")
    return x, single


def net_forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, GradientTape]:
    """Evaluate the network and cache everything backward needs."""
    xb, single = _as_batch(x, net.input_dim, "input")
    if not np.isfinite(xb).all():
        raise ValueError("non-finite network input")
    pre, post = [], []
    z = xb
    for layer in net.layers:
        # the matmul result is a fresh array, so the bias is added in place
        s = z @ layer.weight.T
        s += layer.bias
        z = _act(layer.activation, s)
        pre.append(s)
        post.append(z)
    y = z[0] if single else z
    return y, GradientTape(net, xb, pre, post, single)


def _check_tape(net: DenseNet, tape: GradientTape) -> None:
    if tape.net_ref is not net:
        raise ValueError("tape was produced by a different network")
    if len(tape.pre) != len(net.layers):
        raise ValueError("tape does not match network depth")


def net_backward(
    net: DenseNet, tape: GradientTape, grad_out: np.ndarray
) -> tuple[NetGrads, np.ndarray]:
    """Reverse-mode gradients of <grad_out, y> w.r.t. parameters and input.

    Batched ``grad_out`` rows are treated as independent cotangents; parameter
    gradients are summed over the batch and ``grad_input`` keeps the batch
    shape.
    """
    _check_tape(net, tape)
    g, single = _as_batch(grad_out, net.output_dim, "grad_out")
    if g.shape[0] != tape.x.shape[0]:
        raise ValueError("grad_out batch size does not match the forward call")
    grads = zero_grads(net)
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        gs = g * _act_deriv(layer.activation, tape.pre[k], tape.post[k])
        zin = tape.x if k == 0 else tape.post[k - 1]
        grads.weights[k] += gs.T @ zin
        grads.biases[k] += gs.sum(axis=0)
        g = gs @ layer.weight
    grad_input = g[0] if (single and tape.single) else g
    return grads, grad_input


def net_directional_param_grads(
    net: DenseNet, tape: GradientTape, v: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, NetGrads]:
    """Parameter gradients of the directional derivative h = grad_out . (J v).

    J is the network Jacobian dy/dx at the taped input.  This is the
    second-order rule needed to train through an input-gradient norm: with
    v held fixed, grad_theta(h) is exact.  Batched rows are independent and
    the returned parameter grads are summed over the batch.
    """
    _check_tape(net, tape)
    vb, _ = _as_batch(v, net.input_dim, "tangent")
    gb, _ = _as_batch(grad_out, net.output_dim, "grad_out")
    n_layers = len(net.layers)

    # Forward tangent sweep: s_dot_l = W_l z_dot_{l-1}; z_dot_l = act'(s_l) * s_dot_l.
    s_dot: list[np.ndarray] = []
    z_dot: list[np.ndarray] = []
    derivs: list[np.ndarray] = []
    zd = vb
    for k, layer in enumerate(net.layers):
        sd = zd @ layer.weight.T
        d1 = _act_deriv(layer.activation, tape.pre[k], tape.post[k])
        zd = d1 * sd
        s_dot.append(sd)
        z_dot.append(zd)
        derivs.append(d1)
    h = np.einsum("bo,bo->b", gb, z_dot[-1])

    # Reverse sweep over the joint primal/tangent graph.
    grads = zero_grads(net)
    g_zdot = gb  # cotangent of z_dot_l
    g_z = np.zeros_like(gb)  # cotangent of z_l (primal)
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        d2 = _act_deriv2(layer.activation, tape.pre[k], tape.post[k])
        g_sdot = derivs[k] * g_zdot
        # s_l feeds act'(s_l) in the tangent chain and act(s_l) in the primal one
        g_s = d2 * s_dot[k] * g_zdot + derivs[k] * g_z
        zin = tape.x if k == 0 else tape.post[k - 1]
        zdin = vb if k == 0 else z_dot[k - 1]
        grads.weights[k] += g_sdot.T @ zdin + g_s.T @ zin
        grads.biases[k] += g_s.sum(axis=0)
        g_zdot = g_sdot @ layer.weight
        g_z = g_s @ layer.weight
    return h, grads


def softmax(w: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("non-finite softmax input")
    shifted = w - w.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class AdamState:
    """Bias-corrected Adam over an arbitrary list of parameter arrays."""

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0.0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step_count": self.step_count,
            "m": [encode_array(a) for a in self.m],
            "v": [encode_array(a) for a in self.v],
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "AdamState":
        obj = cls.__new__(cls)
        obj.lr = d["lr"]
        obj.beta1 = d["beta1"]
        obj.beta2 = d["beta2"]
        obj.eps = d["eps"]
        obj.step_count = d["step_count"]
        obj.m = [decode_array(a) for a in d["m"]]
        obj.v = [decode_array(a) for a in d["v"]]
        return obj


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> None:
    """Standard bias-corrected Adam update, in place.

    A NaN/Inf gradient raises before any parameter or moment is touched.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state lengths differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient in adam_step")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


# --- serialization ---------------------------------------------------------
#
# A network is stored as a JSON shape manifest plus one flat float64 array in
# declared layer order (W0 row-major, b0, W1, b1, ...).  Raw little-endian
# bytes are used so round-trips are bit-exact.


def net_manifest(net: DenseNet) -> dict:
    return {
        "format_version": NET_FORMAT_VERSION,
        "layers": [
            {
                "in": int(l.weight.shape[1]),
                "out": int(l.weight.shape[0]),
                "activation": l.activation,
            }
            for l in net.layers
        ],
    }


def net_to_flat(net: DenseNet) -> np.ndarray:
    return np.concatenate([p.ravel() for p in net.params()]).astype(np.float64)


def net_from_manifest(manifest: dict, flat: np.ndarray) -> DenseNet:
    if manifest.get("format_version") != NET_FORMAT_VERSION:
        raise ValueError(f"unsupported net manifest version: {manifest.get('format_version')}")
    flat = np.asarray(flat, dtype=np.float64)
    layers = []
    pos = 0
    for spec in manifest["layers"]:
        n_in, n_out = spec["in"], spec["out"]
        w = flat[pos : pos + n_out * n_in].reshape(n_out, n_in).copy()
        pos += n_out * n_in
        b = flat[pos : pos + n_out].copy()
        pos += n_out
        layers.append(Layer(w, b, spec["activation"]))
    if pos != flat.size:
        raise ValueError(f"flat array has {flat.size} values, manifest expects {pos}")
    return DenseNet(layers)


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"]).copy()


def net_to_dict(net: DenseNet) -> dict:
    return {"manifest": net_manifest(net), "flat": encode_array(net_to_flat(net))}


def net_from_dict(d: dict) -> DenseNet:
    return net_from_manifest(d["manifest"], decode_array(d["flat"]))
