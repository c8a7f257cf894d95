"""Small dense networks with hand-written reverse-mode gradients.

Every learned component in this package (encoders, actor trunk/head, critic,
experts, gate, discriminators) is a plain MLP built from :class:`DenseNet`.
Gradients are derived by hand for this fixed topology and certified against
central finite differences in the test suite, which keeps the substrate free
of any autodiff framework.

Inputs are batches ``[B, d]``: a single sample is a batch of one, ``x[None]``.
Parameter gradients over a batch are summed.

The dtype rule.  A network computes in the dtype of its parameter arrays,
float32 or float64, and nothing else: ``make_net`` draws its weights in
float64 and rounds them once to the dtype it is given (float32 unless a
caller asks for float64), every layer of a net has the net's dtype, and each
input and cotangent is cast to it on the way in.  So the tapes, the gradients
and the Adam moments (``np.zeros_like`` of the parameters) have it too.  The
package's networks are float32, as PPO nets usually are; float64 instances of
the same code are what the finite-difference and bit-for-bit checks run on.
Everything around the nets stays float64: physics, rewards, the return and
advantage arithmetic, the Gaussian log-density and the policy's ``log_std``.

The finite rule.  An array is checked finite once, where it enters the nets
from outside them, in the net's dtype (:func:`finite_input`, which refuses
it with ``ValueError("non-finite network input")``): the callers in
:mod:`gaitrl.policy` and :mod:`gaitrl.amp` check each observation block,
window and discriminator batch they are handed.  What one net hands to
another (encoder features, the trunk latent, the residual's input, the gate
logits) is not checked again: it can be non-finite only through a
non-finite parameter, and then the output carries it to whoever reads it.
``net_forward``, ``net_forward_rows`` and ``softmax`` check nothing.  A
loss and its gradients are checked once too, by the update that computed
them and before any parameter steps (:func:`finite_step`); ``adam_step``
checks nothing.

A forward call's tape holds the input and each layer's output, and no
pre-activation: every derivative the backward rules read is a function of the
output (tanh' = 1 - z²), so tanh runs in place on the fresh matmul result.
``net_backward`` computes the input's cotangent, the layer-0 ``gs @ W``, only
when the caller asks for it (``input_grad``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NewType

import numpy as np

ACTIVATIONS = ("tanh", "identity")
# the dtypes a network computes in (the module docstring's dtype rule)
NET_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# The annotation of float32 or float64 state that the codec stores packed
# (its dtype and the base64 of its little-endian bytes, bit-exact) rather
# than as nested lists.
PackedArray = NewType("PackedArray", np.ndarray)


# ``Layer`` admits only the ACTIVATIONS, so anything but "tanh" is the identity;
# both derivatives read the layer's output z alone
def _act_deriv(name: str, z: np.ndarray) -> np.ndarray:
    return 1.0 - z * z if name == "tanh" else np.ones_like(z)


def _act_deriv2(name: str, z: np.ndarray) -> np.ndarray:
    return -2.0 * z * (1.0 - z * z) if name == "tanh" else np.zeros_like(z)


def _through_act(name: str, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The cotangent on a layer's pre-activation from ``g``, the one on its
    output ``z``: ``g * act'(z)``, in one fresh C-ordered array."""
    if name != "tanh":
        return g.copy()  # the identity's derivative is 1
    gs = z * z
    np.subtract(1.0, gs, out=gs)
    gs *= g
    return gs


@dataclass
class Layer:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    activation: str

    def __post_init__(self):
        self.weight, self.bias = np.asarray(self.weight), np.asarray(self.bias)
        if self.weight.dtype not in NET_DTYPES or self.bias.dtype != self.weight.dtype:
            raise ValueError("layer weight and bias must both be float32 or both float64, "
                             f"got {self.weight.dtype} and {self.bias.dtype}")
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
        if any(layer.weight.dtype != self.dtype for layer in self.layers):
            raise ValueError("every layer of a net has one dtype")

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].weight.dtype

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


def make_net(
    dims: list[int],
    rng: np.random.Generator,
    hidden_activation: str = "tanh",
    output_activation: str = "identity",
    out_gain: float = 1.0,
    zero_output_layer: bool = False,
    dtype=np.float32,
) -> DenseNet:
    """Build an MLP with Xavier-scaled Gaussian init.

    ``dims`` is [input, hidden..., output].  ``out_gain`` scales the final
    layer's init; ``zero_output_layer`` forces the final layer to exact zeros
    (used where a module must start as the zero function).  The weights are
    drawn in float64 and rounded once to ``dtype``, so a float32 net and a
    float64 net of one generator state hold the same draws.
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
        w = rng.normal(0.0, scale, size=(fan_out, fan_in)).astype(dtype)
        b = np.zeros(fan_out, dtype=dtype)
        if last and zero_output_layer:
            w[:] = 0.0
        layers.append(Layer(w, b, output_activation if last else hidden_activation))
    return DenseNet(layers)


@dataclass
class GradientTape:
    """What one forward call leaves for the backward calls: the input and each
    layer's output, nothing else (the last output is the array returned)."""

    net_ref: DenseNet
    x: np.ndarray  # [B, in]
    post: list[np.ndarray]  # z_l = act(s_l), [B, out_l]


@dataclass
class NetGrads:
    """Parameter-shaped gradients mirroring a DenseNet; ``add_`` accumulates."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def add_(self, other: "NetGrads") -> None:
        for w, ow in zip(self.weights, other.weights):
            w += ow
        for b, ob in zip(self.biases, other.biases):
            b += ob

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def _as_batch(x: np.ndarray, net: DenseNet, dim: int, what: str) -> np.ndarray:
    """``x`` as a ``[B, dim]`` array of ``net``'s dtype, copied only to cast it."""
    x = np.asarray(x, dtype=net.dtype)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected [*, {dim}]")
    return x


def finite_input(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``x`` in ``dtype``, copied only to cast it, and refused if any value is
    NaN or inf there: the one check of an array that enters the nets (the
    module docstring's finite rule)."""
    x = np.asarray(x, dtype=dtype)
    # a count of the finite entries: cheaper than ``.all()``'s reduction on a row
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError("non-finite network input")
    return x


def net_forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, GradientTape]:
    """Evaluate the network; the tape keeps the input and each layer's output.

    ``x`` is cast to the net's dtype and its shape checked; it is not checked
    finite (the finite rule: whoever hands the nets an outside array checks
    it with :func:`finite_input`)."""
    layers = net.layers
    w0 = layers[0].weight
    # an array of the net's (canonical) dtype and width is the input as it is
    if type(x) is np.ndarray and x.dtype is w0.dtype and x.ndim == 2 and x.shape[1] == w0.shape[1]:
        xb = x
    else:
        xb = _as_batch(x, net, net.input_dim, "input")
    post = []
    z = xb
    for layer in layers:
        # ``ndarray.dot`` makes the BLAS call that ``@`` makes, without the
        # ufunc machinery around it; a width-1 layer keeps ``@``, because
        # over a strided batch of a few columns the two differ in float32
        w = layer.weight
        z = z @ w.T if w.shape[0] == 1 else z.dot(w.T)
        # the product is a fresh array: the bias and tanh go in place
        z += layer.bias
        if layer.activation == "tanh":
            np.tanh(z, out=z)
        post.append(z)
    return z, GradientTape(net, xb, post)


def net_forward_rows(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` ``[B, in]`` as its own batch of one, with the bits of
    ``net_forward(net, x[i : i + 1])``, in one matmul per layer and no tape.

    A ``[B, in]`` product's row bits depend on ``B`` (BLAS blocks the rows);
    a ``[B, 1, in]`` stack's do not: ``np.matmul`` multiplies each ``[1, in]``
    member as the batch of one is multiplied.  Like ``net_forward`` it casts
    ``x`` and checks its shape, not that it is finite."""
    z = _as_batch(x, net, net.input_dim, "input")[:, None, :]
    for layer in net.layers:
        z = np.matmul(z, layer.weight.T)
        z += layer.bias
        if layer.activation == "tanh":
            np.tanh(z, out=z)
    return z[:, 0]


def _check_tape(net: DenseNet, tape: GradientTape) -> None:
    if tape.net_ref is not net:
        raise ValueError("tape was produced by a different network")
    if len(tape.post) != len(net.layers):
        raise ValueError("tape does not match network depth")


def net_backward(
    net: DenseNet,
    tape: GradientTape,
    grad_out: np.ndarray,
    *,
    input_grad: bool = True,
    param_grads: bool = True,
) -> tuple[NetGrads | None, np.ndarray | None]:
    """Reverse-mode gradients of <grad_out, y> w.r.t. parameters and input.

    Batched ``grad_out`` rows are treated as independent cotangents; parameter
    gradients are summed over the batch and ``grad_input`` keeps the batch
    shape.  With ``input_grad`` false the layer-0 ``gs @ W`` is skipped and
    ``grad_input`` is None; the parameter gradients have the same bits.  With
    ``param_grads`` false no layer's ``gs.T @ z`` or bias sum is formed and
    the gradients are None; ``grad_input`` has the same bits.
    """
    _check_tape(net, tape)
    g = _as_batch(grad_out, net, net.output_dim, "grad_out")
    if g.shape[0] != tape.x.shape[0]:
        raise ValueError("grad_out batch size does not match the forward call")
    n_layers = len(net.layers)
    weights, biases = [None] * n_layers, [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        g = _through_act(layer.activation, tape.post[k], g)
        if param_grads:
            weights[k] = g.T @ (tape.x if k == 0 else tape.post[k - 1])
            biases[k] = g.sum(axis=0)
        g = g @ layer.weight if k > 0 or input_grad else None
    return (NetGrads(weights, biases) if param_grads else None), g


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
    vb = _as_batch(v, net, net.input_dim, "tangent")
    gb = _as_batch(grad_out, net, net.output_dim, "grad_out")
    n_layers = len(net.layers)

    # Forward tangent sweep: s_dot_l = W_l z_dot_{l-1}; z_dot_l = act'(s_l) * s_dot_l.
    s_dot: list[np.ndarray] = []
    z_dot: list[np.ndarray] = []
    derivs: list[np.ndarray] = []
    zd = vb
    for k, layer in enumerate(net.layers):
        sd = zd @ layer.weight.T
        d1 = _act_deriv(layer.activation, tape.post[k])
        zd = d1 * sd
        s_dot.append(sd)
        z_dot.append(zd)
        derivs.append(d1)
    h = np.einsum("bo,bo->b", gb, z_dot[-1])

    # Reverse sweep over the joint primal/tangent graph.
    weights, biases = [None] * n_layers, [None] * n_layers
    g_zdot = gb  # cotangent of z_dot_l
    g_z = np.zeros_like(gb)  # cotangent of z_l (primal)
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        d2 = _act_deriv2(layer.activation, tape.post[k])
        g_sdot = derivs[k] * g_zdot
        # s_l feeds act'(s_l) in the tangent chain and act(s_l) in the primal one
        g_s = d2 * s_dot[k] * g_zdot + derivs[k] * g_z
        zin = tape.x if k == 0 else tape.post[k - 1]
        zdin = vb if k == 0 else z_dot[k - 1]
        weights[k] = g_sdot.T @ zdin + g_s.T @ zin
        biases[k] = g_s.sum(axis=0)
        g_zdot = g_sdot @ layer.weight
        g_z = g_s @ layer.weight
    return h, NetGrads(weights, biases)


def softmax(w: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtraction), in
    float32 for float32 logits and in float64 otherwise."""
    if type(w) is not np.ndarray:
        w = np.asarray(w)
    if w.dtype != np.float32:
        w = np.asarray(w, dtype=np.float64)
    # the reductions as the ufuncs that ``max``/``sum`` call; exp and the
    # division go in place on the fresh difference
    e = w - np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@dataclass(init=False, eq=False)
class AdamState:
    """Bias-corrected Adam over an arbitrary list of parameter arrays."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    step_count: int
    m: list[PackedArray]
    v: list[PackedArray]

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
    ):
        if lr <= 0.0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = 1e-8  # a field, so a checkpoint holds the eps its steps used
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> None:
    """Standard bias-corrected Adam update, in place.

    Each parameter's temporaries are two scratch arrays, written in place in
    the order of ``m = β1·m + (1-β1)·g``, ``v = β2·v + ((1-β2)·g)·g`` and
    ``p -= (lr·(m/c1)) / (sqrt(v/c2) + eps)``, so every value keeps the bits
    of that expression.  The gradients are finite: the updates check them
    with :func:`finite_step` before stepping (the module docstring's finite
    rule).
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state lengths differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        s = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += s
        np.multiply(g, 1.0 - state.beta2, out=s)
        s *= g
        v *= state.beta2
        v += s
        den = np.divide(v, c2)
        np.sqrt(den, out=den)
        den += state.eps
        np.divide(m, c1, out=s)
        s *= state.lr
        s /= den
        p -= s


def finite_step(loss: float, grads: list[np.ndarray]) -> bool:
    """Whether an update may step on ``loss`` and ``grads``: all finite."""
    return math.isfinite(loss) and all(np.isfinite(g).all() for g in grads)


class Snapshot:
    """Copies of parameter lists and their Adam states (``parts``, pairs of
    ``(params, state)``), taken before an iteration's updates.  ``restore``
    writes every array and step count back in place, so an update that meets
    a non-finite loss or gradient (:func:`finite_step`) leaves what it and
    the updates before it touched as they found it."""

    def __init__(self, parts: list[tuple[list[np.ndarray], AdamState]]):
        self.parts = parts
        self.copies = [([a.copy() for a in (*params, *state.m, *state.v)], state.step_count)
                       for params, state in parts]

    def restore(self) -> None:
        for (params, state), (arrays, step_count) in zip(self.parts, self.copies):
            for a, saved in zip((*params, *state.m, *state.v), arrays):
                a[:] = saved
            state.step_count = step_count


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total
