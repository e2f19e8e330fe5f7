"""Dense linear-algebra kernels with hand-derived gradients.

The kernels are dtype-generic over float32 and float64: a layer keeps the
float dtype of its arrays (any other input becomes float64), and
activations, gradients and Adam's scratch follow it, so a float32 model
trains in float32 end to end.  Forward and backward passes never mutate
layers; the Adam update writes the parameter and moment arrays in place,
a cache block at a time, so a training loop's layers hold the updated
values without a copy.  Gradients are derived per layer type rather than
traced, which keeps them checkable against central finite differences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, TrainingError
from .rng import RngStream

LEAKY_SLOPE = 0.01
ADAM_BLOCK = 1 << 15   # elements per array updated at once by adam_step


class Activation(enum.Enum):
    LEAKY_RELU = "leaky_relu"
    TANH = "tanh"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


def _float_array(a) -> np.ndarray:
    """`a` as an array: float32 and float64 arrays as they are, anything
    else converted to float64."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-z) overflows to inf for z below about -88.7 in float32 (-709 in
    # float64), and 1 / inf is the correct limit 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _apply_activation(act: Activation, z: np.ndarray) -> np.ndarray:
    if act is Activation.LEAKY_RELU:
        return np.where(z >= 0.0, z, LEAKY_SLOPE * z)
    if act is Activation.TANH:
        return np.tanh(z)
    if act is Activation.SIGMOID:
        return _sigmoid(z)
    return z


def _activation_grad(act: Activation, z: np.ndarray) -> np.ndarray:
    """d activation / d pre-activation, evaluated at pre-activation z, in
    z's dtype."""
    if act is Activation.LEAKY_RELU:
        return np.where(z >= 0.0, z.dtype.type(1.0), z.dtype.type(LEAKY_SLOPE))
    if act is Activation.TANH:
        t = np.tanh(z)
        return 1.0 - t * t
    if act is Activation.SIGMOID:
        s = _sigmoid(z)
        return s * (1.0 - s)
    return np.ones_like(z)


@dataclass
class DenseLayer:
    """Fully connected layer: activation(weights @ x + bias)."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: Activation = Activation.IDENTITY

    def __post_init__(self):
        self.weights = _float_array(self.weights)
        self.bias = _float_array(self.bias)
        if self.weights.dtype != self.bias.dtype:
            raise ContractViolationError(
                f"DenseLayer: weights are {self.weights.dtype}, bias is "
                f"{self.bias.dtype}")
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ContractViolationError("DenseLayer: weights must be 2-D, bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ContractViolationError(
                f"DenseLayer: bias length {self.bias.shape[0]} does not match "
                f"out_dim {self.weights.shape[0]}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ContractViolationError("DenseLayer: parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def init_dense(rng: RngStream, in_dim: int, out_dim: int,
               activation: Activation) -> DenseLayer:
    """Fan-based uniform(-a, a) weight init with a = sqrt(6/(in+out)); zero bias."""
    a = math.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform_range(-a, a, out_dim * in_dim).reshape(out_dim, in_dim)
    return DenseLayer(w, np.zeros(out_dim), activation)


def _pre_activation(layer: DenseLayer, xs: np.ndarray) -> np.ndarray:
    """W x + b for each row of a (n, in_dim) batch."""
    if xs.ndim != 2 or xs.shape[1] != layer.in_dim:
        raise ContractViolationError(
            f"dense layer: input shape {xs.shape}, expected (n, {layer.in_dim})")
    return xs @ layer.weights.T + layer.bias


def dense_forward_batch(layer: DenseLayer, xs: np.ndarray) -> np.ndarray:
    """Row-wise forward for a (n, in_dim) batch."""
    return _apply_activation(layer.activation, _pre_activation(layer, xs))


def dense_backward_batch(layer: DenseLayer, cached_inputs: np.ndarray,
                         grad_outputs: np.ndarray,
                         pre_activations: np.ndarray | None = None,
                         input_grad: bool = True):
    """Gradients through the layer for a (n, in_dim) batch; weight and bias
    gradients are summed over rows.

    `pre_activations` is the forward pass's W x + b; it is recomputed when
    not given.  With input_grad=False the input gradient is None and its
    matmul is skipped.
    """
    z = (_pre_activation(layer, cached_inputs) if pre_activations is None
         else pre_activations)
    gz = grad_outputs * _activation_grad(layer.activation, z)
    grad_inputs = gz @ layer.weights if input_grad else None
    grad_weights = gz.T @ cached_inputs
    grad_bias = gz.sum(axis=0)
    return grad_inputs, grad_weights, grad_bias


# ---------------------------------------------------------------------------
# Multi-layer perceptron built from DenseLayers.

@dataclass
class Mlp:
    layers: list[DenseLayer] = field(default_factory=list)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, xs: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            xs = dense_forward_batch(layer, xs)
        return xs

    def forward_cached(self, xs: np.ndarray):
        """Forward pass keeping each layer's (input, pre-activation) for the
        backward pass."""
        cache = []
        for layer in self.layers:
            z = _pre_activation(layer, xs)
            cache.append((xs, z))
            xs = _apply_activation(layer.activation, z)
        return xs, cache

    def backward(self, cache: list[tuple[np.ndarray, np.ndarray]],
                 grad_out: np.ndarray, input_grad: bool = True):
        """Returns (grad_input, param_grads) with param_grads ordered as
        params(); grad_input is None when input_grad is False."""
        grads: list[np.ndarray] = []
        for i in reversed(range(len(self.layers))):
            xs, z = cache[i]
            grad_out, gw, gb = dense_backward_batch(
                self.layers[i], xs, grad_out, z, input_grad=input_grad or i > 0)
            grads.append(gb)
            grads.append(gw)
        grads.reverse()
        return grad_out, grads

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def set_params(self, params: Sequence[np.ndarray]) -> None:
        if len(params) != 2 * len(self.layers):
            raise ContractViolationError("set_params: wrong parameter count")
        for i, layer in enumerate(self.layers):
            layer.weights = _float_array(params[2 * i])
            layer.bias = _float_array(params[2 * i + 1])


def init_mlp(rng: RngStream, dims: Sequence[int],
             activations: Sequence[Activation]) -> Mlp:
    if len(activations) != len(dims) - 1:
        raise ContractViolationError("init_mlp: need one activation per layer")
    layers = [init_dense(rng, dims[i], dims[i + 1], activations[i])
              for i in range(len(dims) - 1)]
    return Mlp(layers)


# ---------------------------------------------------------------------------
# Adam optimizer (in place, over lists of parameter arrays).

@dataclass
class AdamState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def zeros_like(cls, params: Sequence[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params], 0)


def adam_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
              state: AdamState, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> None:
    """One bias-corrected Adam update (Kingma & Ba, Alg. 1), in place.

    Writes `params`, `state.first_moment` and `state.second_moment` and
    increments `state.step_count`.  Every array shares one float dtype, in
    which the update is computed.  Each array is walked ADAM_BLOCK
    elements at a time, so a block's operands stay in cache across the
    update's passes.  Every check, including the finite check of every
    gradient, runs before anything is written: a failed step leaves params
    and state untouched.
    """
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ContractViolationError("adam_step: betas must lie in [0, 1)")
    if not (len(params) == len(grads) == len(state.first_moment)
            == len(state.second_moment)):
        raise ContractViolationError("adam_step: params/grads/state length mismatch")
    t = state.step_count + 1
    dtype = params[0].dtype if params else np.float64
    # The update goes through flat views; reshape(-1) of a non-contiguous
    # array is a copy, and writing to it would lose the update.
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.first_moment,
                                         state.second_moment)):
        for what, a in (("parameter", p), ("gradient", g),
                        ("first moment", m), ("second moment", v)):
            if a.shape != p.shape:
                raise ContractViolationError(
                    f"adam_step: {what} {i} has shape {a.shape}, parameter has {p.shape}")
            if a.dtype != dtype:
                raise ContractViolationError(
                    f"adam_step: {what} {i} is {a.dtype}, parameter 0 is {dtype}")
            if not (a.flags.c_contiguous and a.flags.writeable):
                raise ContractViolationError(
                    f"adam_step: {what} {i} must be a C-contiguous writable array")
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise TrainingError(f"adam_step: non-finite gradient at step {t}, "
                                f"parameter {i}")
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    block = min(ADAM_BLOCK, max((p.size for p in params), default=0))
    scratch_a = np.empty(block, dtype)
    scratch_b = np.empty(block, dtype)
    for arrays in zip(params, grads, state.first_moment, state.second_moment):
        p, g, m, v = (a.reshape(-1) for a in arrays)
        for start in range(0, p.size, ADAM_BLOCK):
            cut = slice(start, start + ADAM_BLOCK)
            pb, gb, mb, vb = p[cut], g[cut], m[cut], v[cut]
            a, b = scratch_a[:pb.size], scratch_b[:pb.size]
            # m = beta1*m + (1-beta1)*g
            np.multiply(mb, beta1, out=mb)
            np.multiply(gb, 1.0 - beta1, out=a)
            np.add(mb, a, out=mb)
            # v = beta2*v + ((1-beta2)*g)*g
            np.multiply(vb, beta2, out=vb)
            np.multiply(gb, 1.0 - beta2, out=a)
            np.multiply(a, gb, out=a)
            np.add(vb, a, out=vb)
            # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
            np.divide(vb, c2, out=a)
            np.sqrt(a, out=a)
            np.add(a, epsilon, out=a)
            np.divide(mb, c1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(pb, b, out=pb)
    state.step_count = t

