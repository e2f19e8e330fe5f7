"""Dense linear-algebra kernels with hand-derived gradients.

The kernels are dtype-generic over float32 and float64: a layer keeps the
float dtype of its arrays (any other input becomes float64), and
activations, gradients and Adam's scratch follow it, so a float32 model
trains in float32 end to end.  Forward and backward passes never mutate
layers; the Adam update writes the parameter and moment arrays in place,
a cache block at a time, so a training loop's layers hold the updated
values without a copy.  Gradients are derived per layer type rather than
traced, which keeps them checkable against central finite differences.

One forward kernel serves inference and training: a layer writes its bias
and activation into its own product, so it leaves one array, its output.
Given a cache list, `dense_forward_batch` and `Mlp.forward` append each
layer's (input, output) to it; the output is the next layer's input, and
`Mlp.backward` reads each activation's slope from it.

`train_epochs` is the one minibatch-Adam loop; the autoencoder and the
flow both train through it, and it returns their one report type,
`TrainReport`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, TrainingError
from .rng import RngStream

LEAKY_SLOPE = 0.01
ADAM_BLOCK = 1 << 15   # elements per array updated at once by adam_step
ADAM_BETA1 = 0.9       # Adam's moment decay rates and denominator epsilon
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Activation(enum.Enum):
    LEAKY_RELU = "leaky_relu"
    SIGMOID = "sigmoid"


def _float_array(a) -> np.ndarray:
    """`a` as an array: float32 and float64 arrays as they are, anything
    else converted to float64."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def finite(a: np.ndarray) -> bool:
    """Whether every element of `a` is finite (True if `a` is empty), read
    from min and max: a NaN carries through both, and an infinity is one."""
    return not a.size or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _apply_activation(act: Activation, z: np.ndarray) -> np.ndarray:
    """act(z), written into z.

    Leaky ReLU is max(z, LEAKY_SLOPE * z), which equals
    where(z >= 0, z, LEAKY_SLOPE * z) bit for bit, -0.0, infinities and
    NaNs included, and is several times faster.
    """
    if act is Activation.LEAKY_RELU:
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
    # Sigmoid: 1 / (1 + exp(-z)), one pass at a time.  exp(-z) overflows to
    # inf for z below about -88.7 in float32 (-709 in float64), and 1 / inf
    # is the correct limit 0.
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _activation_grad(act: Activation, out: np.ndarray) -> np.ndarray:
    """d activation / d pre-activation z, read from the output `out`.

    Leaky ReLU's slope is 1 where out >= 0, else LEAKY_SLOPE: its slope at
    z, except where a negative z's LEAKY_SLOPE * z rounds to -0 (the 50
    smallest negative subnormals in float32, 49 in float64), which take 1,
    the kink's other subgradient."""
    if act is Activation.LEAKY_RELU:
        return np.where(out >= 0.0, out.dtype.type(1.0), out.dtype.type(LEAKY_SLOPE))
    return out * (1.0 - out)


@dataclass
class DenseLayer:
    """Fully connected layer: activation(weights @ x + bias)."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: Activation

    def __post_init__(self):
        if not isinstance(self.activation, Activation):
            raise ContractViolationError(
                f"DenseLayer: unknown activation {self.activation!r}")
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
        if not self.weights.size:
            raise ContractViolationError(
                f"DenseLayer: weights of shape {self.weights.shape} have a zero width")
        if not (finite(self.weights) and finite(self.bias)):
            raise ContractViolationError("DenseLayer: parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def glorot_uniform(rng: RngStream, in_dim: int, out_dim: int) -> np.ndarray:
    """Fan-based uniform(-a, a) (out_dim, in_dim) weights, a = sqrt(6/(in+out))."""
    a = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform_range(-a, a, out_dim * in_dim).reshape(out_dim, in_dim)


def init_dense(rng: RngStream, in_dim: int, out_dim: int,
               activation: Activation) -> DenseLayer:
    """`glorot_uniform` weights and a zero bias."""
    return DenseLayer(glorot_uniform(rng, in_dim, out_dim), np.zeros(out_dim), activation)


def dense_forward_batch(layer: DenseLayer, xs: np.ndarray,
                        cache: list | None = None) -> np.ndarray:
    """Row-wise forward for a (n, in_dim) batch, written into the new
    product W x.  When `cache` is a list, the layer's (input, output) is
    appended to it for the backward pass."""
    if xs.ndim != 2 or xs.shape[1] != layer.in_dim:
        raise ContractViolationError(
            f"dense layer: input shape {xs.shape}, expected (n, {layer.in_dim})")
    z = xs @ layer.weights.T
    z += layer.bias
    out = _apply_activation(layer.activation, z)
    if cache is not None:
        cache.append((xs, out))
    return out


def dense_backward_batch(layer: DenseLayer, cached_inputs: np.ndarray,
                         grad_outputs: np.ndarray,
                         outputs: np.ndarray | None = None,
                         input_grad: bool = True):
    """Gradients through the layer for a (n, in_dim) batch; weight and bias
    gradients are summed over rows.  `outputs`, the forward pass's output,
    is recomputed when not given.  With input_grad=False the input
    gradient is None and its matmul is skipped."""
    if outputs is None:
        outputs = dense_forward_batch(layer, cached_inputs)
    gz = grad_outputs * _activation_grad(layer.activation, outputs)
    grad_inputs = gz @ layer.weights if input_grad else None
    grad_weights = gz.T @ cached_inputs
    grad_bias = gz.sum(axis=0)
    return grad_inputs, grad_weights, grad_bias


# ---------------------------------------------------------------------------
# Multi-layer perceptron built from DenseLayers.

@dataclass
class Mlp:
    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ContractViolationError("Mlp: needs at least one layer")
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:])):
            if a.out_dim != b.in_dim:
                raise ContractViolationError(f"Mlp: layer {i} maps to {a.out_dim} "
                                             f"dims, layer {i + 1} reads {b.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, xs: np.ndarray, cache: list | None = None) -> np.ndarray:
        """Forward pass; when `cache` is a list, each layer's (input,
        output) is appended to it for backward()."""
        for layer in self.layers:
            xs = dense_forward_batch(layer, xs, cache)
        return xs

    def backward(self, cache: list[tuple[np.ndarray, np.ndarray]],
                 grad_out: np.ndarray, input_grad: bool = True):
        """Returns (grad_input, param_grads) with param_grads ordered as
        params(); grad_input is None when input_grad is False."""
        grads: list[np.ndarray] = []
        for i in reversed(range(len(self.layers))):
            xs, out = cache[i]
            grad_out, gw, gb = dense_backward_batch(
                self.layers[i], xs, grad_out, out, input_grad=input_grad or i > 0)
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
              state: AdamState, lr: float = 1e-3) -> None:
    """One bias-corrected Adam update (Kingma & Ba, Alg. 1), in place, with
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON.

    Writes `params`, `state.first_moment` and `state.second_moment` and
    increments `state.step_count`.  Every array shares one float dtype, in
    which the update is computed.  Each array is walked ADAM_BLOCK
    elements at a time, so a block's operands stay in cache across the
    update's passes.  Every check, including the finite check of every
    gradient, runs before anything is written: a failed step leaves params
    and state untouched.
    """
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
        if not finite(g):
            raise TrainingError(f"adam_step: non-finite gradient at step {t}, "
                                f"parameter {i}")
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
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
            np.multiply(mb, ADAM_BETA1, out=mb)
            np.multiply(gb, 1.0 - ADAM_BETA1, out=a)
            np.add(mb, a, out=mb)
            # v = beta2*v + ((1-beta2)*g)*g
            np.multiply(vb, ADAM_BETA2, out=vb)
            np.multiply(gb, 1.0 - ADAM_BETA2, out=a)
            np.multiply(a, gb, out=a)
            np.add(vb, a, out=vb)
            # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
            np.divide(vb, c2, out=a)
            np.sqrt(a, out=a)
            np.add(a, ADAM_EPSILON, out=a)
            np.divide(mb, c1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(pb, b, out=pb)
    state.step_count = t


@dataclass
class TrainReport:
    """Each epoch's train and val loss from `train_epochs`, and its warnings."""

    train_loss: list[float]
    val_loss: list[float]
    warnings: list[str]


def train_epochs(params: Sequence[np.ndarray], n: int, config, shuffle_rng: RngStream,
                 batch_loss, val_loss, name: str, step) -> TrainReport:
    """Minibatch Adam: `config.epochs` epochs over `n` rows, each shuffled
    by one `shuffle_rng` permutation and cut into batches of
    `config.batch_size` rows, stepped at `config.lr`.  Reports each epoch's
    train loss, the row-weighted mean of `batch_loss(rows)`'s losses, and
    its `val_loss()`, taken after its last step, with one warning naming
    `name` if the last epoch's val loss is above epoch 0's.

    `batch_loss` returns (loss, gradients ordered as `params`), and `step`,
    the caller's `adam_step`, updates `params` in place; the Adam moments
    live only in this call.  A non-finite batch loss (before its step) or
    val loss raises TrainingError naming `name` and the epoch; as these
    report a divergence, numpy's overflow and invalid warnings are off.
    """
    state = AdamState.zeros_like(params)
    train_losses, val_losses = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(n)
            total = 0.0
            for batch, start in enumerate(range(0, n, config.batch_size)):
                rows = order[start:start + config.batch_size]
                loss, grads = batch_loss(rows)
                if not math.isfinite(loss):
                    raise TrainingError(f"{name} non-finite at epoch {epoch}, batch {batch}")
                step(params, grads, state, lr=config.lr)
                del grads   # so the next backward pass does not run beside them
                total += loss * len(rows)
            train_losses.append(total / n)
            val_losses.append(val_loss())
            if not math.isfinite(val_losses[-1]):
                raise TrainingError(f"{name} non-finite at epoch {epoch} on the val split")
    warnings = []
    if val_losses[-1] > val_losses[0]:
        warnings.append(f"val {name} did not improve over training: {val_losses[-1]:.6g} "
                        f"after epoch {len(val_losses) - 1}, above {val_losses[0]:.6g} "
                        "after epoch 0")
    return TrainReport(train_losses, val_losses, warnings)
