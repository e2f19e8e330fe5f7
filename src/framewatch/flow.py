"""Real NVP density model over latent vectors.

A stack of affine coupling layers gives an invertible map with a cheap
exact log-determinant, hence an exact log-density via the change of
variables formula.  The negative log-likelihood under this model is the
pipeline's anomaly score.  Layer k has parity k % 2, Real NVP's
alternating split (Dinh et al., ICLR 2017): the dims i % 2 == k % 2 pass
through and condition half-width scale and shift nets, which map them to
the other dims.

The raw scale output of each coupling net is squashed to
``s_max * tanh(raw / s_max)``, so |s| < s_max everywhere: the layer is
always invertible and no single layer can contribute an unbounded
log-determinant on off-manifold inputs.

A layer holds its two nets as one stacked conditioner, slice 0 the scale
net and slice 1 the shift net, so each step of both nets is one stacked
`np.matmul`: one call per step instead of one per net, which is what a
batch of one frame pays for.  Each slice keeps its net's own shape, so
every product rounds as the separate net's would, bit for bit; joining
the two first layers into one wider product would not.  The coupling
loop carries the even and odd dims of a batch as two arrays, so a layer
reads its conditioning half and rewrites the other without a gather or
scatter.

One loop over the coupling layers, with one conditioner step, serves the
forward pass, the inverse, the single-layer transform and the training
loss, which asks it for a backward tape; one log-density expression
serves scoring and the loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_ranges
from .errors import ContractViolationError, ScoringError
from .nn import adam_step, finite, glorot_uniform, train_epochs
from .rng import RngStream

DEFAULT_NUM_LAYERS = 8
DEFAULT_SCALE_CLAMP = 3.0
DEFAULT_HIDDEN = 64
STD_FLOOR = 1e-6


@dataclass
class CouplingLayer:
    """One affine coupling transform of a `dim`-vector, `dim` being the
    conditioner's input plus output width.  The dims `a` (i % 2 == parity)
    pass through unchanged and condition the scale/shift networks; the
    other dims `b` are transformed as x * exp(s) + t.

    The layer is its stacked conditioner, slice 0 the scale net and slice
    1 the shift net, each a Tanh layer then a linear one: `w_in` (2,
    hidden, |a|), `b_in` (2, hidden), `w_out` (2, |b|, hidden) and `b_out`
    (2, |b|), the float64 arrays, kept as given when C-contiguous, that
    `params()` returns and training updates."""

    parity: int               # 0 or 1
    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    scale_clamp: float = DEFAULT_SCALE_CLAMP

    def __post_init__(self):
        self.w_in, self.b_in, self.w_out, self.b_out = (
            np.ascontiguousarray(p, dtype=np.float64) for p in self.params())
        hidden, n_a, n_b = (p.shape[-1] if p.ndim else 0
                            for p in (self.b_in, self.w_in, self.b_out))
        self.dim = n_a + n_b
        shapes = [p.shape for p in self.params()]
        if not (shapes == [(2, hidden, n_a), (2, hidden), (2, n_b, hidden), (2, n_b)]
                and self.parity in (0, 1) and hidden and n_a and n_b
                and n_a == (self.dim + 1 - self.parity) // 2):
            raise ContractViolationError(
                f"coupling layer of parity {self.parity!r}: conditioner shapes {shapes}; "
                "need (2, h, |a|), (2, h), (2, |b|, h) and (2, |b|), a being the dims "
                "i % 2 == parity, b the others and no width 0")
        if not all(map(finite, self.params())):
            raise ContractViolationError(
                f"coupling layer of parity {self.parity!r}: parameters must be finite")
        if not (math.isfinite(self.scale_clamp) and self.scale_clamp > 0.0):
            raise ContractViolationError(
                f"scale_clamp must be positive and finite, got {self.scale_clamp}")

    def params(self):
        """The stacked conditioner's live arrays: writing one changes the layer."""
        return [self.w_in, self.b_in, self.w_out, self.b_out]


@dataclass
class FlowModel:
    """Coupling layers over `dim`-vectors, each latent whitened first by
    finite (dim,) mean and std vectors, the std positive."""

    layers: list[CouplingLayer]
    dim: int
    whitening_mean: np.ndarray   # (dim,)
    whitening_std: np.ndarray    # (dim,)

    def __post_init__(self):
        for k, layer in enumerate(self.layers):
            if layer.dim != self.dim:
                raise ContractViolationError(f"FlowModel: coupling layer {k} maps "
                                             f"{layer.dim} dims, not dim {self.dim}")
        self.whitening_mean = np.asarray(self.whitening_mean, dtype=np.float64)
        self.whitening_std = np.asarray(self.whitening_std, dtype=np.float64)
        for name, value in (("whitening_mean", self.whitening_mean),
                            ("whitening_std", self.whitening_std)):
            if value.shape != (self.dim,) or not np.isfinite(value).all():
                raise ContractViolationError(
                    f"FlowModel: {name} (shape {list(value.shape)}) must be a finite "
                    f"array of shape [{self.dim}]")
        if not (self.whitening_std > 0.0).all():
            raise ContractViolationError("FlowModel: whitening_std must be positive")

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def whiten(self, latents: np.ndarray) -> np.ndarray:
        return (latents - self.whitening_mean) / self.whitening_std


@dataclass
class ScoredSample:
    sample_id: str
    score: float
    anomaly_type: str | None = None   # None means ground-truth normal

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ContractViolationError(
                f"score for {self.sample_id!r} is not finite")


@dataclass
class FlowConfig:
    epochs: int = 60
    batch_size: int = 64
    lr: float = 1e-3
    num_layers: int = DEFAULT_NUM_LAYERS
    scale_clamp: float = DEFAULT_SCALE_CLAMP
    hidden: int = DEFAULT_HIDDEN

    def __post_init__(self):
        check_ranges(self, "flow.",
                     at_least_one=("epochs", "batch_size", "num_layers", "hidden"),
                     positive=("lr", "scale_clamp"))


def init_flow(rng: RngStream, dim: int, num_layers: int = DEFAULT_NUM_LAYERS,
              scale_clamp: float = DEFAULT_SCALE_CLAMP,
              hidden: int = DEFAULT_HIDDEN,
              whitening_mean: np.ndarray | None = None,
              whitening_std: np.ndarray | None = None) -> FlowModel:
    """Random flow whose layer k has parity k % 2 (every dim transformed).
    Layer k's scale net draws full dim -> hidden -> dim `glorot_uniform`
    weights from `rng.derive(2 * k)` and its shift net from
    `rng.derive(2 * k + 1)`; the stack keeps their half width, the columns
    of the dims a and the rows of the dims b.  The biases start at zero."""
    layers = []
    for k in range(num_layers):
        p = k % 2
        w_in, w_out = [], []
        for net in (rng.derive(2 * k), rng.derive(2 * k + 1)):
            w_in.append(glorot_uniform(net, dim, hidden)[:, p::2])
            w_out.append(glorot_uniform(net, hidden, dim)[1 - p::2])
        layers.append(CouplingLayer(p, np.stack(w_in), np.zeros((2, hidden)),
                                    np.stack(w_out), np.zeros((2, len(w_out[0]))),
                                    scale_clamp))
    if whitening_mean is None:
        whitening_mean = np.zeros(dim)
    if whitening_std is None:
        whitening_std = np.ones(dim)
    return FlowModel(layers, dim, whitening_mean, whitening_std)


def _halves(xs: np.ndarray) -> list[np.ndarray]:
    """The even and the odd dims of a (n, dim) batch, as two new C-ordered
    arrays: a coupling layer of parity p reads half p and rewrites the
    other."""
    return [xs[:, 0::2].copy(), xs[:, 1::2].copy()]


def _coupling_step(layer: CouplingLayer, halves: list[np.ndarray],
                   log_det: np.ndarray, inverse: bool, tape: list | None) -> None:
    """One layer over the `halves` of a batch, which it updates, adding its
    forward log-determinant to `log_det` in place.

    Both nets run as one stacked product per step, and each later step
    writes into the array the one before it made.  Without a tape the
    transformed half is overwritten in place; with one, the forward step
    keeps the layer's input half and appends (x_a, x_b, tanh hidden
    activations, exp(s), tanh(raw / s_max)) to it.  Every array the step
    makes and does not tape is released when it returns.
    """
    x_a, x_b = halves[layer.parity], halves[1 - layer.parity]
    hidden = np.matmul(x_a, layer.w_in.mT)
    hidden += layer.b_in[:, None]
    np.tanh(hidden, out=hidden)
    raw = np.matmul(hidden, layer.w_out.mT)
    raw += layer.b_out[:, None]
    u, t = raw       # u holds the raw scale output until the tanh below
    u /= layer.scale_clamp
    np.tanh(u, out=u)
    s = np.multiply(u, layer.scale_clamp, out=u if tape is None else None)
    log_det += s.sum(axis=1)
    if inverse:
        x_b -= t
        x_b *= np.exp(np.negative(s, out=s), out=s)
        return
    e_s = np.exp(s, out=s)
    if tape is not None:
        tape.append((x_a, x_b, hidden, e_s, u))
        x_b = halves[1 - layer.parity] = x_b.copy()
    x_b *= e_s
    x_b += t


def _couple(layers: list[CouplingLayer], halves: list[np.ndarray],
            inverse: bool = False, tape: list | None = None):
    """Run coupling layers over a batch split by `_halves`, which they
    consume; returns the (n, dim) output and its log_det.

    Forward applies each layer in order, setting the dims b to x_b *
    exp(s) + t; inverse undoes them in reverse order.  s and t come from
    the dims a, which the layer does not change, and log_det is the
    forward map's log-determinant in both directions.  When `tape` is a
    list, each forward layer appends its entry to it for the backward
    pass.
    """
    n, dim = halves[0].shape[0], halves[0].shape[1] + halves[1].shape[1]
    log_det = np.zeros(n)
    for layer in (reversed(layers) if inverse else layers):
        _coupling_step(layer, halves, log_det, inverse, tape)
    out = np.empty((n, dim))
    out[:, 0::2], out[:, 1::2] = halves
    return out, log_det


def _log_density(zs: np.ndarray, log_det: np.ndarray) -> np.ndarray:
    """Change of variables: standard normal log-density of each row of the
    flow output `zs` plus the forward log-determinant."""
    return (-0.5 * zs.shape[1] * math.log(2.0 * math.pi)
            - 0.5 * (zs * zs).sum(axis=1) + log_det)


def coupling_forward(layer: CouplingLayer, x: np.ndarray):
    """Affine coupling transform of one vector; returns (y, log_det)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.dim,):
        raise ContractViolationError(
            f"coupling_forward: input shape {x.shape}, expected ({layer.dim},)")
    if not np.isfinite(x).all():
        raise ContractViolationError("coupling_forward: non-finite input")
    ys, log_det = _couple([layer], _halves(x[None, :]))
    return ys[0], float(log_det[0])


def flow_forward_batch(flow: FlowModel, latents: np.ndarray):
    return _couple(flow.layers, _halves(flow.whiten(latents)))


def flow_inverse_batch(flow: FlowModel, zs: np.ndarray) -> np.ndarray:
    """Inverse of flow_forward_batch for a (n, dim) batch, back to the
    whitened latents (whitening is not undone)."""
    return _couple(flow.layers, _halves(zs), inverse=True)[0]


def flow_log_prob_batch(flow: FlowModel, latents: np.ndarray) -> np.ndarray:
    """Log-density of each row of a (n, dim) latent batch once whitened:
    the flow's exact density of `flow.whiten(latents)`, which leaves out
    the whitening's constant log-Jacobian -sum(log whitening_std).

    A non-finite value at any coupling layer reaches the output (a layer
    keeps its dims a and maps a non-finite x_b, s or t to a non-finite
    x_b * exp(s) + t), so one check on the result covers every layer.
    """
    log_probs = _log_density(*flow_forward_batch(flow, latents))
    if not np.isfinite(log_probs).all():
        raise ScoringError("non-finite log-density from the flow")
    return log_probs


# ---------------------------------------------------------------------------
# Maximum-likelihood training.

def _nll_loss_and_grads(flow: FlowModel, z0: np.ndarray):
    """Mean NLL over a batch of pre-whitened inputs, plus parameter grads.

    The forward tape holds everything needed to backpropagate through the
    coupling transform by hand: x_b * exp(s) + t on the transformed dims b,
    with s = s_max * tanh(raw / s_max) conditioned on the dims a.  Each
    step runs back through both nets at once, as stacked products over the
    layer's conditioner.
    """
    n = z0.shape[0]
    tape: list = []
    z, log_det = _couple(flow.layers, _halves(z0), tape=tape)
    loss = float(np.mean(-_log_density(z, log_det)))

    grad = _halves(z / n)
    all_grads: list[list[np.ndarray]] = []
    for layer, (x_a, x_b, hidden, e_s, u) in zip(reversed(flow.layers),
                                                  reversed(tape)):
        grad_a, grad_b = grad[layer.parity], grad[1 - layer.parity]
        # d loss / d (raw scale, shift): through y_b = x_b * exp(s) + t and
        # through -log_det, then through s = s_max * tanh(raw / s_max).
        grad_raw = np.empty((2,) + grad_b.shape)
        grad_s, grad_t = grad_raw
        np.multiply(grad_b, x_b, out=grad_s)
        grad_s *= e_s
        grad_s -= 1.0 / n
        grad_s *= 1.0 - u * u
        grad_t[...] = grad_b
        grad_hidden = np.matmul(grad_raw, layer.w_out)
        grad_hidden *= 1.0 - hidden * hidden
        grad_in = np.matmul(grad_hidden, layer.w_in)
        grad_a += grad_in[0] + grad_in[1]
        grad[1 - layer.parity] = grad_b * e_s
        all_grads.append([np.matmul(grad_hidden.mT, x_a), grad_hidden.sum(axis=1),
                          np.matmul(grad_raw.mT, hidden), grad_raw.sum(axis=1)])
    all_grads.reverse()
    return loss, [g for layer_grads in all_grads for g in layer_grads]


def train_flow(train_latents: np.ndarray, val_latents: np.ndarray,
               config: FlowConfig, seed: int = 0):
    """Fit the flow to normal latents by maximum likelihood.

    Whitening statistics come from the training latents only, each std
    floored at STD_FLOOR.  Returns (model, report); deterministic given `seed`.
    """
    train_latents = np.asarray(train_latents, dtype=np.float64)
    val_latents = np.asarray(val_latents, dtype=np.float64)
    for z, split_name in ((train_latents, "train"), (val_latents, "val")):
        if z.ndim != 2 or z.shape[0] == 0 or z.shape[1] != train_latents.shape[1]:
            raise ContractViolationError(
                f"train_flow: {split_name} latents must be a non-empty (n, h) "
                f"array, h the train latents' width, got shape {z.shape}")
    dim = train_latents.shape[1]

    rng = RngStream(seed)
    flow = init_flow(rng.derive(0), dim, config.num_layers, config.scale_clamp,
                     config.hidden,
                     whitening_mean=train_latents.mean(axis=0),
                     whitening_std=np.maximum(train_latents.std(axis=0), STD_FLOOR))
    train_z0 = flow.whiten(train_latents)
    report = train_epochs(
        flow.params(), train_z0.shape[0], config, rng.derive(1),
        lambda rows: _nll_loss_and_grads(flow, train_z0[rows]),
        lambda: float(-_log_density(*flow_forward_batch(flow, val_latents)).mean()),
        "flow NLL", adam_step)
    return flow, report
