"""Real NVP density model over latent vectors.

A stack of affine coupling layers with alternating binary masks gives an
invertible map with a cheap exact log-determinant, hence an exact
log-density via the change of variables formula.  The negative
log-likelihood under this model is the pipeline's anomaly score.

The raw scale output of each coupling net is squashed to
``s_max * tanh(raw / s_max)``, so |s| < s_max everywhere: the layer is
always invertible and no single layer can contribute an unbounded
log-determinant on off-manifold inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_ranges
from .errors import ContractViolationError, ScoringError, TrainingError
from .nn import Activation, AdamState, Mlp, adam_step, init_mlp
from .rng import RngStream

DEFAULT_NUM_LAYERS = 8
DEFAULT_SCALE_CLAMP = 3.0
DEFAULT_HIDDEN = 64
STD_FLOOR = 1e-6


@dataclass
class CouplingLayer:
    """One affine coupling transform.

    Dimensions where mask == 1 pass through unchanged and condition the
    scale/shift networks; the remaining dimensions are transformed as
    x * exp(s) + t.
    """

    mask: np.ndarray          # (h,) of {0.0, 1.0}
    scale_net: Mlp            # h -> hidden -> h, Tanh hidden, Identity out
    shift_net: Mlp            # same shape
    scale_clamp: float = DEFAULT_SCALE_CLAMP

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.float64)
        total = self.mask.sum()
        if total == 0 or total == self.mask.size:
            raise ContractViolationError(
                "coupling mask must be neither all-zero nor all-one")
        if self.scale_clamp <= 0.0:
            raise ContractViolationError("scale_clamp must be positive")

    def params(self):
        return self.scale_net.params() + self.shift_net.params()

    def set_params(self, params):
        n = 2 * len(self.scale_net.layers)
        self.scale_net.set_params(params[:n])
        self.shift_net.set_params(params[n:])


@dataclass
class FlowModel:
    layers: list[CouplingLayer]
    dim: int
    whitening_mean: np.ndarray   # (h,)
    whitening_std: np.ndarray    # (h,), floored at STD_FLOOR

    def __post_init__(self):
        self.whitening_mean = np.asarray(self.whitening_mean, dtype=np.float64)
        self.whitening_std = np.maximum(
            np.asarray(self.whitening_std, dtype=np.float64), STD_FLOOR)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def set_params(self, params):
        if not self.layers:
            return
        per_layer = len(params) // len(self.layers)
        for i, layer in enumerate(self.layers):
            layer.set_params(params[i * per_layer:(i + 1) * per_layer])

    def whiten(self, latents: np.ndarray) -> np.ndarray:
        return (latents - self.whitening_mean) / self.whitening_std


@dataclass
class ScoredSample:
    sample_id: str
    score: float
    anomaly_type: str | None = None   # None means ground-truth normal
    split: str = "test"

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ContractViolationError(
                f"score for {self.sample_id!r} is not finite")


@dataclass
class FlowConfig:
    epochs: int = 60
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    num_layers: int = DEFAULT_NUM_LAYERS
    scale_clamp: float = DEFAULT_SCALE_CLAMP
    hidden: int = DEFAULT_HIDDEN
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_ranges(self, "flow.",
                     at_least_one=("epochs", "batch_size", "num_layers", "hidden"),
                     positive=("lr", "epsilon", "scale_clamp"),
                     unit=("beta1", "beta2"))


@dataclass
class FlowTrainReport:
    train_nll: list[float] = field(default_factory=list)
    val_nll: list[float] = field(default_factory=list)
    epochs_run: int = 0
    seed: int = 0


def init_flow(rng: RngStream, dim: int, num_layers: int = DEFAULT_NUM_LAYERS,
              scale_clamp: float = DEFAULT_SCALE_CLAMP,
              hidden: int = DEFAULT_HIDDEN,
              whitening_mean: np.ndarray | None = None,
              whitening_std: np.ndarray | None = None) -> FlowModel:
    """Random flow with alternating even/odd masks (every dim transformed)."""
    net_acts = [Activation.TANH, Activation.IDENTITY]
    layers = []
    for k in range(num_layers):
        layers.append(CouplingLayer(
            mask=((np.arange(dim) % 2) == (k % 2)).astype(np.float64),
            scale_net=init_mlp(rng.derive(2 * k), (dim, hidden, dim), net_acts),
            shift_net=init_mlp(rng.derive(2 * k + 1), (dim, hidden, dim), net_acts),
            scale_clamp=scale_clamp,
        ))
    if whitening_mean is None:
        whitening_mean = np.zeros(dim)
    if whitening_std is None:
        whitening_std = np.ones(dim)
    return FlowModel(layers, dim, whitening_mean, whitening_std)


def _clamped_scale(layer: CouplingLayer, raw: np.ndarray) -> np.ndarray:
    return layer.scale_clamp * np.tanh(raw / layer.scale_clamp)


def _coupling_forward_batch(layer: CouplingLayer, xs: np.ndarray):
    masked = xs * layer.mask
    s = _clamped_scale(layer, layer.scale_net.forward(masked))
    t = layer.shift_net.forward(masked)
    inv_mask = 1.0 - layer.mask
    ys = masked + inv_mask * (xs * np.exp(s) + t)
    log_det = (inv_mask * s).sum(axis=1)
    return ys, log_det


def coupling_forward(layer: CouplingLayer, x: np.ndarray):
    """Affine coupling transform of one vector; returns (y, log_det)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.mask.size,):
        raise ContractViolationError(
            f"coupling_forward: input shape {x.shape}, expected ({layer.mask.size},)")
    if not np.isfinite(x).all():
        raise ContractViolationError("coupling_forward: non-finite input")
    ys, log_det = _coupling_forward_batch(layer, x[None, :])
    return ys[0], float(log_det[0])


def _coupling_inverse_batch(layer: CouplingLayer, ys: np.ndarray) -> np.ndarray:
    masked = ys * layer.mask  # pass-through dims are unchanged by forward
    s = _clamped_scale(layer, layer.scale_net.forward(masked))
    t = layer.shift_net.forward(masked)
    inv_mask = 1.0 - layer.mask
    return masked + inv_mask * ((ys - t) * np.exp(-s))


def flow_forward_batch(flow: FlowModel, latents: np.ndarray):
    zs = flow.whiten(latents)
    log_det = np.zeros(zs.shape[0])
    for layer in flow.layers:
        zs, ld = _coupling_forward_batch(layer, zs)
        log_det += ld
    return zs, log_det


def flow_inverse_batch(flow: FlowModel, zs: np.ndarray) -> np.ndarray:
    """Inverse of flow_forward_batch for a (n, dim) batch, back to the
    whitened latents (whitening is not undone)."""
    for layer in reversed(flow.layers):
        zs = _coupling_inverse_batch(layer, zs)
    return zs


def flow_log_prob_batch(flow: FlowModel, latents: np.ndarray) -> np.ndarray:
    """Exact log-density of each row of a (n, dim) latent batch.

    A non-finite value at any coupling layer reaches the output (the mask
    product turns an inf into a NaN, and a NaN stays one), so one check on
    the result covers every layer.
    """
    zs, log_det = flow_forward_batch(flow, latents)
    log_probs = (-0.5 * flow.dim * math.log(2.0 * math.pi)
                 - 0.5 * (zs * zs).sum(axis=1) + log_det)
    if not np.isfinite(log_probs).all():
        raise ScoringError("non-finite log-density from the flow")
    return log_probs


# ---------------------------------------------------------------------------
# Maximum-likelihood training.

def _nll_loss_and_grads(flow: FlowModel, z0: np.ndarray):
    """Mean NLL over a batch of pre-whitened inputs, plus parameter grads.

    Per-layer caches hold everything needed to backpropagate through the
    coupling transform by hand: x * exp(s) + t on the transformed dims,
    with s = s_max * tanh(raw / s_max) conditioned on the masked dims.
    """
    n = z0.shape[0]
    xs = z0
    caches = []
    total_log_det = np.zeros(n)
    for layer in flow.layers:
        masked = xs * layer.mask
        raw_s, s_cache = layer.scale_net.forward_cached(masked)
        t, t_cache = layer.shift_net.forward_cached(masked)
        u = np.tanh(raw_s / layer.scale_clamp)
        s = layer.scale_clamp * u
        inv_mask = 1.0 - layer.mask
        ys = masked + inv_mask * (xs * np.exp(s) + t)
        total_log_det += (inv_mask * s).sum(axis=1)
        caches.append((xs, s_cache, t_cache, s, u))
        xs = ys
    z = xs
    loss = float(np.mean(
        0.5 * flow.dim * math.log(2.0 * math.pi)
        + 0.5 * (z * z).sum(axis=1) - total_log_det))

    grad_y = z / n
    all_grads: list[list[np.ndarray]] = []
    for layer, (x_in, s_cache, t_cache, s, u) in zip(reversed(flow.layers),
                                                     reversed(caches)):
        inv_mask = 1.0 - layer.mask
        e_s = np.exp(s)
        # d loss / d s: through y = x * exp(s) + t and through -log_det.
        grad_s = grad_y * inv_mask * x_in * e_s - (1.0 / n) * inv_mask
        grad_raw = grad_s * (1.0 - u * u)
        grad_t = grad_y * inv_mask
        gin_s, grads_s = layer.scale_net.backward(s_cache, grad_raw)
        gin_t, grads_t = layer.shift_net.backward(t_cache, grad_t)
        grad_y = (grad_y * layer.mask + grad_y * inv_mask * e_s
                  + layer.mask * (gin_s + gin_t))
        all_grads.append(grads_s + grads_t)
    all_grads.reverse()
    return loss, [g for layer_grads in all_grads for g in layer_grads]


def train_flow(train_latents: np.ndarray, val_latents: np.ndarray,
               config: FlowConfig):
    """Fit the flow to normal latents by maximum likelihood.

    Whitening statistics come from the training latents only.  Returns
    (model, report); deterministic given config.seed.
    """
    train_latents = np.asarray(train_latents, dtype=np.float64)
    val_latents = np.asarray(val_latents, dtype=np.float64)
    if train_latents.ndim != 2 or train_latents.shape[0] == 0:
        raise ContractViolationError("train_flow: train latents must be a "
                                     "non-empty (n, h) array")
    if val_latents.ndim != 2 or val_latents.shape[0] == 0:
        raise ContractViolationError("train_flow: val latents must be a "
                                     "non-empty (n, h) array")
    dim = train_latents.shape[1]

    rng = RngStream(config.seed)
    flow = init_flow(rng.derive(0), dim, config.num_layers, config.scale_clamp,
                     config.hidden,
                     whitening_mean=train_latents.mean(axis=0),
                     whitening_std=train_latents.std(axis=0))
    shuffle_rng = rng.derive(1)

    train_z0 = flow.whiten(train_latents)

    params = flow.params()
    state = AdamState.zeros_like(params)
    report = FlowTrainReport(seed=config.seed)
    n = train_z0.shape[0]

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = train_z0[order[start:start + config.batch_size]]
            loss, grads = _nll_loss_and_grads(flow, batch)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"flow NLL non-finite at epoch {epoch}, "
                    f"batch {start // config.batch_size}")
            adam_step(params, grads, state, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, epsilon=config.epsilon)
            epoch_loss += loss * batch.shape[0]
        report.train_nll.append(epoch_loss / n)
        report.val_nll.append(float(-flow_log_prob_batch(flow, val_latents).mean()))
    report.epochs_run = config.epochs
    return flow, report
