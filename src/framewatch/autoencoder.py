"""Dense autoencoder trained on normal frames only.

Encoder 4096 -> 512 -> 128 -> h (LeakyRelu throughout), decoder mirrored
with a final Sigmoid so reconstructions stay in [0, 1].  The latent
vector feeds the density model; reconstruction error is an auxiliary
score.

Training runs in float32: parameters, Adam moments, frames, activations
and gradients, while the reported losses are summed in float64.  The
trained model is cast back to float64, which is exact, so everything
downstream (flow training, score standardization, the threshold, scoring
and the `<f8` checkpoint) sees and computes with a float64 model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_ranges
from .data_io import FRAME_PIXELS, Frame, require_normal_only
from .errors import ContractViolationError, ProtocolViolationError, TrainingError
from .nn import (Activation, AdamState, Mlp, adam_step, init_mlp)
from .rng import RngStream

ENCODER_HIDDEN = (512, 128)
DEFAULT_LATENT_DIM = 64
RECON_BLOCK_ROWS = 256   # rows decoded at once by reconstruction_error


@dataclass
class AutoencoderConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    latent_dim: int = DEFAULT_LATENT_DIM
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_ranges(self, "autoencoder.",
                     at_least_one=("epochs", "batch_size", "latent_dim"),
                     positive=("lr", "epsilon"), unit=("beta1", "beta2"))


@dataclass
class AutoencoderModel:
    encoder: Mlp
    decoder: Mlp
    latent_dim: int
    input_dim: int = FRAME_PIXELS

    def params(self):
        return self.encoder.params() + self.decoder.params()

    def set_params(self, params):
        n_enc = 2 * len(self.encoder.layers)
        self.encoder.set_params(params[:n_enc])
        self.decoder.set_params(params[n_enc:])


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epochs_run: int = 0
    seed: int = 0
    warnings: list[str] = field(default_factory=list)


def init_autoencoder(rng: RngStream, latent_dim: int = DEFAULT_LATENT_DIM,
                     input_dim: int = FRAME_PIXELS,
                     hidden: tuple[int, ...] = ENCODER_HIDDEN) -> AutoencoderModel:
    enc_dims = (input_dim, *hidden, latent_dim)
    dec_dims = (latent_dim, *reversed(hidden), input_dim)
    enc_acts = [Activation.LEAKY_RELU] * (len(enc_dims) - 1)
    dec_acts = [Activation.LEAKY_RELU] * (len(dec_dims) - 2) + [Activation.SIGMOID]
    return AutoencoderModel(
        encoder=init_mlp(rng, enc_dims, enc_acts),
        decoder=init_mlp(rng, dec_dims, dec_acts),
        latent_dim=latent_dim,
        input_dim=input_dim,
    )


def encode_batch(model: AutoencoderModel, flats: np.ndarray) -> np.ndarray:
    """Latent embedding of each row of a (n, input_dim) batch of flat frames."""
    return model.encoder.forward(flats)


def reconstruction_error(model: AutoencoderModel, flats: np.ndarray,
                         latents: np.ndarray) -> np.ndarray:
    """Per-row mean squared error between `flats` (n, input_dim) and the
    decoding of `latents` (n, latent_dim), their encodings.

    Decodes RECON_BLOCK_ROWS rows at a time, so only one block of
    full-width reconstructions is alive at once.
    """
    if flats.shape != (latents.shape[0], model.input_dim):
        raise ContractViolationError(
            f"reconstruction_error: frames shape {flats.shape}, expected "
            f"({latents.shape[0]}, {model.input_dim})")
    errors = np.empty(flats.shape[0])
    for start in range(0, flats.shape[0], RECON_BLOCK_ROWS):
        rows = slice(start, start + RECON_BLOCK_ROWS)
        diff = model.decoder.forward(latents[rows]) - flats[rows]
        errors[rows] = np.square(diff, out=diff).mean(axis=1)
    return errors


def _mse_loss_and_grads(model: AutoencoderModel, batch: np.ndarray):
    """Mean-over-batch-and-pixels MSE loss and its parameter gradients."""
    latent, enc_cache = model.encoder.forward_cached(batch)
    recon, dec_cache = model.decoder.forward_cached(latent)
    diff = recon - batch
    loss = float(np.mean(diff * diff, dtype=np.float64))
    grad_recon = 2.0 * diff / diff.size
    grad_latent, dec_grads = model.decoder.backward(dec_cache, grad_recon)
    _, enc_grads = model.encoder.backward(enc_cache, grad_latent, input_grad=False)
    return loss, enc_grads + dec_grads


def _mean_mse(model: AutoencoderModel, flats: np.ndarray) -> float:
    recon = model.decoder.forward(model.encoder.forward(flats))
    return float(np.mean((recon - flats) ** 2, dtype=np.float64))


def train_autoencoder(train_frames: list[Frame], val_frames: list[Frame],
                      config: AutoencoderConfig):
    """Train on normal frames only; deterministic given config.seed.

    The float64 initialisation is cast to float32 and trained in float32;
    the returned model is float64, each value exactly a float32 one.
    Returns (model, report).  Raises ProtocolViolationError if any input
    frame carries an anomaly label.
    """
    for frames, split_name in ((train_frames, "train"), (val_frames, "val")):
        if not frames:
            raise ProtocolViolationError(f"{split_name} split is empty")
        require_normal_only(frames, split_name)
    if config.epochs < 1 or config.batch_size < 1:
        raise ContractViolationError("epochs and batch_size must be >= 1")

    rng = RngStream(config.seed)
    model = init_autoencoder(rng.derive(0), config.latent_dim)
    model.set_params([p.astype(np.float32) for p in model.params()])
    shuffle_rng = rng.derive(1)

    train_x = np.stack([f.flat() for f in train_frames], dtype=np.float32)
    val_x = np.stack([f.flat() for f in val_frames], dtype=np.float32)

    params = model.params()
    state = AdamState.zeros_like(params)
    report = TrainReport(seed=config.seed)
    n = train_x.shape[0]

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = train_x[order[start:start + config.batch_size]]
            loss, grads = _mse_loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"autoencoder loss non-finite at epoch {epoch}, "
                    f"batch {start // config.batch_size}")
            adam_step(params, grads, state, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, epsilon=config.epsilon)
            epoch_loss += loss * batch.shape[0]
        report.train_loss.append(epoch_loss / n)
        report.val_loss.append(_mean_mse(model, val_x))
    report.epochs_run = config.epochs
    # Free the moments and the last gradients before the float64 copy is
    # made, so that the copy can reuse their memory.
    del state, grads
    model.set_params([p.astype(np.float64) for p in params])
    if report.val_loss[-1] > report.val_loss[0]:
        report.warnings.append(
            "validation loss did not improve over training "
            f"({report.val_loss[0]:.6g} -> {report.val_loss[-1]:.6g})")
    return model, report
