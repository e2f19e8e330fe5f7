"""Dense autoencoder, trained on the normal frames of the train split.

Encoder 4096 -> 512 -> 128 -> h (LeakyRelu throughout), decoder mirrored
with a final Sigmoid so reconstructions stay in [0, 1].  The latent
vector feeds the density model; reconstruction error is an auxiliary
score.

The trainer takes arrays of flat frames; `ScenarioDataset` owns the split
protocol.  Training runs in float32: parameters, Adam moments, frames,
activations and gradients, while the reported losses are summed in
float64.  The caller's frames are kept as they come, so a split's 8-bit
codes stay one byte a pixel: each step makes the float32 frames of the
batch it gathers, and each epoch's validation loss those of the val
split, so no float32 copy of a whole split lives through training.  The
trained model is cast back to float64, which is exact; everything
downstream (flow training, score standardization, the threshold, scoring
and the `<f8` checkpoint) computes with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_ranges
from .data_io import FRAME_PIXELS, as_intensities
from .errors import ContractViolationError
from .nn import Activation, DenseLayer, Mlp, adam_step, init_mlp, train_epochs
from .rng import RngStream

ENCODER_HIDDEN = (512, 128)
DEFAULT_LATENT_DIM = 64


@dataclass
class AutoencoderConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    latent_dim: int = DEFAULT_LATENT_DIM

    def __post_init__(self):
        check_ranges(self, "autoencoder.",
                     at_least_one=("epochs", "batch_size", "latent_dim"),
                     positive=("lr",))


@dataclass
class AutoencoderModel:
    """An encoder from input_dim to latent_dim and a decoder back."""

    encoder: Mlp
    decoder: Mlp

    def __post_init__(self):
        ends = (self.decoder.in_dim, self.decoder.out_dim)
        if ends != (self.latent_dim, self.input_dim):
            raise ContractViolationError(
                f"AutoencoderModel: decoder maps {ends[0]} -> {ends[1]}, expected "
                f"latent_dim {self.latent_dim} -> input_dim {self.input_dim}")

    @property
    def latent_dim(self) -> int:
        return self.encoder.out_dim

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim

    def params(self):
        return self.encoder.params() + self.decoder.params()


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
    )


def encode_batch(model: AutoencoderModel, flats: np.ndarray) -> np.ndarray:
    """Latent embedding of each row of a (n, input_dim) batch of flat frames."""
    return model.encoder.forward(flats)


def reconstruction_error(model: AutoencoderModel, flats: np.ndarray,
                         latents: np.ndarray) -> np.ndarray:
    """Per-row mean squared error between `flats` (n, input_dim) and the
    decoding of `latents` (n, latent_dim), their encodings, taken inside the
    decoded array, so callers pass one block of frames at a time."""
    if flats.shape != (latents.shape[0], model.input_dim):
        raise ContractViolationError(
            f"reconstruction_error: frames shape {flats.shape}, expected "
            f"({latents.shape[0]}, {model.input_dim})")
    diff = model.decoder.forward(latents)
    diff -= flats
    return np.square(diff, out=diff).mean(axis=1)


def _cast(model: AutoencoderModel, dtype) -> AutoencoderModel:
    """A copy of `model` with every parameter cast to `dtype`."""
    return AutoencoderModel(*(
        Mlp([DenseLayer(l.weights.astype(dtype), l.bias.astype(dtype), l.activation)
             for l in net.layers]) for net in (model.encoder, model.decoder)))


def _mse_loss_and_grads(model: AutoencoderModel, batch: np.ndarray):
    """Mean-over-batch-and-pixels MSE loss and its parameter gradients."""
    enc_cache, dec_cache = [], []
    recon = model.decoder.forward(model.encoder.forward(batch, enc_cache), dec_cache)
    diff = recon - batch
    loss = float(np.mean(diff * diff, dtype=np.float64))
    grad_recon = 2.0 * diff / diff.size
    grad_latent, dec_grads = model.decoder.backward(dec_cache, grad_recon)
    _, enc_grads = model.encoder.backward(enc_cache, grad_latent, input_grad=False)
    return loss, enc_grads + dec_grads


def _mean_mse(model: AutoencoderModel, flats: np.ndarray) -> float:
    diff = model.decoder.forward(model.encoder.forward(flats))
    diff -= flats
    return float(np.mean(np.square(diff, out=diff), dtype=np.float64))


def train_autoencoder(train_x: np.ndarray, val_x: np.ndarray,
                      config: AutoencoderConfig, seed: int = 0):
    """Train on the rows of `train_x`, validating on those of `val_x`,
    each a non-empty `(n, 4096)` array of flat frames, as uint8 codes or
    float intensities (any other dtype raises ContractViolationError);
    deterministic given `seed`.  Neither array is copied: each step turns
    the rows of its batch into float32 intensities (`as_intensities`, so
    codes, their float32 and their float64 intensities train alike), and
    each epoch's validation loss turns the whole val split, as one array
    so that its float64 mean is summed in one order.  The float64
    initialisation is cast to float32 and trained in float32; the returned
    model is float64, each value exactly a float32 one.  Returns (model,
    report).
    """
    train_x, val_x = np.asarray(train_x), np.asarray(val_x)
    for x, split_name in ((train_x, "train"), (val_x, "val")):
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != FRAME_PIXELS:
            raise ContractViolationError(
                f"train_autoencoder: {split_name} frames must be a non-empty "
                f"(n, {FRAME_PIXELS}) array, got shape {x.shape}")
        as_intensities(x[:0])   # refuses any other dtype before training starts

    rng = RngStream(seed)
    model = _cast(init_autoencoder(rng.derive(0), config.latent_dim), np.float32)

    def batch_loss(rows):
        return _mse_loss_and_grads(model, as_intensities(train_x[rows], np.float32))

    report = train_epochs(
        model.params(), train_x.shape[0], config, rng.derive(1), batch_loss,
        lambda: _mean_mse(model, as_intensities(val_x, np.float32)),
        "autoencoder loss", adam_step)
    # The Adam moments are gone, so this copy can reuse their memory.
    return _cast(model, np.float64), report
