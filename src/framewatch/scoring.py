"""Per-frame anomaly scores combining the autoencoder and the flow.

The default score is the latent negative log-likelihood under the flow:
low for normal frames, high for anomalous ones.  A combined mode mixes
standardized NLL with standardized reconstruction error, by constants fit
on the validation split that travel with the checkpoint.  Training and
deployment both score by `encode_frames`, one flow call, `ScoreConfig.score`;
`encode_frames` is the package's one loop over blocks of frames.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .autoencoder import AutoencoderModel, encode_batch, reconstruction_error
from .data_io import as_intensities
from .errors import ConfigError
from .flow import FlowModel, flow_log_prob_batch

SCORE_MODES = ("nll", "combined")
# The most rows that scoring carries through the networks at once.
SCORE_BLOCK_ROWS = 512


@dataclass
class ScoreStandardization:
    """Validation-split mean/std for each score component."""

    nll_mean: float = 0.0
    nll_std: float = 1.0
    recon_mean: float = 0.0
    recon_std: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ConfigError(f"score standardization must be finite, got {self}")
        if not (self.nll_std > 0.0 and self.recon_std > 0.0):
            raise ConfigError(
                f"score standardization stds must be positive, got {self}")

    @classmethod
    def fit(cls, nll: np.ndarray, recon: np.ndarray) -> "ScoreStandardization":
        """Each component's mean and std (floored at 1e-12) over a split."""
        return cls(float(nll.mean()), float(max(nll.std(), 1e-12)),
                   float(recon.mean()), float(max(recon.std(), 1e-12)))


@dataclass
class ScoreConfig:
    mode: str = "nll"
    alpha: float = 0.5          # weight of the NLL term in combined mode
    standardization: ScoreStandardization | None = None

    def __post_init__(self):
        if self.mode not in SCORE_MODES:
            raise ConfigError(f"unknown score_mode {self.mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"score_alpha must lie in [0, 1], got {self.alpha}")

    def score(self, nll: np.ndarray, recon: np.ndarray | None) -> np.ndarray:
        """The NLL, or in combined mode alpha * z(nll) + (1 - alpha) * z(recon)."""
        if self.mode == "nll":
            return nll
        std = self.standardization
        if std is None:
            raise ConfigError("combined mode needs standardization constants")
        z_nll = (nll - std.nll_mean) / std.nll_std
        z_recon = (recon - std.recon_mean) / std.recon_std
        return self.alpha * z_nll + (1.0 - self.alpha) * z_recon


def encode_frames(ae: AutoencoderModel, frames: np.typing.ArrayLike,
                  recon: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The (n, latent_dim) latents of n frames and, if `recon`, their (n,)
    reconstruction errors (else None), over ceil(n / SCORE_BLOCK_ROWS)
    consecutive blocks whose sizes differ by at most one row, each encoded
    once and decoded at most once.

    The one place where frames become float64 intensities, each read by its
    dtype (`as_intensities`).  An array, or anything `np.asarray` makes n
    frames of without a copy such as a `Split`, is read once: its uint8
    codes are divided into one float64 buffer that every block reuses, and
    a float64 array's blocks are views of it.  The frames of a list or
    tuple are read one by one, so codes and `Frame`s may mix, then stacked.

    An even split never leaves a short tail block: OpenBLAS computes a
    product of a few rows (under about 38) with other kernels, whose rows
    differ from a larger product's in their last bits, while rows of larger
    blocks equal those of one product over the whole batch.  Each block
    repacks the 4096 x 512 first-layer weights; of the sizes tried, 512
    rows scored a large batch fastest (README, Scoring modes).
    """
    listed = isinstance(frames, (list, tuple))
    frames = frames if listed else np.asarray(frames)
    n = len(frames)
    count = -(-n // SCORE_BLOCK_ROWS)
    codes = not listed and n > 0 and frames.dtype == np.uint8
    buffer = np.empty((-(-n // count), *frames.shape[1:])) if codes else None
    latents = np.empty((n, ae.latent_dim))
    errors = np.empty(n) if recon else None
    for k in range(count):
        rows = slice(n * k // count, n * (k + 1) // count)
        size = rows.stop - rows.start
        flats = (np.stack([as_intensities(frame) for frame in frames[rows]]) if listed
                 else as_intensities(frames[rows], out=buffer[:size] if codes else None)
                 ).reshape(size, -1)
        latents[rows] = encode_batch(ae, flats)
        if recon:
            errors[rows] = reconstruction_error(ae, flats, latents[rows])
        del flats   # so the next block's frames are not made beside these
    return latents, errors


def score_frames(ae: AutoencoderModel, flow: FlowModel, frames: np.typing.ArrayLike,
                 config: ScoreConfig | None = None) -> np.ndarray:
    """Anomaly score of each frame; higher means more anomalous.  Only
    combined mode decodes; the flow takes the NLL of all n latents in one
    call.  Zero frames give an empty array."""
    config = config or ScoreConfig()
    if ae.latent_dim != flow.dim:
        raise ConfigError(f"autoencoder latent_dim {ae.latent_dim} does not match "
                          f"flow dimension {flow.dim}")
    latents, recon = encode_frames(ae, frames, recon=config.mode == "combined")
    return config.score(-flow_log_prob_batch(flow, latents), recon)
