"""Per-frame anomaly scores combining the autoencoder and the flow.

The default score is the latent negative log-likelihood under the flow:
low for normal frames, high for anomalous ones.  A combined mode mixes
standardized NLL with standardized reconstruction error; the
standardization constants come from the validation split and travel with
the checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .autoencoder import (AutoencoderModel, encode_batch, frame_blocks,
                          reconstruction_error)
from .errors import ConfigError
from .flow import FlowModel, flow_log_prob_batch

SCORE_MODES = ("nll", "combined")


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

    def combined(self, nll: np.ndarray, recon: np.ndarray) -> np.ndarray:
        """Combined-mode score: alpha * standardized NLL plus (1 - alpha) *
        standardized reconstruction error."""
        std = self.standardization
        if std is None:
            raise ConfigError("combined mode needs standardization constants")
        z_nll = (nll - std.nll_mean) / std.nll_std
        z_recon = (recon - std.recon_mean) / std.recon_std
        return self.alpha * z_nll + (1.0 - self.alpha) * z_recon


def score_frames(ae: AutoencoderModel, flow: FlowModel, frames: np.typing.ArrayLike,
                 config: ScoreConfig | None = None) -> np.ndarray:
    """Anomaly score of each frame; higher means more anomalous.

    `frames` is a list or tuple of n frames, or anything `np.asarray` makes
    n frames of without a copy, such as a `Split`; `frame_blocks` reads
    them one block of at most SCORE_BLOCK_ROWS frames at a time, as uint8
    codes or float intensities (any other dtype raises
    ContractViolationError).  A block is encoded once, and its latents feed
    the NLL and, in combined mode, the reconstruction error, so memory does
    not grow with n past one block.  Zero frames give an empty array.
    """
    config = config or ScoreConfig()
    if ae.latent_dim != flow.dim:
        raise ConfigError(
            f"autoencoder latent_dim {ae.latent_dim} does not match flow "
            f"dimension {flow.dim}")
    scores = np.empty(len(frames))
    for rows, flats in frame_blocks(frames):
        latents = encode_batch(ae, flats)
        nll = -flow_log_prob_batch(flow, latents)
        scores[rows] = (nll if config.mode == "nll" else config.combined(
            nll, reconstruction_error(ae, flats, latents)))
        del flats   # so the next block's frames are not made beside these
    return scores
