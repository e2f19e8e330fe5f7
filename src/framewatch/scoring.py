"""Per-frame anomaly scores combining the autoencoder and the flow.

The default score is the latent negative log-likelihood under the flow:
low for normal frames, high for anomalous ones.  A combined mode mixes
standardized NLL with standardized reconstruction error, by constants fit
on the validation split that travel with the checkpoint.  Training and
deployment both score by `encode_frames`, one flow call, `ScoreConfig.score`.
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
    reconstruction errors (else None).  `frames` is a list or tuple, or
    anything `np.asarray` makes n frames of without a copy, such as a
    `Split`; `frame_blocks` reads them one block at a time, and each block
    is encoded once and decoded at most once."""
    latents = np.empty((len(frames), ae.latent_dim))
    errors = np.empty(len(frames)) if recon else None
    for rows, flats in frame_blocks(frames):
        block = encode_batch(ae, flats)
        latents[rows] = block
        if recon:
            errors[rows] = reconstruction_error(ae, flats, block)
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
