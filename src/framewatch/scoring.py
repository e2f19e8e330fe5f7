"""Per-frame anomaly scores combining the autoencoder and the flow.

The default score is the latent negative log-likelihood under the flow:
low for normal frames, high for anomalous ones.  A combined mode mixes
standardized NLL with standardized reconstruction error; the
standardization constants come from the validation split and travel with
the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import AutoencoderModel, encode_batch, reconstruction_error
from .data_io import Frame
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


@dataclass
class ScoreConfig:
    mode: str = "nll"
    alpha: float = 0.5          # weight of the NLL term in combined mode
    standardization: ScoreStandardization | None = None

    def __post_init__(self):
        if self.mode not in SCORE_MODES:
            raise ConfigError(f"unknown score mode {self.mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")


def _check_models(ae: AutoencoderModel, flow: FlowModel) -> None:
    if ae.latent_dim != flow.dim:
        raise ConfigError(
            f"autoencoder latent_dim {ae.latent_dim} does not match flow "
            f"dimension {flow.dim}")


def score_frames(ae: AutoencoderModel, flow: FlowModel, frames: list[Frame],
                 config: ScoreConfig | None = None) -> np.ndarray:
    """Anomaly score of each frame; higher means more anomalous.

    One encoder pass over the whole batch feeds both the NLL and, in
    combined mode, the reconstruction error.
    """
    config = config or ScoreConfig()
    _check_models(ae, flow)
    flats = np.stack([f.flat() for f in frames])
    latents = encode_batch(ae, flats)
    nll = -flow_log_prob_batch(flow, latents)
    if config.mode == "nll":
        return nll
    std = config.standardization
    if std is None:
        raise ConfigError("combined mode needs standardization constants")
    recon = reconstruction_error(ae, flats, latents)
    z_nll = (nll - std.nll_mean) / max(std.nll_std, 1e-12)
    z_recon = (recon - std.recon_mean) / max(std.recon_std, 1e-12)
    return config.alpha * z_nll + (1.0 - config.alpha) * z_recon

