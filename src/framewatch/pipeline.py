"""End-to-end wiring: train both models, score splits, evaluate.

This is the library-level counterpart of the CLI subcommands, so tests
and other callers can run the pipeline without spawning a process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .autoencoder import (AutoencoderConfig, AutoencoderModel, encode_batch,
                          reconstruction_error, train_autoencoder, TrainReport)
from .config import check_ranges, from_dict
from .data_io import Frame, ScenarioDataset
from .errors import ConfigError
from .evaluation import EvalReport, choose_threshold, evaluate
from .flow import FlowConfig, FlowModel, FlowTrainReport, ScoredSample, train_flow
from .scoring import SCORE_MODES, ScoreConfig, ScoreStandardization, score_frames
from .checkpoint import pipeline_to_dict


@dataclass
class RunConfig:
    """Effective configuration of a full run; every field has a default."""

    seed: int = 7
    scenario: str | None = None
    out: str | None = None
    autoencoder: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    score_mode: str = "nll"
    score_alpha: float = 0.5
    eval_quantile: float = 0.99
    monitor_window: int = 15
    monitor_consecutive: int = 3
    monitor_threshold: float | None = None  # None: take tau from the checkpoint

    def __post_init__(self):
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"unknown score_mode {self.score_mode!r}")
        check_ranges(self, "", at_least_one=("monitor_window", "monitor_consecutive"))
        if not 0.0 <= self.score_alpha <= 1.0:
            raise ConfigError(f"score_alpha must lie in [0, 1], got {self.score_alpha}")
        if not 0.0 < self.eval_quantile < 1.0:
            raise ConfigError(f"eval_quantile must lie in (0, 1), got {self.eval_quantile}")
        # One seed drives the whole run; sub-config seeds follow it.
        self.autoencoder.seed = self.seed
        self.flow.seed = self.seed

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build from parsed JSON, checking every key and value type."""
        return from_dict(cls, data, "run config")


@dataclass
class TrainedPipeline:
    autoencoder: AutoencoderModel
    flow: FlowModel
    score_config: ScoreConfig
    threshold: float
    ae_report: TrainReport
    flow_report: FlowTrainReport
    val_scores: np.ndarray


def train_pipeline(dataset: ScenarioDataset, config: RunConfig) -> TrainedPipeline:
    """Train autoencoder then flow on the normal splits; derive the
    validation-based score standardization and trigger threshold."""
    dataset.validate()
    ae, ae_report = train_autoencoder(dataset.train, dataset.val,
                                      config.autoencoder)

    train_flats = np.stack([f.flat() for f in dataset.train])
    val_flats = np.stack([f.flat() for f in dataset.val])
    train_latents = encode_batch(ae, train_flats)
    val_latents = encode_batch(ae, val_flats)
    flow, flow_report = train_flow(train_latents, val_latents, config.flow)

    nll_cfg = ScoreConfig(mode="nll")
    val_nll = score_frames(ae, flow, dataset.val, nll_cfg)
    val_recon = reconstruction_error(ae, val_flats, val_latents)
    standardization = ScoreStandardization(
        nll_mean=float(val_nll.mean()),
        nll_std=float(max(val_nll.std(), 1e-12)),
        recon_mean=float(val_recon.mean()),
        recon_std=float(max(val_recon.std(), 1e-12)),
    )
    score_config = ScoreConfig(mode=config.score_mode, alpha=config.score_alpha,
                               standardization=standardization)
    val_scores = score_frames(ae, flow, dataset.val, score_config)
    threshold = choose_threshold(val_scores, config.eval_quantile)
    return TrainedPipeline(ae, flow, score_config, threshold, ae_report,
                           flow_report, val_scores)


def pipeline_checkpoint(pipeline: TrainedPipeline, config: RunConfig) -> dict:
    return pipeline_to_dict(
        pipeline.autoencoder, pipeline.flow, pipeline.score_config,
        pipeline.threshold, config.eval_quantile,
        ae_config=config.autoencoder, flow_config=config.flow,
        seed=config.seed)


def score_test_split(ae: AutoencoderModel, flow: FlowModel,
                     score_config: ScoreConfig,
                     frames: list[Frame], split: str = "test") -> list[ScoredSample]:
    scores = score_frames(ae, flow, frames, score_config)
    return [
        ScoredSample(
            sample_id=frame.source_id or f"{split}/{i}",
            score=float(score),
            anomaly_type=frame.label.anomaly_type if frame.label else None,
            split=split,
        )
        for i, (frame, score) in enumerate(zip(frames, scores))
    ]


def evaluate_pipeline(ae: AutoencoderModel, flow: FlowModel,
                      score_config: ScoreConfig, dataset: ScenarioDataset,
                      q: float = 0.99) -> tuple[EvalReport, list[ScoredSample]]:
    scored = score_test_split(ae, flow, score_config, dataset.test)
    val_scores = score_frames(ae, flow, dataset.val, score_config)
    report = evaluate(scored, dataset.taxonomy, val_scores, q)
    return report, scored

