"""End-to-end wiring: train both models, score splits, evaluate.

This is the library-level counterpart of the CLI subcommands, so tests
and other callers can run the pipeline without spawning a process.  The
trainers take arrays; the dataset has passed the split protocol when built.
Training takes its val scores through scoring's own path, as deployed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autoencoder import AutoencoderConfig, AutoencoderModel, train_autoencoder
# Not called here: perfbench's `train` patch table wraps pipeline.encode_batch.
from .autoencoder import encode_batch  # noqa: F401
from .data_io import ScenarioDataset
from .errors import ConfigError, ProtocolViolationError
from .evaluation import EvalReport, choose_threshold, evaluate
from .flow import (FlowConfig, FlowModel, ScoredSample, flow_log_prob_batch,
                   train_flow)
from .monitor import DEFAULT_CONSECUTIVE, DEFAULT_WINDOW, MonitorConfig
from .nn import TrainReport
from .scoring import ScoreConfig, ScoreStandardization, encode_frames, score_frames
from .checkpoint import pipeline_to_dict


@dataclass
class RunConfig:
    """The experiment a run repeats; every field has a default.  `seed`
    seeds both the autoencoder and the flow.  Paths are not part of it:
    they come from the command line."""

    seed: int = 7
    autoencoder: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    score_mode: str = "nll"
    score_alpha: float = 0.5
    eval_quantile: float = 0.99
    monitor_window: int = DEFAULT_WINDOW
    monitor_consecutive: int = DEFAULT_CONSECUTIVE

    def __post_init__(self):
        ScoreConfig(mode=self.score_mode, alpha=self.score_alpha)  # checks both
        self.monitor_config(0.0)  # checks the two monitor settings
        if not 0.0 < self.eval_quantile < 1.0:
            raise ConfigError(f"eval_quantile must lie in (0, 1), got {self.eval_quantile}")
        if self.autoencoder.latent_dim < 2:
            raise ConfigError("autoencoder.latent_dim must be >= 2 (the flow splits it "
                              f"into two non-empty halves), got {self.autoencoder.latent_dim}")

    def monitor_config(self, threshold: float) -> MonitorConfig:
        """The monitor settings around `threshold`, the checkpoint's tau."""
        return MonitorConfig(threshold, self.monitor_window, self.monitor_consecutive)


@dataclass
class TrainedPipeline:
    autoencoder: AutoencoderModel
    flow: FlowModel
    score_config: ScoreConfig
    threshold: float
    ae_report: TrainReport
    flow_report: TrainReport
    val_scores: np.ndarray


def train_pipeline(dataset: ScenarioDataset, config: RunConfig) -> TrainedPipeline:
    """Train autoencoder then flow on the normal splits; derive the
    validation-based score standardization and trigger threshold.

    The autoencoder trains on the splits' codes, which it turns into
    float32 frames one batch at a time (and the val split once an epoch).
    `encode_frames` then encodes both splits, decoding val; the flow trains
    on the latents, and the val NLL and reconstruction errors fit the
    standardization and give the val scores, as `score_frames` would.
    """
    if not dataset.train:
        raise ProtocolViolationError("train split is empty")
    ae, ae_report = train_autoencoder(
        dataset.train.pixels.reshape(len(dataset.train), -1),
        dataset.val.pixels.reshape(len(dataset.val), -1), config.autoencoder, config.seed)
    train_latents, _ = encode_frames(ae, dataset.train)
    val_latents, val_recon = encode_frames(ae, dataset.val, recon=True)
    flow, flow_report = train_flow(train_latents, val_latents, config.flow,
                                   config.seed)
    val_nll = -flow_log_prob_batch(flow, val_latents)
    score_config = ScoreConfig(mode=config.score_mode, alpha=config.score_alpha,
                               standardization=ScoreStandardization.fit(val_nll, val_recon))
    val_scores = score_config.score(val_nll, val_recon)
    threshold = choose_threshold(val_scores, config.eval_quantile)
    return TrainedPipeline(ae, flow, score_config, threshold, ae_report,
                           flow_report, val_scores)


def pipeline_checkpoint(pipeline: TrainedPipeline, config: RunConfig) -> dict:
    return pipeline_to_dict(
        pipeline.autoencoder, pipeline.flow, pipeline.score_config,
        pipeline.threshold, config.eval_quantile)


def evaluate_pipeline(ae: AutoencoderModel, flow: FlowModel,
                      score_config: ScoreConfig, dataset: ScenarioDataset,
                      q: float) -> tuple[EvalReport, list[ScoredSample]]:
    test = dataset.test
    scores = score_frames(ae, flow, test, score_config)
    scored = [ScoredSample(source_id or f"test/{i}", float(score),
                           anomaly_type=label.anomaly_type if label else None)
              for i, (source_id, label, score)
              in enumerate(zip(test.source_ids, test.labels, scores))]
    val_scores = score_frames(ae, flow, dataset.val, score_config)
    report = evaluate(scored, dataset.taxonomy, val_scores, q)
    return report, scored

