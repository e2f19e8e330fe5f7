"""Combined-mode scoring: batched kernel against a per-frame oracle, a
batch of one against the batch, and the standardization that training
derives."""

import numpy as np
import pytest

from framewatch import checkpoint as ckpt
from framewatch.autoencoder import (RECON_BLOCK_ROWS, encode_batch,
                                    init_autoencoder, reconstruction_error)
from framewatch.data_io import FRAME_SIDE, Frame
from framewatch.errors import ConfigError, ScoringError
from framewatch.flow import flow_log_prob_batch, init_flow
from framewatch.pipeline import RunConfig, pipeline_checkpoint, train_pipeline
from framewatch.rng import RngStream
from framewatch.scoring import ScoreConfig, ScoreStandardization, score_frames
from framewatch.synth import SynthSpec, generate_scenario

LATENT = 8
STD = ScoreStandardization(nll_mean=3.0, nll_std=2.5, recon_mean=0.2,
                           recon_std=0.05)
COMBINED = ScoreConfig(mode="combined", alpha=0.3, standardization=STD)


def _frames(n, seed=0):
    rng = RngStream(seed)
    return [Frame(rng.uniform(FRAME_SIDE * FRAME_SIDE).reshape(FRAME_SIDE, FRAME_SIDE))
            for _ in range(n)]


@pytest.fixture(scope="module")
def models():
    return (init_autoencoder(RngStream(11), LATENT),
            init_flow(RngStream(12), LATENT, num_layers=4, hidden=16))


@pytest.fixture(scope="module")
def frames():
    # More than one row block, so the remainder block is covered too.
    return _frames(RECON_BLOCK_ROWS + 37)


def _oracle_score(ae, flow, frame, config):
    """One frame at a time, each model call on a batch of one."""
    latent = encode_batch(ae, frame.flat()[None, :])
    nll = -flow_log_prob_batch(flow, latent)[0]
    recon = float(np.mean((ae.decoder.forward(latent)[0] - frame.flat()) ** 2))
    std = config.standardization
    return (config.alpha * (nll - std.nll_mean) / std.nll_std
            + (1.0 - config.alpha) * (recon - std.recon_mean) / std.recon_std)


def test_combined_batch_matches_per_frame_oracle(models, frames):
    ae, flow = models
    scores = score_frames(ae, flow, frames, COMBINED)
    assert scores.shape == (len(frames),)
    expected = [_oracle_score(ae, flow, f, COMBINED) for f in frames]
    assert scores.tolist() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("config", [ScoreConfig(), COMBINED], ids=["nll", "combined"])
def test_batch_of_one_equals_score_frames_element(models, frames, config):
    ae, flow = models
    batch = score_frames(ae, flow, frames[:20], config)
    for i in (0, 7, 19):
        single = float(score_frames(ae, flow, [frames[i]], config)[0])
        assert isinstance(single, float)
        assert single == pytest.approx(batch[i], rel=1e-12)


def test_combined_without_standardization_rejected(models, frames):
    ae, flow = models
    with pytest.raises(ConfigError):
        score_frames(ae, flow, frames[:2], ScoreConfig(mode="combined"))


def test_non_finite_flow_raises_scoring_error(frames):
    ae = init_autoencoder(RngStream(11), LATENT)
    flow = init_flow(RngStream(12), LATENT, num_layers=4, hidden=16)
    params = flow.params()
    params[0] = np.full_like(params[0], np.inf)
    flow.set_params(params)
    with np.errstate(invalid="ignore"), pytest.raises(ScoringError):
        score_frames(ae, flow, frames[:3])


@pytest.fixture(scope="module")
def combined_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("combined")
    spec = SynthSpec(seed=5, n_train=16, n_val=24, n_test_normal=4,
                     n_per_anomaly={"dim_light": 2, "blob": 2, "sensor_noise": 2})
    dataset = generate_scenario(spec, root / "scen")
    config = RunConfig.from_dict({
        "seed": 5, "score_mode": "combined", "score_alpha": 0.4,
        "autoencoder": {"epochs": 3, "batch_size": 8, "latent_dim": 16},
        "flow": {"epochs": 4, "batch_size": 8, "num_layers": 4, "hidden": 16},
    })
    trained = train_pipeline(dataset, config)
    path = root / "checkpoint.json"
    ckpt.save_json(pipeline_checkpoint(trained, config), path)
    return dataset, trained, ckpt.pipeline_from_dict(ckpt.load_json(path))


def test_combined_pipeline_reload_bit_identical(combined_run):
    dataset, trained, (ae, flow, score_config, threshold) = combined_run
    assert score_config.mode == "combined"
    assert score_config.standardization == trained.score_config.standardization
    scores = score_frames(ae, flow, dataset.val, score_config)
    assert np.array_equal(scores, trained.val_scores)
    assert threshold == trained.threshold


def test_validation_terms_standardized(combined_run):
    dataset, trained, _ = combined_run
    ae, flow = trained.autoencoder, trained.flow
    std = trained.score_config.standardization
    flats = np.stack([f.flat() for f in dataset.val])
    recon = reconstruction_error(ae, flats, encode_batch(ae, flats))
    nll = score_frames(ae, flow, dataset.val, ScoreConfig(mode="nll"))
    for values, mean, sd in ((recon, std.recon_mean, std.recon_std),
                             (nll, std.nll_mean, std.nll_std)):
        z = (values - mean) / sd
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9
