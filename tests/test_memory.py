"""Memory bounds of the batched paths, measured with tracemalloc, to which
numpy reports its array buffers.

Each bound is in units of the largest array the path has to make: the
first encoder layer's output for `encode_batch`, one decoded block for
combined-mode `score_frames`, one block of float64 pixels for scoring a
list of frames or a split, the float32 parameters for autoencoder
training, one batch of float32 frames for how autoencoder training grows
with its train split, the train latents and their whitened copy for how
`train_pipeline` grows with it, one (n, dim) latent batch for flow
scoring, the float64 flow parameters for flow training, and one byte per
pixel for loading a scenario.  An inference layer that kept its
pre-activation next to its output, scoring that stacked its whole input,
a coupling layer whose arrays outlived it, a training step that made its
gradients while the previous step's were still alive, training that made
float32 frames of its whole train split, a pipeline that encoded its
whole train split from one float64 copy, or a loader that kept float
pixels, goes over these bounds.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from framewatch.autoencoder import (ENCODER_HIDDEN, AutoencoderConfig, encode_batch,
                                    init_autoencoder, train_autoencoder)
from framewatch.data_io import (FRAME_PIXELS, FRAME_SIDE, Frame, ScenarioDataset, Split,
                                load_scenario)
from framewatch.flow import FlowConfig, flow_log_prob_batch, init_flow, train_flow
from framewatch.pipeline import RunConfig, train_pipeline
from framewatch.rng import RngStream
from framewatch.scoring import (SCORE_BLOCK_ROWS, ScoreConfig, ScoreStandardization,
                                score_frames)
from framewatch.synth import ANOMALY_LABELS, SynthSpec, generate_scenario

ROWS = SCORE_BLOCK_ROWS   # one block, so combined scoring decodes once
CONFIG = {mode: ScoreConfig(mode=mode, alpha=0.3, standardization=ScoreStandardization(
    nll_mean=3.0, nll_std=2.5, recon_mean=0.2, recon_std=0.05))
    for mode in ("nll", "combined")}


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flats(n, seed):
    return RngStream(seed).uniform(n * FRAME_PIXELS).reshape(n, FRAME_PIXELS)


def _split(codes, labels=None):
    """A split of (n, FRAME_PIXELS) uint8 codes, normal unless `labels`."""
    n = len(codes)
    return Split(codes.reshape(n, FRAME_SIDE, FRAME_SIDE), tuple(map(str, range(n))),
                 tuple(range(n)), labels or (None,) * n)


def test_encode_batch_keeps_one_first_layer_output():
    ae = init_autoencoder(RngStream(11), 8)
    xs = _flats(ROWS, 3)
    first_layer = ROWS * ENCODER_HIDDEN[0] * xs.itemsize
    assert _traced_peak(lambda: encode_batch(ae, xs)) <= 2.5 * first_layer


def test_combined_scoring_keeps_one_decoded_block():
    ae = init_autoencoder(RngStream(11), 8)
    flow = init_flow(RngStream(12), 8, num_layers=4, hidden=16)
    frames = _flats(ROWS, 3).reshape(ROWS, FRAME_SIDE, FRAME_SIDE)
    block = frames.nbytes
    assert _traced_peak(lambda: score_frames(ae, flow, frames, CONFIG["combined"])) <= 1.5 * block


def test_training_keeps_one_gradient_set():
    n_params = sum(p.size for p in init_autoencoder(RngStream(0)).params())
    train_x, val_x = _flats(128, 4), _flats(16, 5)
    config = AutoencoderConfig(epochs=1, batch_size=64)
    peak = _traced_peak(lambda: train_autoencoder(train_x, val_x, config))
    assert peak <= 5 * n_params * np.dtype(np.float32).itemsize


def test_training_memory_does_not_grow_with_the_train_split():
    """One epoch on the codes of 1,024 frames peaks within one batch of
    float32 frames of one epoch on 64: each step makes the float32 frames of
    its own batch only, never of the whole split (15.7 MB more here)."""
    codes = np.floor(_flats(1024, 4) * 256).astype(np.uint8)
    val_codes = np.floor(_flats(16, 5) * 256).astype(np.uint8)
    config = AutoencoderConfig(epochs=1, batch_size=64)
    small, large = (_traced_peak(lambda: train_autoencoder(codes[:n], val_codes, config))
                    for n in (64, 1024))
    assert abs(large - small) < config.batch_size * FRAME_PIXELS * np.dtype(np.float32).itemsize


def test_pipeline_training_memory_does_not_grow_with_the_train_split():
    """train_pipeline (one autoencoder and one flow epoch) on the codes of
    1,500 train frames peaks within their latents and the flow's whitened
    copy of them of the run on 64: the train split is encoded one block at
    a time, never from one float64 copy of the whole split (19.5 MiB more
    here)."""
    codes = np.floor(_flats(1500, 4) * 256).astype(np.uint8)
    val = _split(np.floor(_flats(64, 5) * 256).astype(np.uint8))
    test = _split(np.floor(_flats(2, 6) * 256).astype(np.uint8),
                  (None, ANOMALY_LABELS["blob"]))
    config = RunConfig(autoencoder=AutoencoderConfig(epochs=1), flow=FlowConfig(epochs=1))
    small, large = (_traced_peak(lambda: train_pipeline(
        ScenarioDataset(_split(codes[:n]), val, test), config)) for n in (64, 1500))
    latents = len(codes) * config.autoencoder.latent_dim * np.dtype(np.float64).itemsize
    assert abs(large - small) < 2 * latents


def test_flow_scoring_keeps_one_coupling_layer_alive():
    """At the peak, one layer's stacked hidden activations (2 batches at
    hidden == dim) and stacked scale and shift output (1 batch) sit beside
    the batch's two halves (1 batch)."""
    flow = init_flow(RngStream(12), 64)
    latents = RngStream(3).gaussian(2400 * 64).reshape(2400, 64)
    assert _traced_peak(lambda: flow_log_prob_batch(flow, latents)) <= 4.25 * latents.nbytes


def test_flow_training_keeps_one_gradient_set():
    """Parameters, Adam's two moments and one gradient set (4 units), plus
    one batch's backward tape and scratch."""
    n_params = sum(p.size for p in init_flow(RngStream(0), 64).params())
    train, val = (RngStream(seed).gaussian(n * 64).reshape(n, 64)
                  for seed, n in ((4, 400), (5, 200)))
    peak = _traced_peak(lambda: train_flow(train, val, FlowConfig(epochs=1)))
    assert peak <= 7.5 * n_params * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("mode, blocks", [("nll", 1.25), ("combined", 2.0)])
def test_scoring_a_frame_list_keeps_one_block(mode, blocks):
    """A list of 3 blocks and 1 frame is scored in 4 blocks of 385 or 384
    frames.  One block's float64 pixels are alive at once, never the whole
    list stacked nor two blocks side by side, and in combined mode its
    reconstructions beside them."""
    ae = init_autoencoder(RngStream(11), 8)
    flow = init_flow(RngStream(12), 8, num_layers=4, hidden=16)
    n = 3 * ROWS + 1
    frames = [Frame(p) for p in _flats(n, 3).reshape(n, FRAME_SIDE, FRAME_SIDE)]
    block = ROWS * FRAME_PIXELS * np.dtype(np.float64).itemsize
    assert _traced_peak(lambda: score_frames(ae, flow, frames, CONFIG[mode])) <= blocks * block


@pytest.mark.parametrize("mode, blocks", [("nll", 1.0), ("combined", 1.75)])
def test_scoring_a_split_keeps_one_float64_block(mode, blocks):
    """A split of 3 blocks and 1 frame of uint8 codes is scored in 4 blocks
    of 385 or 384 frames, each divided into one reused float64 buffer:
    never the whole split as float64 (3 blocks), and in combined mode one
    block of reconstructions beside the buffer."""
    ae = init_autoencoder(RngStream(11), 8)
    flow = init_flow(RngStream(12), 8, num_layers=4, hidden=16)
    n = 3 * ROWS + 1
    split = _split(np.floor(_flats(n, 3) * 256).astype(np.uint8))
    block = ROWS * FRAME_PIXELS * np.dtype(np.float64).itemsize
    assert _traced_peak(lambda: score_frames(ae, flow, split, CONFIG[mode])) <= blocks * block


def test_loading_keeps_one_byte_per_pixel(tmp_path):
    """load_scenario copies each frame's codes into its split's uint8
    array; the file it reads and its bookkeeping stay a small share."""
    spec = SynthSpec(seed=2, n_train=64, n_val=16, n_test_normal=16,
                     n_per_anomaly={"dim_light": 4, "blob": 4, "sensor_noise": 4})
    dataset = generate_scenario(spec, tmp_path / "scen")
    pixels = sum(len(split) for split in (dataset.train, dataset.val, dataset.test))
    pixels *= FRAME_PIXELS
    del dataset
    assert _traced_peak(lambda: load_scenario(tmp_path / "scen")) <= 1.25 * pixels
