"""Memory bounds of the batched paths, measured with tracemalloc, to which
numpy reports its array buffers.

Each bound is in units of the largest array the path has to make: the
first encoder layer's output for `encode_batch`, one decoded block for
combined-mode `score_frames`, the float32 parameters for autoencoder
training, one (n, dim) latent batch for flow scoring, and the float64
flow parameters for flow training.  An inference layer that kept its
pre-activation next to its output, a coupling layer whose arrays
outlived it, or a training step that made its gradients while the
previous step's were still alive, goes over these bounds.
"""

import gc
import tracemalloc

import numpy as np

from framewatch.autoencoder import (ENCODER_HIDDEN, RECON_BLOCK_ROWS, AutoencoderConfig,
                                    encode_batch, init_autoencoder, train_autoencoder)
from framewatch.data_io import FRAME_PIXELS, FRAME_SIDE
from framewatch.flow import FlowConfig, flow_log_prob_batch, init_flow, train_flow
from framewatch.rng import RngStream
from framewatch.scoring import ScoreConfig, ScoreStandardization, score_frames

ROWS = RECON_BLOCK_ROWS   # 256 frames, one block, so combined scoring decodes once


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


def test_encode_batch_keeps_one_first_layer_output():
    ae = init_autoencoder(RngStream(11), 8)
    xs = _flats(ROWS, 3)
    first_layer = ROWS * ENCODER_HIDDEN[0] * xs.itemsize
    assert _traced_peak(lambda: encode_batch(ae, xs)) <= 2.5 * first_layer


def test_combined_scoring_keeps_one_decoded_block():
    ae = init_autoencoder(RngStream(11), 8)
    flow = init_flow(RngStream(12), 8, num_layers=4, hidden=16)
    config = ScoreConfig(mode="combined", alpha=0.3, standardization=ScoreStandardization(
        nll_mean=3.0, nll_std=2.5, recon_mean=0.2, recon_std=0.05))
    frames = _flats(ROWS, 3).reshape(ROWS, FRAME_SIDE, FRAME_SIDE)
    block = frames.nbytes
    assert _traced_peak(lambda: score_frames(ae, flow, frames, config)) <= 1.5 * block


def test_training_keeps_one_gradient_set():
    n_params = sum(p.size for p in init_autoencoder(RngStream(0)).params())
    train_x, val_x = _flats(128, 4), _flats(16, 5)
    config = AutoencoderConfig(epochs=1, batch_size=64)
    peak = _traced_peak(lambda: train_autoencoder(train_x, val_x, config))
    assert peak <= 5 * n_params * np.dtype(np.float32).itemsize


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
