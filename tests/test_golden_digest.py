"""Golden digests of a small, fixed run: the scenario as loaded, and the
parameters trained on it.

Criterion 9 proves that two runs of one version agree byte for byte. This
test pins what they agree on, so a change to the kernels, the training
loop or the checkpoint container that alters any trained parameter, even
in the last bit, fails here. The digest covers each parameter's dtype and
raw bytes, in a fixed order, both as trained and as reloaded from a
checkpoint, so a float32 array leaking out of training changes it too; it
never hashes the checkpoint file, whose layout may change without the
parameters changing.

Training sees the train and val pixels only through what it learns, and
nothing in it reads the test split that `eval` scores, so the loaded
scenario has a digest of its own: every frame of every split, with its
name, timestamp, label and pixels.

Neither digest sees a score, so the scores that the reloaded model deploys
have one too: in `nll` and in `combined` mode, of the test split and of
frames that span three scoring blocks.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from framewatch import checkpoint as ckpt
from framewatch.config import from_dict
from framewatch.data_io import FRAME_PIXELS, FRAME_SIDE, as_intensities, load_scenario
from framewatch.pipeline import RunConfig, pipeline_checkpoint, train_pipeline
from framewatch.rng import RngStream
from framewatch.scoring import SCORE_BLOCK_ROWS, score_frames
from framewatch.synth import SynthSpec, generate_scenario

# The criterion 9 configuration.
SYNTH = dict(seed=7, n_train=24, n_val=8, n_test_normal=8,
             n_per_anomaly={"dim_light": 4, "blob": 4, "sensor_noise": 4})
RUN = {"seed": 7,
       "autoencoder": {"epochs": 5, "batch_size": 8, "latent_dim": 16},
       "flow": {"epochs": 8, "batch_size": 8, "num_layers": 4, "hidden": 16}}

# Taken with numpy 2.4 on OpenBLAS 0.3.31 (Haswell kernels), the same with
# one BLAS thread or two, for float32 autoencoder training. Re-pin it only
# for a BLAS that rounds differently, or for a change that alters training
# numerics on purpose; either way record the old and the new digest, and
# why, where the change is recorded (CHANGES.md).
GOLDEN_SHA256 = "82dfa00ff58eaea137d10901a0934ba5897eb8c1ac0fb7c86d1024608edf8eb4"

# The criterion 9 scenario as loaded. It depends on the synthesizer and the
# loader only, not on BLAS; re-pin it only for a change that alters frames
# or labels on purpose, and record the old and the new digest.
GOLDEN_SCENARIO_SHA256 = "e25658e9375d477c716e35fb1b71665e4cb17f2b85b4b62cfb96e3f282fd887b"

# The scores of the criterion 9 model as reloaded from its checkpoint, with
# the BLAS of GOLDEN_SHA256, the same with one BLAS thread or two.  It moves
# with GOLDEN_SHA256, and alone for a change to scoring's numerics; re-pin
# it on the same terms.
GOLDEN_SCORES_SHA256 = "dc3da88653f9cac1aec0fb12781f0c6c42ff61b99930d4b59a2867e62e5c7245"


def scenario_digest(dataset) -> str:
    """sha256 over the train, val and test splits in turn: the frame count,
    then for each frame its source_id, timestamp and label, then its
    intensities' dtype and raw bytes.  A split holds 8-bit codes; the
    digest hashes their float64 intensities, the values that scoring and
    training read."""
    digest = hashlib.sha256()
    for split in (dataset.train, dataset.val, dataset.test):
        assert split.pixels.dtype == np.uint8
        digest.update(f"{len(split)}\n".encode("ascii"))
        for source_id, timestamp, label, codes in zip(
                split.source_ids, split.timestamps, split.labels, split.pixels):
            digest.update(repr((source_id, timestamp, label)).encode("utf-8"))
            pixels = as_intensities(codes)
            digest.update(pixels.dtype.str.encode("ascii"))
            digest.update(pixels.tobytes())
    return digest.hexdigest()


def parameter_digest(ae, flow, threshold) -> str:
    """sha256 over autoencoder params (encoder then decoder, weights then
    bias per layer), then per coupling layer its parity (as an int64), the
    scale net's params (slice 0 of its stacked w_in, b_in, w_out, b_out)
    and the shift net's (slice 1), then the whitening mean and std, then
    the threshold."""
    arrays = list(ae.params())
    for layer in flow.layers:
        arrays += [np.int64(layer.parity), *(p[0] for p in layer.params()),
                   *(p[1] for p in layer.params())]
    arrays += [flow.whitening_mean, flow.whitening_std, np.float64(threshold)]
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(a.dtype.str.encode("ascii"))
        digest.update(a.tobytes())
    return digest.hexdigest()


def scores_digest(ae, flow, score_config, frame_sets) -> str:
    """sha256 over the dtype and raw bytes of `score_frames` on each of
    `frame_sets`, in `nll` and then in `combined` mode, both with
    `score_config`'s alpha and standardization."""
    digest = hashlib.sha256()
    for mode in ("nll", "combined"):
        config = dataclasses.replace(score_config, mode=mode)
        for frames in frame_sets:
            scores = score_frames(ae, flow, frames, config)
            digest.update(scores.dtype.str.encode("ascii"))
            digest.update(scores.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def criterion_9_run(tmp_path_factory):
    """The criterion 9 scenario as loaded, the pipeline trained on it, and
    that pipeline as reloaded from its checkpoint."""
    root = tmp_path_factory.mktemp("criterion_9")
    generate_scenario(SynthSpec(**SYNTH), root / "scen")
    dataset = load_scenario(root / "scen")
    config = from_dict(RunConfig, RUN, "run config")
    trained = train_pipeline(dataset, config)
    path = root / "checkpoint.fwc"
    ckpt.save_json(pipeline_checkpoint(trained, config), path)
    return dataset, trained, ckpt.pipeline_from_dict(ckpt.load_json(path))


def test_loaded_scenario_matches_golden_digest(criterion_9_run):
    assert scenario_digest(criterion_9_run[0]) == GOLDEN_SCENARIO_SHA256


def test_trained_parameters_match_golden_digest(criterion_9_run):
    _, trained, (ae, flow, _, threshold) = criterion_9_run
    assert parameter_digest(trained.autoencoder, trained.flow,
                            trained.threshold) == GOLDEN_SHA256
    assert parameter_digest(ae, flow, threshold) == GOLDEN_SHA256


def test_deployed_scores_match_golden_digest(criterion_9_run):
    """The reloaded model's scores of the test split, and of seeded uint8
    frames that `score_frames` reads in three blocks."""
    dataset, _, (ae, flow, score_config, _) = criterion_9_run
    n = 2 * SCORE_BLOCK_ROWS + 3
    codes = np.floor(RngStream(9).uniform(n * FRAME_PIXELS) * 256).astype(np.uint8)
    frame_sets = (dataset.test, codes.reshape(n, FRAME_SIDE, FRAME_SIDE))
    assert scores_digest(ae, flow, score_config, frame_sets) == GOLDEN_SCORES_SHA256
