"""Combined-mode scoring: batched kernel against a per-frame oracle, a
batch of one against the batch, and the standardization that training
derives."""

import dataclasses

import numpy as np
import pytest

from framewatch import autoencoder, checkpoint as ckpt, pipeline, scoring
from framewatch.autoencoder import (SCORE_BLOCK_ROWS, encode_batch,
                                    init_autoencoder, reconstruction_error)
from framewatch.data_io import FRAME_PIXELS, FRAME_SIDE, Frame, Split, as_intensities
from framewatch.errors import ConfigError, ContractViolationError, ScoringError
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
    # More than one row block, so a second block is covered too.
    return _frames(SCORE_BLOCK_ROWS + 37)


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


@pytest.mark.parametrize("n", [SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS + 1])
def test_blocked_inputs_score_alike(models, monkeypatch, n):
    """A Split, its intensities as an (n, 64, 64) array and a list of
    Frames over their rows give bit-equal scores.  The encoder sees
    ceil(n / SCORE_BLOCK_ROWS) blocks whose sizes differ by at most one
    row, never a one-row tail, and the first and last frame of each block
    score as the per-frame oracle does."""
    ae, flow = models
    codes = np.floor(RngStream(n).uniform(n * FRAME_PIXELS) * 256).astype(np.uint8)
    codes = codes.reshape(n, FRAME_SIDE, FRAME_SIDE)
    pixels = as_intensities(codes)
    split = Split(codes, tuple(f"f{i}" for i in range(n)), tuple(range(n)), (None,) * n)
    blocks = []

    def recording(ae, flats):
        blocks.append(flats.shape[0])
        return encode_batch(ae, flats)

    monkeypatch.setattr(scoring, "encode_batch", recording)
    scores = score_frames(ae, flow, split, COMBINED)
    monkeypatch.undo()
    assert len(blocks) == -(-n // SCORE_BLOCK_ROWS) and sum(blocks) == n
    assert max(blocks) - min(blocks) <= 1
    assert np.array_equal(score_frames(ae, flow, pixels, COMBINED), scores)
    assert np.array_equal(score_frames(ae, flow, [Frame(p) for p in pixels], COMBINED),
                          scores)
    ends = np.cumsum(blocks)
    for i in sorted({0, *(ends[:-1]), *(ends - 1)}):
        assert scores[i] == pytest.approx(
            _oracle_score(ae, flow, Frame(pixels[i]), COMBINED), rel=1e-12)


def test_code_arrays_in_a_list_or_tuple_score_as_codes(models):
    """A list or a tuple of uint8 code arrays scores bit for bit as their
    stacked (n, 64, 64) array, not as intensities 0-255, and a list of the
    `Frame`s of their intensities scores alike; n spans two blocks."""
    ae, flow = models
    n = SCORE_BLOCK_ROWS + 3
    codes = np.floor(RngStream(5).uniform(n * FRAME_PIXELS) * 256).astype(np.uint8)
    codes = codes.reshape(n, FRAME_SIDE, FRAME_SIDE)
    want = score_frames(ae, flow, codes, COMBINED)
    for frames in (list(codes), tuple(codes), [Frame(p) for p in as_intensities(codes)]):
        assert np.array_equal(score_frames(ae, flow, frames, COMBINED), want)


@pytest.mark.parametrize("wrap", [list, tuple])
def test_a_list_mixing_frames_and_codes_scores_as_the_codes(models, wrap):
    """Each frame of a list or tuple is read by its own dtype, so a `Frame`
    beside a uint8 code array, whichever comes first, scores bit for bit as
    their stacked codes, not as intensities 0-255."""
    ae, flow = models
    codes = np.floor(RngStream(9).uniform(2 * FRAME_PIXELS) * 256).astype(np.uint8)
    codes = codes.reshape(2, FRAME_SIDE, FRAME_SIDE)
    frames = [Frame(p) for p in as_intensities(codes)]
    for config in (ScoreConfig(), COMBINED):
        want = score_frames(ae, flow, codes, config)
        for mixed in ([frames[0], codes[1]], [codes[0], frames[1]]):
            assert np.array_equal(score_frames(ae, flow, wrap(mixed), config), want)


@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
def test_integer_frames_are_rejected(models, dtype):
    """Integer or boolean frames could be codes or intensities; read as
    intensities, code 200 would score about 3.96e6 instead of 11.5.  An
    array of them and a list of their frames are refused, naming the
    dtype."""
    ae, flow = models
    frames = np.full((2, FRAME_SIDE, FRAME_SIDE), 200).astype(dtype)
    for block in (frames, list(frames)):
        with pytest.raises(ContractViolationError, match=np.dtype(dtype).name):
            score_frames(ae, flow, block)


@pytest.mark.parametrize("empty", [[], np.empty((0, FRAME_SIDE, FRAME_SIDE))],
                         ids=["list", "array"])
def test_zero_frames_score_to_an_empty_array(models, empty):
    ae, flow = models
    scores = score_frames(ae, flow, empty, COMBINED)
    assert scores.dtype == np.float64 and scores.shape == (0,)


def test_combined_without_standardization_rejected(models, frames):
    ae, flow = models
    with pytest.raises(ConfigError):
        score_frames(ae, flow, frames[:2], ScoreConfig(mode="combined"))


def test_flow_of_other_dim_rejected(models, frames):
    ae, _ = models
    flow = init_flow(RngStream(12), LATENT + 2, num_layers=2, hidden=16)
    with pytest.raises(ConfigError, match=f"latent_dim {LATENT} does not match flow "
                                          f"dimension {LATENT + 2}"):
        score_frames(ae, flow, frames[:2])


def test_non_finite_flow_raises_scoring_error(frames):
    ae = init_autoencoder(RngStream(11), LATENT)
    flow = init_flow(RngStream(12), LATENT, num_layers=4, hidden=16)
    flow.params()[0][...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ScoringError):
        score_frames(ae, flow, frames[:3])


@pytest.mark.parametrize("values", [(0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, -2.0),
                                    (np.nan, 1.0, 0.0, 1.0), (0.0, 1.0, np.inf, 1.0)],
                         ids=["zero_nll_std", "negative_recon_std", "nan_mean",
                              "inf_mean"])
def test_standardization_rejects_bad_spread(values):
    """ScoreStandardization owns its rule: finite values, positive stds."""
    with pytest.raises(ConfigError, match="score standardization"):
        ScoreStandardization(*values)


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
    path = root / "checkpoint.fwc"
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
    flats = as_intensities(dataset.val.pixels).reshape(len(dataset.val), -1)
    recon = reconstruction_error(ae, flats, encode_batch(ae, flats))
    nll = score_frames(ae, flow, dataset.val, ScoreConfig(mode="nll"))
    for values, mean, sd in ((recon, std.recon_mean, std.recon_std),
                             (nll, std.nll_mean, std.nll_std)):
        z = (values - mean) / sd
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9


def test_split_frames_and_array_score_alike(combined_run, monkeypatch):
    """A loaded Split, its raw (n, 64, 64) codes, their intensities and a
    list of Frames built from those give bit-equal scores.  The Split is
    read in place, not copied, and each block of its flats is made in one
    float64 buffer that every block reuses."""
    dataset, trained, _ = combined_run
    split = dataset.test
    ae, flow, config = trained.autoencoder, trained.flow, trained.score_config
    assert config.mode == "combined"
    monkeypatch.setattr(autoencoder, "SCORE_BLOCK_ROWS", 4)
    encoded = []

    def recording(ae, flats):
        encoded.append(flats)
        return encode_batch(ae, flats)

    monkeypatch.setattr(scoring, "encode_batch", recording)
    scores = score_frames(ae, flow, split, config)
    assert len(encoded) == -(-len(split) // 4)
    assert all(flats.dtype == np.float64 and np.shares_memory(flats, encoded[0])
               for flats in encoded)
    assert np.shares_memory(np.asarray(split), split.pixels)
    pixels = as_intensities(split.pixels)
    for frames in (split.pixels, pixels, [Frame(p) for p in pixels]):
        assert np.array_equal(score_frames(ae, flow, frames, config), scores)


def test_nll_scoring_never_decodes(combined_run, monkeypatch):
    """In nll mode a trained pipeline scores a Split, and one frame's codes
    as simulate passes them, without the reconstruction error or the
    decoder: with both made to raise, the scores are the unpatched ones."""
    dataset, trained, _ = combined_run
    ae, flow = trained.autoencoder, trained.flow
    config = dataclasses.replace(trained.score_config, mode="nll")
    split = dataset.test

    def score():
        return (score_frames(ae, flow, split, config),
                [score_frames(ae, flow, codes[None], config) for codes in split.pixels])

    expected_batch, expected_singles = score()

    def decoding(*args, **kwargs):
        raise AssertionError("nll scoring decoded")

    monkeypatch.setattr(scoring, "reconstruction_error", decoding)
    monkeypatch.setattr(ae.decoder, "forward", decoding)
    batch, singles = score()
    assert np.array_equal(batch, expected_batch)
    assert all(map(np.array_equal, singles, expected_singles))


@pytest.mark.parametrize("mode", ["nll", "combined"])
def test_train_pipeline_encodes_each_split_once(tmp_path, monkeypatch, mode):
    """Training encodes train and val once each and decodes val once; the
    validation scores it derives from those latents are the ones
    score_frames gives."""
    spec = SynthSpec(seed=3, n_train=10, n_val=7, n_test_normal=3,
                     n_per_anomaly={"dim_light": 1, "blob": 1, "sensor_noise": 1})
    dataset = generate_scenario(spec, tmp_path / "scen")
    config = RunConfig.from_dict({
        "seed": 3, "score_mode": mode,
        "autoencoder": {"epochs": 1, "batch_size": 8, "latent_dim": 8},
        "flow": {"epochs": 1, "batch_size": 8, "num_layers": 2, "hidden": 8},
    })
    encoded, decoded = [], []

    def counting(calls, fn):
        def wrapper(ae, flats, *rest):
            calls.append(flats.shape[0])
            return fn(ae, flats, *rest)
        return wrapper

    for module in (pipeline, scoring):
        monkeypatch.setattr(module, "encode_batch", counting(encoded, encode_batch))
        monkeypatch.setattr(module, "reconstruction_error",
                            counting(decoded, reconstruction_error))
    trained = train_pipeline(dataset, config)
    assert sorted(encoded) == sorted([len(dataset.train), len(dataset.val)])
    assert decoded == [len(dataset.val)]
    monkeypatch.undo()
    assert np.array_equal(trained.val_scores, score_frames(
        trained.autoencoder, trained.flow, dataset.val, trained.score_config))


def test_train_pipeline_reads_each_split_in_blocks(tmp_path, monkeypatch):
    """After the autoencoder has trained, training encodes each split and
    decodes the val split in blocks of at most SCORE_BLOCK_ROWS rows, in
    order, whose rows add up to the split, never the whole split at once.
    Its val scores, whose NLL it takes in one flow call, equal those that
    scoring the val split takes block by block, in both modes."""
    spec = SynthSpec(seed=3, n_train=10, n_val=7, n_test_normal=3,
                     n_per_anomaly={"dim_light": 1, "blob": 1, "sensor_noise": 1})
    dataset = generate_scenario(spec, tmp_path / "scen")
    monkeypatch.setattr(autoencoder, "SCORE_BLOCK_ROWS", 4)
    calls = []

    def recording(name, fn):
        def wrapper(ae, flats, *rest):
            calls.append((name, flats.shape[0]))
            return fn(ae, flats, *rest)
        return wrapper

    monkeypatch.setattr(pipeline, "encode_batch", recording("encode", encode_batch))
    monkeypatch.setattr(pipeline, "reconstruction_error",
                        recording("decode", reconstruction_error))
    for mode in ("nll", "combined"):
        config = RunConfig.from_dict({
            "seed": 3, "score_mode": mode,
            "autoencoder": {"epochs": 1, "batch_size": 8, "latent_dim": 8},
            "flow": {"epochs": 1, "batch_size": 8, "num_layers": 2, "hidden": 8},
        })
        calls.clear()
        trained = train_pipeline(dataset, config)
        encoded = [rows for name, rows in calls if name == "encode"]
        decoded = [rows for name, rows in calls if name == "decode"]
        assert max(rows for _, rows in calls) <= 4
        assert (len(dataset.train), len(dataset.val)) == (10, 7)
        assert encoded == [3, 3, 4, 3, 4] and decoded == [3, 4]
        deployed = score_frames(trained.autoencoder, trained.flow, dataset.val,
                                trained.score_config)
        assert np.array_equal(trained.val_scores, deployed)
