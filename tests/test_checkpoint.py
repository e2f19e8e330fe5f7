import base64
import json

import numpy as np
import pytest

from framewatch import checkpoint as ckpt
from framewatch.autoencoder import AutoencoderConfig, init_autoencoder
from framewatch.cli import main
from framewatch.data_io import FRAME_SIDE, Frame
from framewatch.errors import CheckpointError
from framewatch.flow import FlowConfig, flow_log_prob, init_flow
from framewatch.rng import RngStream
from framewatch.scoring import ScoreConfig, ScoreStandardization, anomaly_score


def _frame(seed):
    pixels = RngStream(seed).uniform(FRAME_SIDE * FRAME_SIDE).reshape(
        FRAME_SIDE, FRAME_SIDE)
    return Frame(pixels)


def test_autoencoder_round_trip_bit_exact(tmp_path):
    model = init_autoencoder(RngStream(1), 16)
    path = tmp_path / "ae.json"
    ckpt.save_json(ckpt.autoencoder_to_dict(model, AutoencoderConfig(seed=1)), path)
    reloaded = ckpt.autoencoder_from_dict(ckpt.load_json(path))
    frame = _frame(2)
    from framewatch.autoencoder import encode
    assert np.array_equal(encode(model, frame), encode(reloaded, frame))


def test_flow_round_trip_bit_exact(tmp_path):
    flow = init_flow(RngStream(3), 16, num_layers=4, hidden=16)
    path = tmp_path / "flow.json"
    ckpt.save_json(ckpt.flow_to_dict(flow, FlowConfig(seed=3)), path)
    reloaded = ckpt.flow_from_dict(ckpt.load_json(path))
    latent = RngStream(4).gaussian(16)
    assert flow_log_prob(flow, latent) == flow_log_prob(reloaded, latent)


def test_pipeline_round_trip_score_identical(tmp_path):
    ae = init_autoencoder(RngStream(5), 16)
    flow = init_flow(RngStream(6), 16, num_layers=2, hidden=16)
    score_cfg = ScoreConfig(mode="nll",
                            standardization=ScoreStandardization(1.0, 2.0, 0.1, 0.2))
    data = ckpt.pipeline_to_dict(ae, flow, score_cfg, threshold=3.5,
                                 threshold_quantile=0.99, seed=7)
    path = tmp_path / "pipeline.json"
    ckpt.save_json(data, path)
    ae2, flow2, cfg2, tau = ckpt.pipeline_from_dict(ckpt.load_json(path))
    assert tau == 3.5
    frame = _frame(8)
    assert anomaly_score(ae, flow, frame) == anomaly_score(ae2, flow2, frame)


def test_wrong_kind_rejected():
    flow = init_flow(RngStream(3), 8, num_layers=2, hidden=8)
    data = ckpt.flow_to_dict(flow)
    with pytest.raises(CheckpointError, match="model_kind"):
        ckpt.autoencoder_from_dict(data)


def test_wrong_version_rejected():
    flow = init_flow(RngStream(3), 8, num_layers=2, hidden=8)
    data = ckpt.flow_to_dict(flow)
    data["format_version"] = 99
    with pytest.raises(CheckpointError, match="format_version"):
        ckpt.flow_from_dict(data)


def test_latent_dim_mismatch_rejected():
    ae = init_autoencoder(RngStream(5), 16)
    flow = init_flow(RngStream(6), 8, num_layers=2, hidden=8)
    data = ckpt.pipeline_to_dict(ae, flow, ScoreConfig(), 1.0, 0.99)
    with pytest.raises(CheckpointError, match="latent_dim"):
        ckpt.pipeline_from_dict(data)


def test_corrupt_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="line 1"):
        ckpt.load_json(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        ckpt.load_json(tmp_path / "nope.json")


def test_serialized_floats_round_trip_exactly(tmp_path):
    model = init_autoencoder(RngStream(9), 8)
    planted = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).max]
    model.encoder.layers[0].weights[0, :4] = planted
    model.decoder.layers[-1].bias[:4] = planted
    path = tmp_path / "ae.json"
    ckpt.save_json(ckpt.autoencoder_to_dict(model), path)
    reloaded = ckpt.autoencoder_from_dict(json.loads(path.read_text()))
    for a, b in zip(model.params(), reloaded.params()):
        assert b.dtype == np.float64 and b.flags.owndata and b.flags.writeable
        assert b.flags.c_contiguous
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _small_pipeline_dict():
    ae = init_autoencoder(RngStream(5), 4, input_dim=16, hidden=(8,))
    flow = init_flow(RngStream(6), 4, num_layers=2, hidden=4)
    score_cfg = ScoreConfig(mode="nll",
                            standardization=ScoreStandardization(1.0, 2.0, 0.1, 0.2))
    return ckpt.pipeline_to_dict(ae, flow, score_cfg, threshold=3.5,
                                 threshold_quantile=0.99)


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return mutate


def _delete(*keys):
    def mutate(data):
        for key in keys[:-1]:
            data = data[key]
        del data[keys[-1]]
    return mutate


ENC = ("autoencoder", "encoder")
MALFORMED = {
    "missing_key": _delete(*ENC, "weights"),
    "short_weight_array": _set(*ENC, "weights", 0, _b64(np.ones(16 * 8 - 1))),
    "weights_list_too_short": _set(*ENC, "weights", [_b64(np.ones(16 * 8))]),
    "unknown_activation": _set(*ENC, "activations", 0, "relu6"),
    "list_as_activation": _set(*ENC, "activations", 0, ["tanh"]),
    "string_dimension": _set("flow", "latent_dim", "4"),
    "nan_weight": _set(*ENC, "weights", 0, _b64([np.nan] * (16 * 8))),
    "unknown_score_mode": _set("score_mode", "max"),
    "alpha_out_of_range": _set("score_alpha", 2.0),
    "invalid_base64": _set(*ENC, "biases", 0, "not base64!"),
    "decoded_length_mismatch": _set("flow", "whitening_mean", _b64(np.zeros(5))),
    "non_finite_whitening": _set("flow", "whitening_std", _b64([1.0, np.inf, 1.0, 1.0])),
    "non_finite_threshold": _set("threshold", float("inf")),
    "threshold_beyond_float_range": _set("threshold", 10 ** 400),
    "all_one_mask": _set("flow", "masks", 0, _b64(np.ones(4))),
    "standardization_missing_key": _delete("score_standardization", "nll_std"),
    "v1_file": _set("format_version", 1),
    "v1_nested_autoencoder": _set("autoencoder", "format_version", 1),
}


RAW_MALFORMED = {
    "array_root": b"[]",
    "not_utf8": b'{"format_version": "\xff"}',
    "overlong_integer": b'{"threshold": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("case", [*MALFORMED, *RAW_MALFORMED])
def test_malformed_checkpoint_exits_5(tmp_path, capsys, case):
    path = tmp_path / "checkpoint.json"
    if case in RAW_MALFORMED:
        path.write_bytes(RAW_MALFORMED[case])
    else:
        data = _small_pipeline_dict()
        MALFORMED[case](data)
        ckpt.save_json(data, path)
    code = main(["simulate", "--checkpoint", str(path),
                 "--scenario", str(tmp_path / "frames"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("checkpoint error: ") and err.count("\n") == 1


def test_small_pipeline_checkpoint_is_valid():
    ckpt.pipeline_from_dict(_small_pipeline_dict())
