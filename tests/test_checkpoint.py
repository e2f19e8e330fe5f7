import base64
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framewatch import checkpoint as ckpt
from framewatch.autoencoder import encode_batch, init_autoencoder
from framewatch.cli import main
from framewatch.data_io import FRAME_SIDE, Frame
from framewatch.errors import CheckpointError, ConfigError
from framewatch.flow import flow_log_prob_batch, init_flow
from framewatch.pipeline import RunConfig
from framewatch.rng import RngStream
from framewatch.scoring import ScoreConfig, ScoreStandardization, score_frames
from framewatch.synth import SynthSpec, generate_scenario


def _frame(seed):
    pixels = RngStream(seed).uniform(FRAME_SIDE * FRAME_SIDE).reshape(
        FRAME_SIDE, FRAME_SIDE)
    return Frame(pixels)


def _reload(tmp_path, ae, flow, score_config=None):
    """Save a pipeline checkpoint and load it back:
    (ae, flow, score_config, threshold)."""
    path = tmp_path / "pipeline.json"
    ckpt.save_json(ckpt.pipeline_to_dict(ae, flow, score_config or ScoreConfig(),
                                         threshold=3.5, threshold_quantile=0.99),
                   path)
    return ckpt.pipeline_from_dict(ckpt.load_json(path))


def test_autoencoder_round_trip_bit_exact(tmp_path):
    model = init_autoencoder(RngStream(1), 16)
    flow = init_flow(RngStream(3), 16, num_layers=4, hidden=16)
    reloaded, _, _, _ = _reload(tmp_path, model, flow)
    flats = _frame(2).flat()[None, :]
    assert np.array_equal(encode_batch(model, flats), encode_batch(reloaded, flats))


def test_flow_round_trip_bit_exact(tmp_path):
    ae = init_autoencoder(RngStream(1), 16)
    flow = init_flow(RngStream(3), 16, num_layers=4, hidden=16)
    _, reloaded, _, _ = _reload(tmp_path, ae, flow)
    latent = RngStream(4).gaussian(16)[None, :]
    assert flow_log_prob_batch(flow, latent)[0] == flow_log_prob_batch(reloaded, latent)[0]


def test_flow_round_trip_keeps_each_layer_clamp(tmp_path):
    """Each coupling layer's own scale clamp survives the round trip, so
    log-probs match bit for bit; one shared clamp would change them."""
    ae = init_autoencoder(RngStream(1), 4, input_dim=16, hidden=(8,))
    flow = init_flow(RngStream(3), 4, num_layers=2, hidden=8)
    flow.layers[1].scale_clamp = 0.5
    _, reloaded, _, _ = _reload(tmp_path, ae, flow)
    assert [layer.scale_clamp for layer in reloaded.layers] == [3.0, 0.5]
    latents = 3.0 * RngStream(4).gaussian(8 * 4).reshape(8, 4)
    assert np.array_equal(flow_log_prob_batch(flow, latents),
                          flow_log_prob_batch(reloaded, latents))


def test_pipeline_round_trip_score_identical(tmp_path):
    ae = init_autoencoder(RngStream(5), 16)
    flow = init_flow(RngStream(6), 16, num_layers=2, hidden=16)
    score_cfg = ScoreConfig(mode="nll",
                            standardization=ScoreStandardization(1.0, 2.0, 0.1, 0.2))
    ae2, flow2, cfg2, tau = _reload(tmp_path, ae, flow, score_cfg)
    assert tau == 3.5
    frame = _frame(8)
    assert score_frames(ae, flow, [frame])[0] == score_frames(ae2, flow2, [frame])[0]


def test_wrong_kind_rejected():
    flow = init_flow(RngStream(3), 8, num_layers=2, hidden=8)
    data = ckpt.flow_to_dict(flow)
    with pytest.raises(CheckpointError, match="model_kind"):
        ckpt.pipeline_from_dict(data)


def test_wrong_version_rejected():
    data = _small_pipeline_dict()
    data["format_version"] = 99
    with pytest.raises(CheckpointError, match="format_version"):
        ckpt.pipeline_from_dict(data)


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
    flow = init_flow(RngStream(10), 8, num_layers=2, hidden=8)
    reloaded, _, _, _ = _reload(tmp_path, model, flow)
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
    "string_dimension": _set(*ENC, "layer_dims", 0, "16"),
    "decoder_dims_mismatch": _set("autoencoder", "decoder", "layer_dims", 0, 5),
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
    "v2_file": _set("format_version", 2),
    "v3_file": _set("format_version", 3),
    "quantile_of_one": _set("threshold_quantile", 1.0),
    "quantile_of_zero": _set("threshold_quantile", 0),
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


def test_each_fact_stored_once():
    """The version and kind appear only at the top level, the dims only as
    layer_dims, and no training record (train_config, seed) at all: the
    run config and its seed live in train_report.json."""
    data = _small_pipeline_dict()
    paths = list(_json_paths(data))
    keys = [p[-1] for p in paths]
    for key in ("format_version", "model_kind"):
        assert [p for p in paths if p[-1] == key] == [(key,)]
    for key in ("latent_dim", "input_dim", "train_config", "seed"):
        assert key not in keys
    assert data["format_version"] == 4


def test_save_json_bytes_match_json_dumps(tmp_path):
    data = _small_pipeline_dict()
    data["note"] = ["\u00e9", -0.0, 5e-324, {"b": None, "a": [True, 1.5e300]}]
    path = tmp_path / "checkpoint.json"
    ckpt.save_json(data, path)
    expected = json.dumps(data, indent=1, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# Exit-code contract of checkpoint loading, probed with mutated checkpoints.
# Each example is one of the hand-picked cases above, or the small valid
# checkpoint with one mutation: a key or list entry dropped, a value swapped
# for one of another JSON type, a base64 array string truncated, or a mask
# bit set to 0.5. `simulate` must reject it with exit 5 and one stderr line.

ARRAY_KEYS = {"weights", "biases", "masks", "whitening_mean", "whitening_std"}
HAND_PICKED = sorted([*MALFORMED, *RAW_MALFORMED])


def _json_paths(data, prefix=()):
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        path = prefix + (key,)
        yield path
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, path)


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _json_type(value):
    for name, types in (("bool", bool), ("number", (int, float)), ("string", str),
                        ("list", list), ("object", dict)):
        if isinstance(value, types):
            return name
    return "null"


JSON_VALUES = {
    "null": st.none(), "bool": st.booleans(),
    "number": st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0)),
    "string": st.text(max_size=4), "list": st.lists(st.integers(-3, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
}
VALID_PIPELINE = _small_pipeline_dict()
LATENT_DIM = VALID_PIPELINE["autoencoder"]["encoder"]["layer_dims"][-1]
PATHS = list(_json_paths(VALID_PIPELINE))
ARRAY_PATHS = [p for p in PATHS if ARRAY_KEYS & set(p[-2:])
               and isinstance(_at(VALID_PIPELINE, p), str)]


@st.composite
def _mutations(draw):
    """A short description of one malformed checkpoint; _checkpoint_bytes
    builds it."""
    kind = draw(st.sampled_from(["hand_picked", "drop", "other_type", "truncate",
                                 "mask_half"]))
    if kind == "hand_picked":
        return kind, draw(st.sampled_from(HAND_PICKED))
    if kind == "mask_half":
        masks = VALID_PIPELINE["flow"]["masks"]
        return (kind, draw(st.integers(0, len(masks) - 1)),
                draw(st.integers(0, LATENT_DIM - 1)))
    path = draw(st.sampled_from(ARRAY_PATHS if kind == "truncate" else PATHS))
    value = _at(VALID_PIPELINE, path)
    if kind == "drop":
        return kind, path
    if kind == "truncate":
        return kind, path, draw(st.integers(0, len(value) - 1))
    others = sorted(set(JSON_VALUES) - {_json_type(value)})
    return kind, path, draw(JSON_VALUES[draw(st.sampled_from(others))])


def _checkpoint_bytes(mutation) -> bytes:
    kind, *args = mutation
    if kind == "hand_picked" and args[0] in RAW_MALFORMED:
        return RAW_MALFORMED[args[0]]
    data = copy.deepcopy(VALID_PIPELINE)
    if kind == "hand_picked":
        MALFORMED[args[0]](data)
    elif kind == "mask_half":
        k, i = args
        masks = data["flow"]["masks"]
        mask = np.frombuffer(base64.b64decode(masks[k]), dtype="<f8").copy()
        mask[i] = 0.5
        masks[k] = _b64(mask)
    else:
        path = args[0]
        parent, key = _at(data, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "truncate":
            parent[key] = parent[key][:args[1]]
        else:
            parent[key] = args[1]
    return json.dumps(data).encode()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutations())
def test_mutated_checkpoint_exits_5(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        path.write_bytes(_checkpoint_bytes(mutation))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--checkpoint", str(path),
                         "--scenario", str(Path(tmp) / "frames"),
                         "--out", str(Path(tmp) / "out")])
    assert code == 5
    assert err.getvalue().startswith("checkpoint error: ")
    assert err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# Each rule has one check, and every entry point reports that check.

@pytest.mark.parametrize("mode, alpha", [("max", 0.5), ("nll", 2.0), ("combined", -0.5)])
def test_score_settings_checked_by_score_config(mode, alpha):
    """ScoreConfig, the run config and the checkpoint reader reject the same
    bad score_mode or score_alpha with ScoreConfig's message."""
    with pytest.raises(ConfigError) as direct:
        ScoreConfig(mode=mode, alpha=alpha)
    message = str(direct.value)
    assert ("score_mode" if mode == "max" else "score_alpha") in message
    with pytest.raises(ConfigError) as run:
        RunConfig.from_dict({"score_mode": mode, "score_alpha": alpha})
    assert str(run.value) == message
    data = {**_small_pipeline_dict(), "score_mode": mode, "score_alpha": alpha}
    with pytest.raises(CheckpointError) as loaded:
        ckpt.pipeline_from_dict(data)
    assert str(loaded.value) == f"checkpoint: {message}"


@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_checkpoint_for_other_frame_size_exits_5(tmp_path, capsys, command):
    """A valid checkpoint whose autoencoder reads 16 inputs, not the 4096
    pixels of a frame, exits 5 in both commands that score frames."""
    path = tmp_path / "checkpoint.json"
    ckpt.save_json(_small_pipeline_dict(), path)
    generate_scenario(SynthSpec(seed=1, n_train=1, n_val=1, n_test_normal=1,
                                n_per_anomaly={"blob": 1}), tmp_path / "scen")
    scenario = tmp_path / "scen" / ("test" if command == "simulate" else "")
    code = main([command, "--checkpoint", str(path), "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("checkpoint error: ") and err.count("\n") == 1
    assert "input_dim 16" in err
