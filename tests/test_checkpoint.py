import contextlib
import copy
import functools
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framewatch import checkpoint as ckpt
from framewatch import cli
from framewatch.autoencoder import encode_batch, init_autoencoder
from framewatch.cli import main
from framewatch.data_io import FRAME_SIDE, Frame
from framewatch.errors import CheckpointError, ConfigError, IOFailure
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
    path = tmp_path / "pipeline.fwc"
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


def _container(header: bytes, payload: bytes = b"") -> bytes:
    """A checkpoint file around raw `header` bytes, padded as save_json pads."""
    header += b" " * (-(len(ckpt.MAGIC) + 8 + len(header)) % 8)
    return ckpt.MAGIC + struct.pack("<Q", len(header)) + header + payload


def test_corrupt_json_reports_position(tmp_path):
    path = tmp_path / "bad.fwc"
    path.write_bytes(_container(b"{not json"))
    with pytest.raises(CheckpointError, match="line 1"):
        ckpt.load_json(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(IOFailure, match="does not exist"):
        ckpt.load_json(tmp_path / "nope.fwc")
    with pytest.raises(IOFailure, match="is not a file"):
        ckpt.load_json(tmp_path)


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
    "short_weight_array": _set(*ENC, "weights", 0, np.ones(16 * 8 - 1)),
    "transposed_weights": _set(*ENC, "weights", 0, np.ones((16, 8))),
    "weights_list_too_short": _set(*ENC, "weights", [np.ones((8, 16))]),
    "unknown_activation": _set(*ENC, "activations", 0, "relu6"),
    "list_as_activation": _set(*ENC, "activations", 0, ["tanh"]),
    "string_as_array": _set(*ENC, "biases", 0, "not an array"),
    "decoder_dims_mismatch": _set("autoencoder", "decoder", "weights", 0,
                                  np.ones((8, 5))),
    "full_width_coupling_input": _set("flow", "scale_nets", 0, "weights", 0,
                                      np.ones((4, 4))),
    "sigmoid_coupling_hidden": _set("flow", "shift_nets", 1, "activations", 0,
                                    "sigmoid"),
    "nan_weight": _set(*ENC, "weights", 0, np.full((8, 16), np.nan)),
    "unknown_score_mode": _set("score_mode", "max"),
    "alpha_out_of_range": _set("score_alpha", 2.0),
    "decoded_length_mismatch": _set("flow", "whitening_mean", np.zeros(5)),
    "non_finite_whitening": _set("flow", "whitening_std",
                                 np.array([1.0, np.inf, 1.0, 1.0])),
    "non_finite_threshold": _set("threshold", float("inf")),
    "threshold_beyond_float_range": _set("threshold", 10 ** 400),
    "standardization_missing_key": _delete("score_standardization", "nll_std"),
    "v1_file": _set("format_version", 1),
    "v2_file": _set("format_version", 2),
    "v3_file": _set("format_version", 3),
    "v4_file": _set("format_version", 4),
    "v5_file": _set("format_version", 5),
    "quantile_of_one": _set("threshold_quantile", 1.0),
    "quantile_of_zero": _set("threshold_quantile", 0),
}


def _split(raw: bytes):
    """(header, payload) of a checkpoint file: the header as plain JSON."""
    start = len(ckpt.MAGIC) + 8
    (length,) = struct.unpack_from("<Q", raw, len(ckpt.MAGIC))
    return json.loads(raw[start:start + length]), raw[start + length:]


def _is_entry(value):
    return isinstance(value, dict) and value.keys() == {"shape", "offset"}


def _edit_header(edit):
    """A byte-level case: the valid file with `edit` applied to the list of
    its header's array entries, in header order."""
    def apply(raw):
        header, payload = _split(raw)
        values = [_at(header, path) for path in _json_paths(header)]
        edit([v for v in values if _is_entry(v)])
        return _container(json.dumps(header).encode(), payload)
    return apply


def _transpose_first_matrix(entries):
    entry = next(e for e in entries if len(set(e["shape"])) == 2)
    entry["shape"].reverse()


def _with_length(length):
    def apply(raw):
        at = len(ckpt.MAGIC)
        return raw[:at] + struct.pack("<Q", length(raw)) + raw[at + 8:]
    return apply


def _nan_payload(raw):
    _, payload = _split(raw)
    return raw[:len(raw) - len(payload)] + struct.pack("<d", np.nan) + payload[8:]


def _entry(index, **values):
    return lambda entries: entries[index].update(values)


def _swap_equal_arrays(entries):
    """Swap the offsets of the first two arrays of one shape: the arrays
    still tile the payload, but not in header order."""
    a, b = next((a, b) for i, a in enumerate(entries) for b in entries[i + 1:]
                if a["shape"] == b["shape"])
    a["offset"], b["offset"] = b["offset"], a["offset"]


def _shift(index, delta):
    return lambda entries: entries[index].update(offset=entries[index]["offset"] + delta)


# Byte-level cases: each maps the bytes of the small valid file to a
# malformed file.
RAW_MALFORMED = {
    "array_root": lambda raw: _container(b"[]"),
    "not_utf8": lambda raw: _container(b'{"format_version": "\xff"}'),
    "overlong_integer": lambda raw: _container(b'{"threshold": ' + b"1" * 5000 + b"}"),
    "deeply_nested_header": lambda raw: _container(b"[" * 100_000),
    "flipped_magic": lambda raw: bytes([raw[0] ^ 0x20]) + raw[1:],
    "format_4_json": lambda raw: json.dumps(
        {"format_version": 4, "model_kind": "pipeline"}, indent=1).encode(),
    "empty_file": lambda raw: b"",
    "cut_in_header_length": lambda raw: raw[:len(ckpt.MAGIC) + 3],
    "truncated_payload": lambda raw: raw[:-8],
    "trailing_bytes": lambda raw: raw + bytes(8),
    "header_length_past_eof": _with_length(lambda raw: len(raw)),
    "header_length_huge": _with_length(lambda raw: 2 ** 64 - 1),
    "unaligned_payload": lambda raw: ckpt.MAGIC + struct.pack("<Q", 3) + b"{} ",
    "overlapping_offsets": _edit_header(_shift(1, -8)),
    "gap_between_arrays": _edit_header(_shift(1, 8)),
    "offsets_out_of_header_order": _edit_header(_swap_equal_arrays),
    "misaligned_offset": _edit_header(_entry(0, offset=4)),
    "negative_offset": _edit_header(_entry(0, offset=-8)),
    "offset_past_payload": _edit_header(_shift(-1, 2 ** 20)),
    "float_offset": _edit_header(_entry(0, offset=0.0)),
    "negative_dimension": _edit_header(_entry(0, shape=[-8])),
    "string_dimension": _edit_header(_entry(0, shape=["8", 16])),
    "shape_not_a_list": _edit_header(_entry(0, shape=8)),
    "too_many_dimensions": _edit_header(_entry(0, shape=[1] * 65)),
    "header_shape_disagrees_with_layer_dims": _edit_header(_transpose_first_matrix),
    "nan_in_payload": _nan_payload,
}


@functools.cache
def _valid_file() -> bytes:
    """The bytes of the small valid pipeline checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.fwc"
        ckpt.save_json(_small_pipeline_dict(), path)
        return path.read_bytes()


def _simulate(path, tmp):
    """(exit code, stderr) of `simulate` on the checkpoint at `path`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--checkpoint", str(path),
                     "--scenario", str(Path(tmp) / "frames"),
                     "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("case", [*MALFORMED, *RAW_MALFORMED])
def test_malformed_checkpoint_exits_5(tmp_path, case):
    path = tmp_path / "checkpoint.fwc"
    if case in RAW_MALFORMED:
        path.write_bytes(RAW_MALFORMED[case](_valid_file()))
    else:
        data = _small_pipeline_dict()
        MALFORMED[case](data)
        ckpt.save_json(data, path)
    code, err = _simulate(path, tmp_path)
    assert code == 5
    assert err.startswith("checkpoint error: ") and err.count("\n") == 1
    if case in ("format_4_json", "v4_file", "v5_file"):
        assert "retrain" in err


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_checkpoint_path_not_a_file_exits_3(tmp_path, capsys, target):
    """A --checkpoint path with no file behind it is an I/O error, like a
    missing --config or --scenario."""
    path = tmp_path / "checkpoint.fwc"
    if target == "directory":
        path.mkdir()
    assert main(["eval", "--checkpoint", str(path), "--scenario", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: checkpoint file ") and err.count("\n") == 1


def test_small_pipeline_checkpoint_is_valid():
    ckpt.pipeline_from_dict(_small_pipeline_dict())


def test_each_fact_stored_once():
    """The version and kind appear only at the top level, the dims only as
    array shapes, a coupling layer's parity only as its index, and no
    training record (train_config, seed) at all: the run config and its
    seed live in train_report.json."""
    data = _small_pipeline_dict()
    paths = list(_json_paths(data))
    keys = [p[-1] for p in paths]
    for key in ("format_version", "model_kind"):
        assert [p for p in paths if p[-1] == key] == [(key,)]
    for key in ("latent_dim", "input_dim", "layer_dims", "masks", "train_config",
                "seed"):
        assert key not in keys
    assert data["format_version"] == 6


def test_file_is_header_then_raw_arrays():
    """After the magic, the length and the header come the arrays' `<f8`
    bytes, back to back in header order, and nothing else."""
    raw = _valid_file()
    assert raw.startswith(ckpt.MAGIC)
    header, payload = _split(raw)
    assert (len(raw) - len(payload)) % 8 == 0
    paths = [p for p in _json_paths(header) if _is_entry(_at(header, p))]
    arrays = [_at(VALID_PIPELINE, p) for p in paths]
    assert len(arrays) == sum(isinstance(_at(VALID_PIPELINE, p), np.ndarray)
                              for p in PATHS)
    assert [_at(header, p) for p in paths] == [
        {"offset": offset, "shape": list(a.shape)} for offset, a in
        zip(np.cumsum([0] + [a.nbytes for a in arrays[:-1]]).tolist(), arrays)]
    assert payload == b"".join(a.astype("<f8").tobytes() for a in arrays)


def test_two_saves_of_one_tree_are_identical(tmp_path):
    data = _small_pipeline_dict()
    ckpt.save_json(data, tmp_path / "a.fwc")
    ckpt.save_json(copy.deepcopy(data), tmp_path / "b.fwc")
    assert (tmp_path / "a.fwc").read_bytes() == (tmp_path / "b.fwc").read_bytes()


# ---------------------------------------------------------------------------
# Exit-code contract of checkpoint loading, probed with mutated checkpoints.
# Each example is one of the hand-picked cases above; or the small valid
# tree with one mutation (a key or list entry dropped, a value swapped for
# one of another JSON type, or an array flattened and truncated), then
# saved; or the small valid file with a byte-level
# mutation (cut short, extended, or given another header length).
# `simulate` must reject it with exit 5 and one stderr line.

ARRAY_KEYS = {"weights", "biases", "whitening_mean", "whitening_std"}
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
                        ("list", list), ("object", dict), ("array", np.ndarray)):
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
PATHS = list(_json_paths(VALID_PIPELINE))
ARRAY_PATHS = [p for p in PATHS if ARRAY_KEYS & set(p[-2:])
               and isinstance(_at(VALID_PIPELINE, p), np.ndarray)]


@st.composite
def _mutations(draw):
    """A short description of one malformed checkpoint; _write_checkpoint
    builds it."""
    kind = draw(st.sampled_from(["hand_picked", "drop", "other_type", "truncate",
                                 "cut", "append", "length"]))
    if kind == "hand_picked":
        return kind, draw(st.sampled_from(HAND_PICKED))
    if kind in ("cut", "append", "length"):
        size = len(_valid_file())
        (length,) = struct.unpack_from("<Q", _valid_file(), len(ckpt.MAGIC))
        return kind, draw({"cut": st.integers(0, size - 1),
                           "append": st.binary(min_size=1, max_size=16),
                           "length": st.integers(0, size).filter(
                               lambda n: n != length)}[kind])
    path = draw(st.sampled_from(ARRAY_PATHS if kind == "truncate" else PATHS))
    value = _at(VALID_PIPELINE, path)
    if kind == "drop":
        return kind, path
    if kind == "truncate":
        return kind, path, draw(st.integers(0, value.size - 1))
    others = sorted(set(JSON_VALUES) - {_json_type(value)})
    return kind, path, draw(JSON_VALUES[draw(st.sampled_from(others))])


def _write_checkpoint(mutation, path: Path) -> None:
    kind, *args = mutation
    raw = _valid_file()
    if kind == "hand_picked" and args[0] in RAW_MALFORMED:
        path.write_bytes(RAW_MALFORMED[args[0]](raw))
        return
    if kind in ("cut", "append", "length"):
        arg = args[0]
        path.write_bytes({"cut": lambda: raw[:arg], "append": lambda: raw + arg,
                          "length": lambda: _with_length(lambda _: arg)(raw)}[kind]())
        return
    data = copy.deepcopy(VALID_PIPELINE)
    if kind == "hand_picked":
        MALFORMED[args[0]](data)
    else:
        path_in_tree = args[0]
        parent, key = _at(data, path_in_tree[:-1]), path_in_tree[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "truncate":
            parent[key] = parent[key].ravel()[:args[1]]
        else:
            parent[key] = args[1]
    ckpt.save_json(data, path)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutations())
def test_mutated_checkpoint_exits_5(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.fwc"
        _write_checkpoint(mutation, path)
        code, err = _simulate(path, tmp)
    assert code == 5
    assert err.startswith("checkpoint error: ")
    assert err.count("\n") == 1


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
    path = tmp_path / "checkpoint.fwc"
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


def test_eval_rejects_other_frame_size_before_loading_scenario(tmp_path, capsys,
                                                              monkeypatch):
    """eval checks the checkpoint's input_dim before it decodes a scenario."""
    def load_scenario(root):
        raise AssertionError("load_scenario called before the frame-size check")

    monkeypatch.setattr(cli, "load_scenario", load_scenario)
    path = tmp_path / "checkpoint.fwc"
    ckpt.save_json(_small_pipeline_dict(), path)
    assert main(["eval", "--checkpoint", str(path), "--scenario", str(tmp_path / "scen"),
                 "--out", str(tmp_path / "out")]) == 5
    assert "input_dim 16" in capsys.readouterr().err
