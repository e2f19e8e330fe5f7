"""Checkpoints of the full pipeline: autoencoder, flow and scoring.

A checkpoint (`format_version` 7, written by `train` as `checkpoint.fwc`)
is one binary file laid out like a safetensors file: a JSON header that
describes every array, then the arrays' raw bytes.

    magic          the 16 bytes b"FRAMEWATCH CKPT\\n"
    header length  8 bytes, unsigned little-endian
    header         UTF-8 JSON, padded with spaces so the payload starts
                   at a multiple of 8 bytes
    payload        each array's raw little-endian float64 (`<f8`) bytes,
                   back to back in header order

The header is the tree `pipeline_to_dict` returns, with each numpy array
replaced by `{"shape": [...], "offset": n}`, n being the array's byte
offset in the payload.  It holds the networks, each coupling layer's
scale clamp, the score settings, the threshold and the quantile it was
chosen at; loading uses all but the quantile, which is range-checked and
not returned.  Each fact is stored once: `format_version` and
`model_kind` only at the top level, each network's dims only as its
weight shapes, and each coupling layer's clamp only in the flow's
`scale_clamps` list.  The flow's `layers[k]` holds coupling layer k as
the model does, the `w_in`, `b_in`, `w_out` and `b_out` of its stacked
conditioner; its parity is its index k % 2.  How the models were trained
(the run config and its seed) is recorded in `train_report.json`.

The parameters (weights, biases, whitening vectors) are stored as their
own bytes, not as text: base64 would make the file a third larger,
decimals larger still, and either costs a decode of every byte at load.
Loading reads each array straight into a fresh C-contiguous float64
array, so a reloaded model reproduces scores bit-exactly.  Scalars
(clamps, threshold, standardization, alpha) stay JSON numbers.

`load_json` checks the layout before it reads any array: the magic, the
header length against the file size, that each array's offset is the
integer where the array before it ends (so the offsets are 8-byte
aligned and in header order) and in bounds, and that the arrays cover
the payload exactly.  `pipeline_from_dict` then checks the file's own
rules (keys, JSON types, list lengths, each array a float64 array, the
format, kind, threshold and quantile) and builds the types, which check
their own parts: `DenseLayer` its shapes, dtypes, finiteness and non-zero
widths, `Mlp` that its layers chain, `AutoencoderModel` that the decoder
maps latent_dim back to input_dim, `CouplingLayer` its stacked shapes,
halves, finiteness and clamp, `FlowModel` its layers' dim and its finite
whitening vectors with positive std, and `ScoreConfig` and
`ScoreStandardization` the score settings.  Each type's rejection is
reported as a one-line CheckpointError with the key path.  Building a
model has no side effects, so `pipeline_from_dict` returns nothing unless
the whole file passed.
Format 1 to 6 files (JSON documents, then full-width coupling nets with
masks, then each coupling layer split into two per-net entries) are
rejected: retrain to write a format 7 checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderModel
from .errors import CheckpointError, ConfigError, ContractViolationError, IOFailure
from .flow import CouplingLayer, FlowModel
from .nn import Activation, DenseLayer, Mlp
from .scoring import ScoreConfig, ScoreStandardization

FORMAT_VERSION = 7
_COUPLING_KEYS = ("w_in", "b_in", "w_out", "b_out")   # CouplingLayer.params() order
MAGIC = b"FRAMEWATCH CKPT\n"
_LENGTH = struct.Struct("<Q")
_F8 = np.dtype("<f8")


def _array(value, where: str) -> np.ndarray:
    """`value` if it is a float64 array."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
        raise CheckpointError(f"{where}: expected a float64 array")
    return value


def _build(where: str, make, *args):
    """make(*args), the type's rejection of its parts reported as a
    CheckpointError at `where`."""
    try:
        return make(*args)
    except (ContractViolationError, ConfigError) as exc:
        raise CheckpointError(f"{where}: {exc}") from None


def _get(data, key: str, where: str):
    if not isinstance(data, dict):
        raise CheckpointError(f"{where}: expected a JSON object")
    if key not in data:
        raise CheckpointError(f"{where}: missing key {key!r}")
    return data[key]


def _finite(value, where: str) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise CheckpointError(f"{where}: expected a finite number")
    return float(value)


def _number(data, key: str, where: str) -> float:
    return _finite(_get(data, key, where), f"{where}.{key}")


def _list(data, key: str, where: str, length: int) -> list:
    value = _get(data, key, where)
    if not isinstance(value, list) or len(value) != length:
        raise CheckpointError(f"{where}.{key}: expected a list of {length}")
    return value


def _read_mlp(data, where: str) -> Mlp:
    weights = _get(data, "weights", where)
    if not isinstance(weights, list):
        raise CheckpointError(f"{where}.weights: expected a list")
    n = len(weights)
    acts = _list(data, "activations", where, n)
    biases = _list(data, "biases", where, n)
    layers = []
    for i in range(n):
        try:
            act = Activation(acts[i])
        except ValueError:
            raise CheckpointError(
                f"{where}.activations[{i}]: unknown activation {acts[i]!r}") from None
        layers.append(_build(
            f"{where} layer {i}", DenseLayer,
            _array(weights[i], f"{where}.weights[{i}]"),
            _array(biases[i], f"{where}.biases[{i}]"), act))
    return _build(where, Mlp, layers)


def autoencoder_to_dict(model: AutoencoderModel) -> dict:
    return {name: {"activations": [l.activation.value for l in net.layers],
                   "weights": [l.weights for l in net.layers],
                   "biases": [l.bias for l in net.layers]}
            for name, net in (("encoder", model.encoder), ("decoder", model.decoder))}


def _read_autoencoder(data, where: str) -> AutoencoderModel:
    return _build(where, AutoencoderModel,
                  _read_mlp(_get(data, "encoder", where), f"{where}.encoder"),
                  _read_mlp(_get(data, "decoder", where), f"{where}.decoder"))


def flow_to_dict(model: FlowModel) -> dict:
    return {
        "layers": [dict(zip(_COUPLING_KEYS, layer.params())) for layer in model.layers],
        "scale_clamps": [layer.scale_clamp for layer in model.layers],
        "whitening_mean": model.whitening_mean,
        "whitening_std": model.whitening_std,
    }


def _read_flow(data, where: str, dim: int) -> FlowModel:
    """The flow over the autoencoder's `dim` latents; layer k has parity
    k % 2."""
    clamps = _get(data, "scale_clamps", where)
    if not isinstance(clamps, list):
        raise CheckpointError(f"{where}.scale_clamps: expected a list")
    entries = _list(data, "layers", where, len(clamps))
    layers = [_build(f"{where} coupling layer {k}", CouplingLayer, k % 2,
                     *(_array(_get(entry, key, f"{where}.layers[{k}]"),
                              f"{where}.layers[{k}].{key}") for key in _COUPLING_KEYS),
                     _finite(clamps[k], f"{where}.scale_clamps[{k}]"))
              for k, entry in enumerate(entries)]
    return _build(f"{where} over latent_dim {dim}", FlowModel, layers, dim,
                  _array(_get(data, "whitening_mean", where), f"{where}.whitening_mean"),
                  _array(_get(data, "whitening_std", where), f"{where}.whitening_std"))


def pipeline_to_dict(ae: AutoencoderModel, flow: FlowModel,
                     score_config: ScoreConfig, threshold: float,
                     threshold_quantile: float) -> dict:
    """The checkpoint tree.  Its arrays are the models' own, not copies, so
    `save_json` writes each parameter buffer without an intermediate."""
    std = score_config.standardization or ScoreStandardization()
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": "pipeline",
        "autoencoder": autoencoder_to_dict(ae),
        "flow": flow_to_dict(flow),
        "score_mode": score_config.mode,
        "score_alpha": score_config.alpha,
        "score_standardization": asdict(std),
        "threshold": threshold,
        "threshold_quantile": threshold_quantile,
    }


def _read_standardization(data, where: str) -> ScoreStandardization:
    names = [f.name for f in fields(ScoreStandardization)]
    if not isinstance(data, dict) or sorted(data) != sorted(names):
        raise CheckpointError(f"{where}: expected exactly the keys {names}")
    return _build(where, ScoreStandardization,
                  *(_number(data, name, where) for name in names))


def pipeline_from_dict(data: dict):
    """Returns (ae, flow, score_config, threshold)."""
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint: expected a JSON object")
    kind = data.get("model_kind")
    if kind != "pipeline":
        raise CheckpointError(f"checkpoint: expected model_kind 'pipeline', got {kind!r}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint: unsupported format_version {version!r}; this build reads "
            f"only format_version {FORMAT_VERSION}, retrain to write a new checkpoint")
    ae = _read_autoencoder(_get(data, "autoencoder", "checkpoint"),
                           "checkpoint.autoencoder")
    flow = _read_flow(_get(data, "flow", "checkpoint"), "checkpoint.flow",
                      ae.latent_dim)
    quantile = _number(data, "threshold_quantile", "checkpoint")
    if not 0.0 < quantile < 1.0:
        raise CheckpointError("checkpoint.threshold_quantile: must lie in (0, 1)")
    standardization = _read_standardization(
        _get(data, "score_standardization", "checkpoint"),
        "checkpoint.score_standardization")
    score_config = _build("checkpoint", ScoreConfig,
                          _get(data, "score_mode", "checkpoint"),
                          _number(data, "score_alpha", "checkpoint"), standardization)
    return ae, flow, score_config, _number(data, "threshold", "checkpoint")


def _header(tree, arrays: list[np.ndarray]):
    """`tree` with its keys sorted and each numpy array replaced by its
    header entry; the arrays, as C-contiguous `<f8`, are appended to
    `arrays` in header order."""
    if isinstance(tree, np.ndarray):
        offset = sum(a.nbytes for a in arrays)
        arrays.append(np.ascontiguousarray(tree, dtype=_F8))
        return {"offset": offset, "shape": list(tree.shape)}
    if isinstance(tree, dict):
        return {key: _header(tree[key], arrays) for key in sorted(tree)}
    if isinstance(tree, (list, tuple)):
        return [_header(value, arrays) for value in tree]
    return tree


def save_json(data, path: Path | str) -> None:
    """Write the tree `data` as a checkpoint file: each numpy array in it goes
    to the payload as `<f8` bytes, everything else to the JSON header.  The
    bytes depend on `data` alone, so two saves of one tree are identical.
    The file is written beside `path` and then renamed onto it, so a save
    that fails or is killed leaves any previous file at `path` whole."""
    arrays: list[np.ndarray] = []
    header = json.dumps(_header(data, arrays), separators=(",", ":")).encode("ascii")
    header += b" " * (-(len(MAGIC) + _LENGTH.size + len(header)) % _F8.itemsize)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + _LENGTH.pack(len(header)) + header)
            for array in arrays:
                f.write(array)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_header(raw: bytes, path: Path, payload: int, arrays: list[np.ndarray]):
    """The parsed header.  Each array entry becomes an empty `<f8` array,
    appended to `arrays`, once its shape and offset are checked: the offset
    is the integer where the array before it ends (0 for the first, so
    every offset is 8-byte aligned), and the array ends inside the
    `payload` bytes.  The last array must end the payload."""
    end = 0

    def entry(obj: dict):
        nonlocal end
        if obj.keys() != {"shape", "offset"}:
            return obj
        shape, offset = obj["shape"], obj["offset"]
        what = f"checkpoint {path}: array {len(arrays)}"
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise CheckpointError(
                f"{what}: shape must be a list of non-negative integers")
        if type(offset) is not int or offset != end:
            raise CheckpointError(f"{what}: offset must be the integer {end}, where "
                                  f"the array before it ends, got {offset!r}")
        stop = offset + _F8.itemsize * math.prod(shape)
        if stop > payload:
            raise CheckpointError(f"{what}: bytes {offset} to {stop} lie past the end "
                                  f"of the {payload}-byte payload")
        end = stop
        arrays.append(np.empty(shape, dtype=_F8))
        return arrays[-1]

    try:
        tree = json.loads(raw.decode("utf-8"), object_hook=entry)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} header is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise CheckpointError(f"checkpoint {path} header is nested too deeply") from None
    except ValueError as exc:
        # Not UTF-8, an integer too long to convert, or more dimensions
        # than numpy allows.
        raise CheckpointError(f"checkpoint {path} header is unreadable: {exc}") from exc
    if end != payload:
        raise CheckpointError(
            f"checkpoint {path}: {payload - end} trailing bytes after the last array")
    return tree


def load_json(path: Path | str):
    """The tree `save_json` wrote to `path`, each array read into a fresh
    C-contiguous float64 array.  IOFailure if `path` is not a file;
    CheckpointError unless it is a well-formed checkpoint file, whose layout
    is checked in full before any array is read."""
    path = Path(path)
    if not path.is_file():
        state = "is not a file" if path.exists() else "does not exist"
        raise IOFailure(f"checkpoint file {path} {state}")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(len(MAGIC) + _LENGTH.size)
        if not prefix.startswith(MAGIC):
            if prefix.lstrip()[:1] == b"{":
                raise CheckpointError(
                    f"checkpoint {path} is a JSON file of format_version 4 or "
                    f"earlier; this build reads only format_version "
                    f"{FORMAT_VERSION}, retrain to write a new checkpoint")
            raise CheckpointError(f"checkpoint {path} does not start with the "
                                  "framewatch checkpoint magic")
        if len(prefix) < len(MAGIC) + _LENGTH.size:
            raise CheckpointError(f"checkpoint {path} ends inside its header length")
        (length,) = _LENGTH.unpack_from(prefix, len(MAGIC))
        start = len(prefix) + length
        if start > size:
            raise CheckpointError(f"checkpoint {path}: header length {length} runs "
                                  f"past the end of the {size}-byte file")
        if start % _F8.itemsize:
            raise CheckpointError(f"checkpoint {path}: payload starts at byte {start}, "
                                  f"not at a multiple of {_F8.itemsize}")
        arrays: list[np.ndarray] = []
        tree = _parse_header(f.read(length), path, size - start, arrays)
        for array in arrays:
            if f.readinto(array) != array.nbytes:
                raise CheckpointError(f"checkpoint {path}: payload ends early")
    return tree
