"""JSON checkpoints of the full pipeline: autoencoder, flow and scoring.

A checkpoint is one JSON file with `format_version` 4.  It holds what
loading uses and nothing else: the networks, each coupling layer's scale
clamp, the score settings, the threshold and the quantile it was chosen
at.  Each fact is stored once: `format_version` and `model_kind` only at
the top level, the input and latent dims only in each network's
`layer_dims`, and each coupling layer's clamp only in the flow's
`scale_clamps` list, in the order of its `masks`.  How the models were
trained (the run config and its seed) is recorded in `train_report.json`,
not here.  Every parameter array (weights, biases, coupling masks,
whitening vectors) is stored as one base64 string of its raw
little-endian float64 (`<f8`) bytes, so a reloaded model reproduces
scores bit-exactly by construction. Scalars (clamps, threshold,
standardization, alpha) stay JSON numbers.

Loading checks and builds in one pass: it reads `input_dim` and
`latent_dim` from the encoder's `layer_dims`, checks the decoder, the
coupling masks and nets and the whitening vectors against them, and
checks keys, types, decoded lengths and finiteness before it hands a
value to a model or config constructor.  Rules that a type owns (the
coupling mask and scale clamp, the score mode and alpha, the positive
score spreads) are checked by that type's constructor, and its error is
reported as a CheckpointError.  Building a model has no side effects, so
`pipeline_from_dict` returns nothing unless the whole file passed.
Version 1, 2 and 3 files are rejected: retrain to write a version 4
checkpoint.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderModel
from .errors import CheckpointError, ConfigError, ContractViolationError
from .flow import CouplingLayer, FlowModel
from .nn import Activation, DenseLayer, Mlp
from .scoring import ScoreConfig, ScoreStandardization

FORMAT_VERSION = 4
_F8 = np.dtype("<f8")


def _encode(array: np.ndarray) -> str:
    # b64encode reads the array's buffer; tobytes() would copy it first.
    return base64.b64encode(np.ascontiguousarray(array, dtype=_F8)).decode("ascii")


def _decode(text, shape: tuple[int, ...], where: str,
            size: str | None = None) -> np.ndarray:
    """A fresh, writable, C-contiguous float64 array of `shape`; `size`
    names the shape in the length-mismatch message."""
    if not isinstance(text, str):
        raise CheckpointError(f"{where}: expected a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise CheckpointError(f"{where}: invalid base64: {exc}") from exc
    expected = _F8.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise CheckpointError(f"{where}: decodes to {len(raw)} bytes, "
                              f"{size or f'shape {list(shape)}'} needs {expected}")
    array = np.frombuffer(raw, dtype=_F8).reshape(shape).astype(np.float64)
    if not np.isfinite(array).all():
        raise CheckpointError(f"{where}: non-finite value")
    return array


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


def _mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "layer_dims": [mlp.layers[0].in_dim] + [l.out_dim for l in mlp.layers],
        "activations": [l.activation.value for l in mlp.layers],
        "weights": [_encode(l.weights) for l in mlp.layers],
        "biases": [_encode(l.bias) for l in mlp.layers],
    }


def _read_mlp(data, where: str, ends=None) -> Mlp:
    """The network stored at `where`.  `ends`, if given, is the
    ((name, dim), (name, dim)) it must map between."""
    dims = _get(data, "layer_dims", where)
    if (not isinstance(dims, list) or len(dims) < 2
            or any(type(d) is not int or d < 1 for d in dims)):
        raise CheckpointError(
            f"{where}.layer_dims: expected a list of two or more positive integers")
    if ends and (dims[0], dims[-1]) != (ends[0][1], ends[1][1]):
        (a, m), (b, n) = ends
        raise CheckpointError(f"{where}.layer_dims: maps {dims[0]} -> {dims[-1]}, "
                              f"expected {a} {m} -> {b} {n}")
    n = len(dims) - 1
    acts = _list(data, "activations", where, n)
    weights = _list(data, "weights", where, n)
    biases = _list(data, "biases", where, n)
    layers = []
    for i in range(n):
        try:
            act = Activation(acts[i])
        except ValueError:
            raise CheckpointError(
                f"{where}.activations[{i}]: unknown activation {acts[i]!r}") from None
        layers.append(DenseLayer(
            _decode(weights[i], (dims[i + 1], dims[i]), f"{where}.weights[{i}]"),
            _decode(biases[i], (dims[i + 1],), f"{where}.biases[{i}]"), act))
    return Mlp(layers)


def autoencoder_to_dict(model: AutoencoderModel) -> dict:
    return {
        "encoder": _mlp_to_dict(model.encoder),
        "decoder": _mlp_to_dict(model.decoder),
    }


def _read_autoencoder(data, where: str) -> AutoencoderModel:
    """The encoder's layer_dims define input_dim and latent_dim; the
    decoder must map them back."""
    encoder = _read_mlp(_get(data, "encoder", where), f"{where}.encoder")
    decoder = _read_mlp(_get(data, "decoder", where), f"{where}.decoder",
                        (("latent_dim", encoder.out_dim), ("input_dim", encoder.in_dim)))
    return AutoencoderModel(encoder=encoder, decoder=decoder)


def flow_to_dict(model: FlowModel) -> dict:
    return {
        "scale_clamps": [layer.scale_clamp for layer in model.layers],
        "masks": [_encode(layer.mask) for layer in model.layers],
        "scale_nets": [_mlp_to_dict(layer.scale_net) for layer in model.layers],
        "shift_nets": [_mlp_to_dict(layer.shift_net) for layer in model.layers],
        "whitening_mean": _encode(model.whitening_mean),
        "whitening_std": _encode(model.whitening_std),
    }


def _read_flow(data, where: str, dim: int) -> FlowModel:
    """The flow over the autoencoder's `dim` latents."""
    latent = ("latent_dim", dim)
    size = f"latent_dim {dim}"
    masks = _get(data, "masks", where)
    if not isinstance(masks, list):
        raise CheckpointError(f"{where}.masks: expected a list")
    n = len(masks)
    scale_nets = _list(data, "scale_nets", where, n)
    shift_nets = _list(data, "shift_nets", where, n)
    clamps = _list(data, "scale_clamps", where, n)
    layers = []
    for k in range(n):
        mask = _decode(masks[k], (dim,), f"{where}.masks[{k}]", size)
        scale_net = _read_mlp(scale_nets[k], f"{where}.scale_nets[{k}]", (latent, latent))
        shift_net = _read_mlp(shift_nets[k], f"{where}.shift_nets[{k}]", (latent, latent))
        clamp = _finite(clamps[k], f"{where}.scale_clamps[{k}]")
        try:
            layers.append(CouplingLayer(mask, scale_net, shift_net, clamp))
        except ContractViolationError as exc:
            raise CheckpointError(f"{where}: coupling layer {k}: {exc}") from None
    std = _decode(_get(data, "whitening_std", where), (dim,),
                  f"{where}.whitening_std", size)
    if not (std > 0.0).all():
        raise CheckpointError(f"{where}.whitening_std: must be positive")
    mean = _decode(_get(data, "whitening_mean", where), (dim,),
                   f"{where}.whitening_mean", size)
    return FlowModel(layers=layers, dim=dim, whitening_mean=mean, whitening_std=std)


def pipeline_to_dict(ae: AutoencoderModel, flow: FlowModel,
                     score_config: ScoreConfig, threshold: float,
                     threshold_quantile: float) -> dict:
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
    values = {name: _number(data, name, where) for name in names}
    try:
        return ScoreStandardization(**values)
    except ConfigError as exc:
        raise CheckpointError(f"{where}: {exc}") from None


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
    try:
        score_config = ScoreConfig(mode=_get(data, "score_mode", "checkpoint"),
                                   alpha=_number(data, "score_alpha", "checkpoint"),
                                   standardization=standardization)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint: {exc}") from None
    return ae, flow, score_config, _number(data, "threshold", "checkpoint")


def save_json(data: dict, path: Path | str) -> None:
    """Write `data` as indented, key-sorted JSON, streamed to the file so the
    whole text is never held in memory at once."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def load_json(path: Path | str) -> dict:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint file {path} does not exist")
    try:
        return json.loads(path.read_bytes())
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
