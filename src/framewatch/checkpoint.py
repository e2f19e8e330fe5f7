"""JSON checkpoints of the full pipeline: autoencoder, flow and scoring.

A checkpoint is one JSON file with `format_version` 2. Every parameter
array (weights, biases, coupling masks, whitening vectors) is stored as
one base64 string of its raw little-endian float64 (`<f8`) bytes, next to
the dims that declare its shape, so a reloaded model reproduces scores
bit-exactly by construction. Scalars (threshold, standardization, alpha)
stay JSON numbers.

Loading validates the whole document (keys, types, enums, shapes, decoded
lengths, finiteness, and the descriptive seeds, training configs and
threshold quantile) before any model is built, and every failure raises
CheckpointError. Version 1 files, which held decimal lists, are rejected:
retrain to write a version 2 checkpoint.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderConfig, AutoencoderModel
from .config import from_dict
from .errors import CheckpointError, ConfigError
from .flow import CouplingLayer, FlowConfig, FlowModel
from .nn import Activation, DenseLayer, Mlp
from .scoring import SCORE_MODES, ScoreConfig, ScoreStandardization

FORMAT_VERSION = 2
_F8 = np.dtype("<f8")


def _encode(array: np.ndarray) -> str:
    # b64encode reads the array's buffer; tobytes() would copy it first.
    return base64.b64encode(np.ascontiguousarray(array, dtype=_F8)).decode("ascii")


def _decode(text, shape: tuple[int, ...], where: str) -> np.ndarray:
    """A fresh, writable, C-contiguous float64 array of `shape`."""
    if not isinstance(text, str):
        raise CheckpointError(f"{where}: expected a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise CheckpointError(f"{where}: invalid base64: {exc}") from exc
    expected = _F8.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise CheckpointError(f"{where}: decodes to {len(raw)} bytes, shape "
                              f"{list(shape)} needs {expected}")
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


def _positive_int(data, key: str, where: str) -> int:
    value = _get(data, key, where)
    if type(value) is not int or value < 1:
        raise CheckpointError(f"{where}.{key}: expected a positive integer")
    return value


def _number(data, key: str, where: str) -> float:
    value = _get(data, key, where)
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise CheckpointError(f"{where}.{key}: expected a finite number")
    return float(value)


def _seed(data, where: str) -> None:
    value = _get(data, "seed", where)
    if value is not None and type(value) is not int:
        raise CheckpointError(f"{where}.seed: expected null or an integer")


def _train_config(data, cls, where: str) -> None:
    """The nested `train_config` is null or a complete, valid `cls`."""
    value = _get(data, "train_config", where)
    if value is None:
        return
    names = [f.name for f in fields(cls)]
    if not isinstance(value, dict) or sorted(value) != sorted(names):
        raise CheckpointError(
            f"{where}.train_config: expected null or exactly the keys {names}")
    try:
        from_dict(cls, value, "train_config")
    except ConfigError as exc:
        raise CheckpointError(f"{where}.train_config: {exc}") from None


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


def _read_mlp(data, where: str, in_dim: int, out_dim: int) -> list[tuple]:
    """Validated (weights, bias, activation) per layer of an `in_dim` ->
    `out_dim` network."""
    dims = _get(data, "layer_dims", where)
    if (not isinstance(dims, list) or len(dims) < 2
            or any(type(d) is not int or d < 1 for d in dims)):
        raise CheckpointError(
            f"{where}.layer_dims: expected a list of two or more positive integers")
    if (dims[0], dims[-1]) != (in_dim, out_dim):
        raise CheckpointError(f"{where}.layer_dims: maps {dims[0]} -> {dims[-1]}, "
                              f"expected {in_dim} -> {out_dim}")
    n = len(dims) - 1
    acts = _list(data, "activations", where, n)
    weights = _list(data, "weights", where, n)
    biases = _list(data, "biases", where, n)
    spec = []
    for i in range(n):
        try:
            act = Activation(acts[i])
        except ValueError:
            raise CheckpointError(
                f"{where}.activations[{i}]: unknown activation {acts[i]!r}") from None
        spec.append((_decode(weights[i], (dims[i + 1], dims[i]), f"{where}.weights[{i}]"),
                     _decode(biases[i], (dims[i + 1],), f"{where}.biases[{i}]"),
                     act))
    return spec


def _mlp(spec: list[tuple]) -> Mlp:
    return Mlp([DenseLayer(w, b, act) for w, b, act in spec])


def _check_kind(data, expected: str, where: str = "checkpoint") -> None:
    if not isinstance(data, dict):
        raise CheckpointError(f"{where}: expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{where}: unsupported format_version {version!r}; this build reads "
            f"only format_version {FORMAT_VERSION}, retrain to write a new checkpoint")
    kind = data.get("model_kind")
    if kind != expected:
        raise CheckpointError(f"{where}: expected model_kind {expected!r}, got {kind!r}")


def autoencoder_to_dict(model: AutoencoderModel,
                        config: AutoencoderConfig | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": "autoencoder",
        "latent_dim": model.latent_dim,
        "input_dim": model.input_dim,
        "encoder": _mlp_to_dict(model.encoder),
        "decoder": _mlp_to_dict(model.decoder),
        "train_config": asdict(config) if config else None,
        "seed": config.seed if config else None,
    }


def _read_autoencoder(data, where: str) -> dict:
    _check_kind(data, "autoencoder", where)
    latent = _positive_int(data, "latent_dim", where)
    pixels = _positive_int(data, "input_dim", where)
    _seed(data, where)
    _train_config(data, AutoencoderConfig, where)
    return dict(
        encoder=_read_mlp(_get(data, "encoder", where), f"{where}.encoder",
                          pixels, latent),
        decoder=_read_mlp(_get(data, "decoder", where), f"{where}.decoder",
                          latent, pixels),
        latent_dim=latent, input_dim=pixels)


def _autoencoder(spec: dict) -> AutoencoderModel:
    return AutoencoderModel(encoder=_mlp(spec["encoder"]),
                            decoder=_mlp(spec["decoder"]),
                            latent_dim=spec["latent_dim"],
                            input_dim=spec["input_dim"])


def flow_to_dict(model: FlowModel, config: FlowConfig | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": "flow",
        "latent_dim": model.dim,
        "scale_clamp": model.layers[0].scale_clamp if model.layers else None,
        "masks": [_encode(layer.mask) for layer in model.layers],
        "scale_nets": [_mlp_to_dict(layer.scale_net) for layer in model.layers],
        "shift_nets": [_mlp_to_dict(layer.shift_net) for layer in model.layers],
        "whitening_mean": _encode(model.whitening_mean),
        "whitening_std": _encode(model.whitening_std),
        "train_config": asdict(config) if config else None,
        "seed": config.seed if config else None,
    }


def _read_flow(data, where: str) -> dict:
    _check_kind(data, "flow", where)
    dim = _positive_int(data, "latent_dim", where)
    _seed(data, where)
    _train_config(data, FlowConfig, where)
    masks = _get(data, "masks", where)
    if not isinstance(masks, list):
        raise CheckpointError(f"{where}.masks: expected a list")
    n = len(masks)
    scale_nets = _list(data, "scale_nets", where, n)
    shift_nets = _list(data, "shift_nets", where, n)
    clamp = _number(data, "scale_clamp", where) if n else None
    if n and clamp <= 0.0:
        raise CheckpointError(f"{where}.scale_clamp: must be positive")
    layers = []
    for k in range(n):
        mask = _decode(masks[k], (dim,), f"{where}.masks[{k}]")
        if not (np.isin(mask, (0.0, 1.0)).all() and 0.0 < mask.sum() < dim):
            raise CheckpointError(f"{where}.masks[{k}]: must hold both 0 and 1 "
                                  "and nothing else")
        layers.append(dict(
            mask=mask, scale_clamp=clamp,
            scale_net=_read_mlp(scale_nets[k], f"{where}.scale_nets[{k}]", dim, dim),
            shift_net=_read_mlp(shift_nets[k], f"{where}.shift_nets[{k}]", dim, dim)))
    std = _decode(_get(data, "whitening_std", where), (dim,), f"{where}.whitening_std")
    if not (std > 0.0).all():
        raise CheckpointError(f"{where}.whitening_std: must be positive")
    return dict(layers=layers, dim=dim, whitening_std=std,
                whitening_mean=_decode(_get(data, "whitening_mean", where), (dim,),
                                       f"{where}.whitening_mean"))


def _flow(spec: dict) -> FlowModel:
    layers = [CouplingLayer(mask=l["mask"], scale_net=_mlp(l["scale_net"]),
                            shift_net=_mlp(l["shift_net"]),
                            scale_clamp=l["scale_clamp"])
              for l in spec["layers"]]
    return FlowModel(layers=layers, dim=spec["dim"],
                     whitening_mean=spec["whitening_mean"],
                     whitening_std=spec["whitening_std"])


def pipeline_to_dict(ae: AutoencoderModel, flow: FlowModel,
                     score_config: ScoreConfig, threshold: float,
                     threshold_quantile: float,
                     ae_config: AutoencoderConfig | None = None,
                     flow_config: FlowConfig | None = None,
                     seed: int | None = None) -> dict:
    std = score_config.standardization or ScoreStandardization()
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": "pipeline",
        "latent_dim": ae.latent_dim,
        "autoencoder": autoencoder_to_dict(ae, ae_config),
        "flow": flow_to_dict(flow, flow_config),
        "score_mode": score_config.mode,
        "score_alpha": score_config.alpha,
        "score_standardization": asdict(std),
        "threshold": threshold,
        "threshold_quantile": threshold_quantile,
        "seed": seed,
    }


def _read_standardization(data, where: str) -> ScoreStandardization:
    names = [f.name for f in fields(ScoreStandardization)]
    if not isinstance(data, dict) or sorted(data) != sorted(names):
        raise CheckpointError(f"{where}: expected exactly the keys {names}")
    values = {name: _number(data, name, where) for name in names}
    if values["nll_std"] <= 0.0 or values["recon_std"] <= 0.0:
        raise CheckpointError(f"{where}: standard deviations must be positive")
    return ScoreStandardization(**values)


def pipeline_from_dict(data: dict):
    """Returns (ae, flow, score_config, threshold)."""
    _check_kind(data, "pipeline")
    ae = _read_autoencoder(_get(data, "autoencoder", "checkpoint"),
                           "checkpoint.autoencoder")
    flow = _read_flow(_get(data, "flow", "checkpoint"), "checkpoint.flow")
    if ae["latent_dim"] != flow["dim"]:
        raise CheckpointError("pipeline checkpoint is inconsistent: autoencoder "
                              f"latent_dim {ae['latent_dim']} vs flow dim {flow['dim']}")
    if _positive_int(data, "latent_dim", "checkpoint") != ae["latent_dim"]:
        raise CheckpointError("checkpoint.latent_dim: does not match the autoencoder "
                              f"latent_dim {ae['latent_dim']}")
    _seed(data, "checkpoint")
    quantile = _number(data, "threshold_quantile", "checkpoint")
    if not 0.0 < quantile < 1.0:
        raise CheckpointError("checkpoint.threshold_quantile: must lie in (0, 1)")
    mode = _get(data, "score_mode", "checkpoint")
    if mode not in SCORE_MODES:
        raise CheckpointError(f"checkpoint.score_mode: unknown score mode {mode!r}")
    alpha = _number(data, "score_alpha", "checkpoint")
    if not 0.0 <= alpha <= 1.0:
        raise CheckpointError("checkpoint.score_alpha: must lie in [0, 1]")
    standardization = _read_standardization(
        _get(data, "score_standardization", "checkpoint"),
        "checkpoint.score_standardization")
    threshold = _number(data, "threshold", "checkpoint")
    score_config = ScoreConfig(mode=mode, alpha=alpha, standardization=standardization)
    return _autoencoder(ae), _flow(flow), score_config, threshold


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
