"""Deterministic synthetic scenario generator.

Produces corridor-like normal frames (vertical luminance gradient plus a
sinusoidal wall texture, small horizontal shifts and pixel noise) and
three anomaly archetypes spanning the taxonomy quadrants:

    dim_light    sensory, non-hazard, non-geometric (global darkening)
    blob         semantic, hazard, geometric (unexpected object)
    sensor_noise sensory, non-hazard, non-geometric (salt-and-pepper)

Everything is a pure function of the SynthSpec: each frame gets its own
RNG stream derived from (seed, frame id), so a regenerated dataset is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_ranges
from .data_io import (FRAME_SIDE, AnomalyLabel, Frame, ScenarioDataset, encode_pgm,
                      labels_to_csv, list_frames, load_scenario)
from .errors import ConfigError, IOFailure
from .rng import RngStream

ANOMALY_LABELS = {
    "dim_light": AnomalyLabel("dim_light", "sensory", "no", "no"),
    "blob": AnomalyLabel("blob", "semantic", "yes", "yes"),
    "sensor_noise": AnomalyLabel("sensor_noise", "sensory", "no", "no"),
}

ANOMALY_KINDS = tuple(ANOMALY_LABELS)

GRADIENT_TOP = 0.2
GRADIENT_BOTTOM = 0.8
TEXTURE_AMPLITUDE = 0.05
TEXTURE_PERIOD = 16.0
NOISE_SIGMA = 0.02
MAX_SHIFT = 2


@dataclass
class SynthSpec:
    seed: int = 7
    n_train: int = 400
    n_val: int = 200
    n_test_normal: int = 50
    n_per_anomaly: dict[str, int] = field(
        default_factory=lambda: {k: 20 for k in ANOMALY_KINDS})
    brightness_delta: float = -0.4
    blob_width: int = 16
    blob_height: int = 16
    blob_intensity: float = 0.95
    noise_p: float = 0.05

    def __post_init__(self):
        counts = [self.n_train, self.n_val, self.n_test_normal,
                  *self.n_per_anomaly.values()]
        if any(c < 0 for c in counts):
            raise ConfigError("all sample counts must be >= 0")
        check_ranges(self, "", at_least_one=("n_val",))
        if self.n_test_normal == 0 or sum(self.n_per_anomaly.values()) == 0:
            raise ConfigError("the test split needs normal and anomalous frames: "
                              "n_test_normal and the n_per_anomaly total must be >= 1")
        for name in ("blob_width", "blob_height"):
            if not 1 <= getattr(self, name) <= FRAME_SIDE:
                raise ConfigError(f"{name} must lie in [1, {FRAME_SIDE}], "
                                  f"got {getattr(self, name)}")
        for name, lo in (("noise_p", 0.0), ("blob_intensity", 0.0),
                         ("brightness_delta", -1.0)):
            if not lo <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [{lo:g}, 1], "
                                  f"got {getattr(self, name)}")
        for kind in self.n_per_anomaly:
            if kind not in ANOMALY_KINDS:
                raise ConfigError(f"unknown anomaly kind {kind!r}")


def generate_normal(rng: RngStream, t: int) -> Frame:
    """One normal frame for index t, deterministic given the stream."""
    rows = np.linspace(GRADIENT_TOP, GRADIENT_BOTTOM, FRAME_SIDE)[:, None]
    shift = int(rng.integers(-MAX_SHIFT, MAX_SHIFT, 1)[0])
    cols = np.arange(FRAME_SIDE) + shift
    texture = TEXTURE_AMPLITUDE * np.sin(2.0 * np.pi * cols / TEXTURE_PERIOD)[None, :]
    noise = NOISE_SIGMA * rng.gaussian(FRAME_SIDE * FRAME_SIDE).reshape(
        FRAME_SIDE, FRAME_SIDE)
    pixels = np.clip(rows + texture + noise, 0.0, 1.0)
    return Frame(pixels, timestamp=t)


def apply_anomaly(frame: Frame, kind: str, spec: SynthSpec,
                  rng: RngStream) -> tuple[Frame, AnomalyLabel]:
    """Overlay one anomaly archetype on a normal frame."""
    pixels = frame.pixels.copy()
    if kind == "dim_light":
        pixels = np.clip(pixels + spec.brightness_delta, 0.0, 1.0)
    elif kind == "blob":
        top = int(rng.integers(0, FRAME_SIDE - spec.blob_height, 1)[0])
        left = int(rng.integers(0, FRAME_SIDE - spec.blob_width, 1)[0])
        pixels[top:top + spec.blob_height, left:left + spec.blob_width] = \
            spec.blob_intensity
    elif kind == "sensor_noise":
        u = rng.uniform(FRAME_SIDE * FRAME_SIDE).reshape(FRAME_SIDE, FRAME_SIDE)
        coin = rng.uniform(FRAME_SIDE * FRAME_SIDE).reshape(FRAME_SIDE, FRAME_SIDE)
        flip = u < spec.noise_p
        pixels = np.where(flip, np.where(coin < 0.5, 0.0, 1.0), pixels)
    else:
        raise ConfigError(f"unknown anomaly kind {kind!r}")
    label = ANOMALY_LABELS[kind]
    return Frame(pixels, source_id=frame.source_id, timestamp=frame.timestamp), label


# Disjoint stream-id ranges per split so frame content is independent of
# generation order.
_SPLIT_BASE = {"train": 0, "val": 1_000_000, "test": 2_000_000}
_ANOMALY_BASE = 3_000_000


def _refuse_other_frames(frames_dir: Path, kinds: dict[str, str | None]) -> None:
    """IOFailure if `frames_dir` holds .pgm files not named in `kinds`, the
    frames about to be written there: they would be read beside them as
    one split."""
    if frames_dir.is_dir():
        others = [name for _, name, _ in list_frames(frames_dir) if name not in kinds]
        if others:
            raise IOFailure(f"{frames_dir} holds {len(others)} .pgm files that this "
                            "spec would not write; use an empty directory")


def _write_frames(frames_dir: Path, kinds: dict[str, str | None], spec: SynthSpec,
                  rng: RngStream, base: int) -> None:
    """Write the t-th file named in `kinds` into `frames_dir`: the normal
    frame drawn from `rng.derive(base + t)`, overlaid with the anomaly of
    its kind, drawn from `rng.derive(_ANOMALY_BASE + t)`, unless that kind
    is None."""
    frames_dir.mkdir(parents=True, exist_ok=True)
    for t, (name, kind) in enumerate(kinds.items()):
        frame = generate_normal(rng.derive(base + t), t)
        if kind is not None:
            frame, _ = apply_anomaly(frame, kind, spec, rng.derive(_ANOMALY_BASE + t))
        (frames_dir / name).write_bytes(encode_pgm(frame.pixels))


def generate_scenario(spec: SynthSpec, out_dir: Path | str) -> ScenarioDataset:
    """Write a full scenario in the data-io layout and reload it.  Nothing
    is written when a split directory holds frames this spec would not
    write."""
    out_dir = Path(out_dir)
    test_kinds = [None] * spec.n_test_normal + [
        kind for kind in ANOMALY_KINDS for _ in range(spec.n_per_anomaly.get(kind, 0))]
    kinds = {split: {f"{split}_{t:05d}.pgm": kind for t, kind in enumerate(split_kinds)}
             for split, split_kinds in (("train", [None] * spec.n_train),
                                        ("val", [None] * spec.n_val), ("test", test_kinds))}
    try:
        for split, split_kinds in kinds.items():
            _refuse_other_frames(out_dir / split, split_kinds)
        rng = RngStream(spec.seed)
        for split, split_kinds in kinds.items():
            _write_frames(out_dir / split, split_kinds, spec, rng, _SPLIT_BASE[split])
        (out_dir / "labels.csv").write_text(labels_to_csv(
            (name, ANOMALY_LABELS.get(kind)) for name, kind in kinds["test"].items()),
            encoding="utf-8")
    except OSError as exc:
        raise IOFailure(f"cannot write scenario to {out_dir}: {exc}") from exc
    return load_scenario(out_dir)


def generate_stream(spec: SynthSpec, out_dir: Path | str, n_normal: int,
                    anomaly_kind: str | None = None, n_anomalous: int = 0,
                    stream_seed: int | None = None) -> None:
    """Write a frame stream (for monitor simulation): normal frames,
    optionally followed by sustained anomalous frames of `anomaly_kind`
    (`blob` when None).  Nothing is written when a count is negative, the
    kind is unknown or `out_dir` holds frames this stream would not write."""
    for name, count in (("n_normal", n_normal), ("n_anomalous", n_anomalous)):
        if count < 0:
            raise ConfigError(f"{name} must be >= 0, got {count}")
    kind = anomaly_kind or "blob"
    if kind not in ANOMALY_LABELS:
        raise ConfigError(f"unknown anomaly kind {kind!r}")
    out_dir = Path(out_dir)
    kinds = {f"frame_{t:06d}.pgm": None if t < n_normal else kind
             for t in range(n_normal + n_anomalous)}
    rng = RngStream(spec.seed if stream_seed is None else stream_seed)
    try:
        _refuse_other_frames(out_dir, kinds)
        _write_frames(out_dir, kinds, spec, rng, 0)
    except OSError as exc:
        raise IOFailure(f"cannot write stream to {out_dir}: {exc}") from exc
