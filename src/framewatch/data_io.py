"""Dataset loading: PGM decoding, bilinear resize, label parsing.

On-disk layout of a scenario:

    <scenario>/train/*.pgm     normal frames only
    <scenario>/val/*.pgm       normal frames only
    <scenario>/test/*.pgm      normal and anomalous frames
    <scenario>/labels.csv      one row per test file; a row whose name no
                               test file has may name a train/val file, to
                               assert its normality

A ScenarioDataset holds one Split per split and is valid when built: its
constructor enforces the split protocol; its taxonomy comes from the
test labels.

A frame file is read with raw `os.open`/`os.read`/`os.close` calls into
one bytes object, with no buffered file object between: a scenario is
thousands of 4 KB files, and the buffered reader's set-up cost more than
the read itself.  A 64x64 frame with the canonical header that
`encode_pgm` writes is told by its bytes and its complete payload is
copied as it stands; every other header goes through the one regex
parser, and every other size is decoded and resized.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ContractViolationError, IOFailure, ParseError, ProtocolViolationError

FRAME_SIDE = 64
FRAME_PIXELS = FRAME_SIDE * FRAME_SIDE
FRAME_RATE = 30  # capture rate, frames per second

# Each label axis with its allowed values, in labels.csv column order.
LABEL_AXES = {
    "level": ("sensory", "semantic"),
    "hazard": ("yes", "no"),
    "geometric": ("yes", "no"),
    "mission_relevant": ("yes", "no", "unspecified"),
}

LABELS_HEADER = ["filename", "label", "anomaly_type", *LABEL_AXES]


@dataclass(frozen=True)
class AnomalyLabel:
    """Four-axis categorization of an anomalous sample; each axis takes one
    of its LABEL_AXES values."""

    anomaly_type: str
    level: str
    hazard: str
    geometric: str
    mission_relevant: str = "unspecified"

    def __post_init__(self):
        for axis, allowed in LABEL_AXES.items():
            if getattr(self, axis) not in allowed:
                raise ContractViolationError(f"invalid {axis} {getattr(self, axis)!r}")


@dataclass
class Frame:
    """One 64x64 grayscale image normalized to [0, 1]."""

    pixels: np.ndarray           # (64, 64) float64 in [0, 1]
    source_id: str = ""
    timestamp: int = 0           # frame number at 30 fps

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.shape != (FRAME_SIDE, FRAME_SIDE):
            raise ContractViolationError(
                f"Frame: pixels shape {self.pixels.shape}, expected "
                f"({FRAME_SIDE}, {FRAME_SIDE})")
        if not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):  # NaN fails
            raise ContractViolationError("Frame: pixel values must lie in [0, 1]")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.pixels, dtype=dtype, copy=copy)

    def flat(self) -> np.ndarray:
        return self.pixels.reshape(FRAME_PIXELS)


@dataclass(frozen=True, eq=False)
class Split:
    """A split's n frames: their 8-bit codes as one (n, 64, 64) uint8 array,
    `as_intensities(pixels)` being their [0, 1] values, and in the same order
    each frame's source_id, timestamp and label (None when normal).
    `np.asarray(split)` is `pixels`, not a copy; a float dtype is refused,
    so no caller reads the codes as intensities.  Once checked, `pixels`
    is read-only; a caller's uint8 array is shared, not copied, so it is
    frozen too."""

    pixels: np.ndarray
    source_ids: tuple[str, ...]
    timestamps: tuple[int, ...]
    labels: tuple[Optional[AnomalyLabel], ...]

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels))
        if self.pixels.dtype != np.uint8:
            raise ContractViolationError(
                f"Split: pixels must be uint8 codes, got {self.pixels.dtype}")
        n = len(self.source_ids)
        if (self.pixels.shape != (n, FRAME_SIDE, FRAME_SIDE)
                or not len(self.timestamps) == len(self.labels) == n):
            raise ContractViolationError(
                f"Split: pixels shape {self.pixels.shape}, {len(self.timestamps)} "
                f"timestamps and {len(self.labels)} labels for {n} source_ids")
        self.pixels.flags.writeable = False

    def __len__(self) -> int:
        return len(self.source_ids)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and np.dtype(dtype).kind == "f":
            raise ContractViolationError(
                "Split: pixels are 8-bit codes; as_intensities(split.pixels) "
                "gives their [0, 1] values")
        return np.array(self.pixels, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class ScenarioDataset:
    """The splits, checked when built.  Train may be empty, as in a scenario
    built only for evaluation; training rejects that."""

    train: Split
    val: Split
    test: Split

    def __post_init__(self):
        if not self.val:
            raise ProtocolViolationError("val split is empty")
        for split, split_name in ((self.train, "train"), (self.val, "val")):
            for source_id, label in zip(split.source_ids, split.labels):
                if label is not None:
                    raise ProtocolViolationError(
                        f"{split_name} split contains anomalous frame {source_id!r}; "
                        "train and val must contain only normal samples")
        if None not in self.test.labels:
            raise ProtocolViolationError("test split has no normal frame")
        if all(label is None for label in self.test.labels):
            raise ProtocolViolationError("test split has no anomalous frame")

    @property
    def taxonomy(self) -> dict[str, AnomalyLabel]:
        """Each anomaly type of the test split and its axes, in order of
        first appearance."""
        return {label.anomaly_type: label for label in self.test.labels
                if label is not None}


# ---------------------------------------------------------------------------
# PGM (P5) codec.  Binary PGM with maxval 255 is the canonical on-disk
# format: it round-trips bit-exactly with no external decoder.

# The magic, then width, height and maxval, each token after a gap of
# whitespace and '#' comments; bytes \s is exactly the six bytes that
# bytes.isspace accepts.  An empty token means the header ran out.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*)*(\S*)" * 3)


# The header `encode_pgm` writes for a 64x64 frame, and the length of such
# a file.  A file that starts with it and is at least that long parses to
# what the regex gives it, so its bytes alone select the short path.
_CANONICAL_HEADER = b"P5\n%d %d\n255\n" % (FRAME_SIDE, FRAME_SIDE)
_CANONICAL_SIZE = len(_CANONICAL_HEADER) + FRAME_PIXELS


def _pgm_header(data: bytes) -> tuple[int, int, int]:
    """(width, height, payload offset) of a binary PGM; ParseError unless
    the header is well formed, maxval is 255 and the payload is complete."""
    if len(data) >= _CANONICAL_SIZE and data[:len(_CANONICAL_HEADER)] == _CANONICAL_HEADER:
        return FRAME_SIDE, FRAME_SIDE, len(_CANONICAL_HEADER)
    m = _PGM_HEADER.match(data)
    if m is None:
        raise ParseError("not a binary PGM: missing 'P5' magic at byte 0")
    tokens = m.groups()
    for group, token in enumerate(tokens, start=1):
        if not token:
            raise ParseError(f"truncated PGM header at byte {m.start(group)}")
        if not token.isdigit():
            raise ParseError(f"bad PGM header token {token!r} at byte {m.start(group)}")
    width, height, maxval = map(int, tokens)
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"unsupported PGM maxval {maxval} (expected 255)")
    offset = m.end() + 1  # single whitespace byte after maxval
    got = min(max(len(data) - offset, 0), width * height)
    if got != width * height:
        raise ParseError(
            f"truncated PGM payload at byte {offset + got}: expected "
            f"{width * height} pixel bytes, got {got}")
    return width, height, offset


def _pgm_codes(data: bytes, width: int, height: int, offset: int) -> np.ndarray:
    """The payload bytes as a read-only (height, width) uint8 view."""
    return np.frombuffer(data, np.uint8, width * height, offset).reshape(height, width)


def as_intensities(frames: np.typing.ArrayLike, dtype=np.float64,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """`frames` as intensities in `dtype`, by their dtype: each uint8 code k
    becomes the correctly rounded k/255 (into `out` when given), in float32
    the float32 cast of the float64 quotient, which a multiply by 1/255
    misses on 24 of the 256 codes; float intensities are cast (not copied
    when already `dtype`).  Any other dtype raises ContractViolationError:
    integers or booleans could be codes or intensities, and reading codes
    as intensities 0-255 gives scores and losses thousands of times too large."""
    frames = np.asarray(frames)
    if frames.dtype == np.uint8:
        return np.divide(frames, 255, out=out, dtype=dtype)
    if frames.dtype.kind != "f":
        raise ContractViolationError(
            f"frames of dtype {frames.dtype} are neither uint8 codes nor "
            "float intensities")
    return frames.astype(dtype, copy=False)


def decode_pgm(data: bytes):
    """Decode a binary PGM (P5, maxval 255) into a float image in [0, 1].

    Returns (pixels, width, height) with pixels shaped (height, width).
    """
    width, height, offset = _pgm_header(data)
    return as_intensities(_pgm_codes(data, width, height, offset)), width, height


def encode_pgm(pixels: np.ndarray) -> bytes:
    """Encode a [0, 1] float image as binary PGM, rounding to 8 bits."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2 or pixels.size == 0:
        raise ContractViolationError("encode_pgm: need a non-empty 2-D image")
    quantized = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + quantized.tobytes()


# ---------------------------------------------------------------------------
# Bilinear resize with edge clamping.

def resize_bilinear(image: np.ndarray, out_h: int = FRAME_SIDE,
                    out_w: int = FRAME_SIDE) -> np.ndarray:
    """Resize with pixel-center alignment and edge clamping.

    Source coordinate of output pixel j is (j + 0.5) * in/out - 0.5,
    clamped into the valid range.  A same-size input is returned unchanged.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] < 1 or image.shape[1] < 1:
        raise ContractViolationError("resize_bilinear: need a non-empty 2-D image")
    in_h, in_w = image.shape
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return lo, hi, frac

    y0, y1, fy = axis_coords(in_h, out_h)
    x0, x1, fx = axis_coords(in_w, out_w)
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bot = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy[:, None]) + bot * fy[:, None]


def _read_file(path: Path | str) -> bytes:
    """The bytes of the file at `path`, read with raw os calls: those of a
    canonical 64x64 frame in one read, any other file to its end.  An
    OSError names the file, as `open` would."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _CANONICAL_SIZE)
        if len(data) < _CANONICAL_SIZE or not data.startswith(_CANONICAL_HEADER):
            chunks = [data]
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            data = b"".join(chunks)
    except OSError as exc:  # os.read gives no filename, say on a directory
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return data


def read_frame_codes(path: Path | str, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The 8-bit codes of one .pgm file as a (64, 64) uint8 array, written
    into `out` (a new array when None).  A 64x64 frame's codes are its
    payload bytes; any other size is decoded, resized bilinearly, clipped
    to [0, 1] and rounded to the nearest code.

    The file is read with `os.open`/`os.read`, not a buffered file object,
    whose set-up costs more than reading a 4 KB frame: a canonical 64x64
    frame takes one read, and anything else is read to its end and parsed
    as before.  Bytes, checks and messages are those of `decode_pgm`."""
    data = _read_file(path)
    width, height, offset = _pgm_header(data)
    codes = _pgm_codes(data, width, height, offset)
    if (height, width) != (FRAME_SIDE, FRAME_SIDE):
        resized = np.clip(resize_bilinear(as_intensities(codes)), 0.0, 1.0)
        codes = np.rint(resized * 255.0)
    if out is None:
        out = np.empty((FRAME_SIDE, FRAME_SIDE), np.uint8)
    np.copyto(out, codes, casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# Label CSV parsing.

def parse_labels(data: bytes) -> dict[str, Optional[AnomalyLabel]]:
    """Parse labels.csv; value None means the file is labeled normal.
    Every row of one anomaly type must give the same axes, so the type's
    first row makes its one AnomalyLabel and each later row of the type
    shares it."""
    try:
        text = data.decode("utf-8-sig")  # drops one leading byte order mark
    except UnicodeDecodeError as exc:
        raise ParseError(f"labels.csv is not valid UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != LABELS_HEADER:
        raise ParseError(
            f"labels.csv header must be exactly {','.join(LABELS_HEADER)}")
    out: dict[str, Optional[AnomalyLabel]] = {}
    # By anomaly type: the line, axes and label of its first row.
    first_row: dict[str, tuple[int, tuple[str, ...], AnomalyLabel]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(LABELS_HEADER):
            raise ParseError(f"labels.csv line {lineno}: expected "
                             f"{len(LABELS_HEADER)} columns, got {len(row)}")
        filename, label, atype, level, hazard, geometric, mission = row
        if filename in out:
            raise ParseError(f"labels.csv line {lineno}: duplicate filename "
                             f"{filename!r}")
        if label == "normal":
            if any((atype, level, hazard, geometric, mission)):
                raise ParseError(f"labels.csv line {lineno}: normal rows must "
                                 "leave axis columns empty")
            out[filename] = None
        elif label == "anomalous":
            if not atype:
                raise ParseError(f"labels.csv line {lineno}: anomalous row "
                                 "missing anomaly_type")
            axes = (level, hazard, geometric, mission or "unspecified")
            first = first_row.get(atype)
            if first is None or first[1] != axes:
                try:
                    label = AnomalyLabel(atype, *axes)
                except ContractViolationError as exc:
                    raise ParseError(f"labels.csv line {lineno}: {exc}") from None
                if first is not None:
                    raise ParseError(
                        f"labels.csv lines {first[0]} and {lineno}: anomaly type "
                        f"{atype!r} has different axes")
                first = first_row[atype] = (lineno, axes, label)
            out[filename] = first[2]
        else:
            raise ParseError(f"labels.csv line {lineno}: label must be "
                             f"'normal' or 'anomalous', got {label!r}")
    return out


# ---------------------------------------------------------------------------
# Scenario loading.

_TRAILING_INT = re.compile(r"(\d+)\D*$")


def _timestamp_of(filename: str) -> int:
    m = _TRAILING_INT.search(filename)
    return int(m.group(1)) if m else 0


def list_frames(directory: Path | str) -> list[tuple[int, str, str]]:
    """The `.pgm` entries of `directory` as (timestamp, name, path), in
    (timestamp, name) order: the timestamp is the name's trailing frame
    number (0 if it has none), so `frame_10.pgm` follows `frame_9.pgm`."""
    with os.scandir(directory) as it:
        return sorted((_timestamp_of(e.name), e.name, e.path)
                      for e in it if e.name.endswith(".pgm"))


def _load_split(split_dir: Path, labels: dict[str, Optional[AnomalyLabel]],
                split_name: str) -> Split:
    """The split's frames in `list_frames` order, the codes of each copied
    straight into its row of the split's uint8 array."""
    if not split_dir.is_dir():
        raise IOFailure(f"missing split directory {split_dir}")
    entries = list_frames(split_dir)
    pixels = np.empty((len(entries), FRAME_SIDE, FRAME_SIDE), np.uint8)
    for row, (_, name, path) in zip(pixels, entries):
        try:
            read_frame_codes(path, out=row)
        except ParseError as exc:
            raise ParseError(f"{split_name}/{name}: {exc}") from None
        if split_name == "test" and name not in labels:
            raise IOFailure(f"test file {name} has no labels.csv entry")
    names = [name for _, name, _ in entries]
    return Split(pixels, tuple(f"{split_name}/{name}" for name in names),
                 tuple(t for t, _, _ in entries), tuple(map(labels.get, names)))


def load_scenario(root: Path | str) -> ScenarioDataset:
    """Load a scenario directory; every label row must name a frame."""
    root = Path(root)
    if not root.is_dir():
        raise IOFailure(f"scenario directory {root} does not exist")
    labels_path = root / "labels.csv"
    if not labels_path.is_file():
        raise IOFailure(f"missing labels file {labels_path}")
    labels = parse_labels(labels_path.read_bytes())

    # A row names the test file of its name; only a name the test split
    # lacks labels a train or val file.
    splits = {"test": _load_split(root / "test", labels, "test")}
    test_names = {i.partition("/")[2] for i in splits["test"].source_ids}
    rest = {name: label for name, label in labels.items() if name not in test_names}
    splits.update((split, _load_split(root / split, rest, split))
                  for split in ("train", "val"))
    named = {i.partition("/")[2] for split in splits.values() for i in split.source_ids}
    for filename in labels:
        if filename not in named:
            raise IOFailure(f"labels.csv row for {filename} names no file in any split")
    return ScenarioDataset(**splits)
