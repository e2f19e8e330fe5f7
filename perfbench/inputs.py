"""Seeded inputs of the benchmark workloads and the fixture checkpoint.

Every input is a pure function of the workload seed: the same seed gives
byte-identical scenario files, stream frames and sweep frames.  Each
input draws from its own child stream of the seed, so the stream and the
evaluation split never repeat frames the model was trained on.

Run as a script, this module prepares the inputs of one workload in a
process of its own (see run.py); the workload process only reads them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

from framewatch.checkpoint import save_json
from framewatch.pipeline import RunConfig, pipeline_checkpoint, train_pipeline
from framewatch.rng import RngStream
from framewatch.synth import (ANOMALY_KINDS, SynthSpec, apply_anomaly,
                              generate_normal, generate_scenario,
                              generate_stream)

# Reduced training: the default 50 + 60 epochs take minutes, while 5 + 6
# epochs already meet every criterion 6 floor on the default scenario.
AE_EPOCHS = 5
FLOW_EPOCHS = 6

# Stream: normal frames, then a sustained blob episode at the end.
STREAM_NORMAL = 1960
STREAM_ANOMALOUS = 40

# Evaluation split: 1,000 normal + 3 x 400 anomalous test frames, 200 val.
EVAL_TEST_NORMAL = 1000
EVAL_PER_ANOMALY = 400
EVAL_VAL = 200

# Severity sweep.  The default severities are saturated (AUC 1.000), so
# the grades sit below that ceiling: one SynthSpec field per anomaly type.
SWEEP_GRADES = {
    "dim_light": ("brightness_delta", (-0.002, -0.004)),
    "blob": ("blob_side", (2, 3, 4)),
    "sensor_noise": ("noise_p", (0.001, 0.002, 0.005)),
}
SWEEP_NORMAL = 400
SWEEP_PER_GRADE = 200

# Child-stream keys, one per input, so inputs are independent of each other.
_STREAM_KEY = 0x5354
_EVAL_KEY = 0x4556
_SWEEP_KEY = 0x5357

FIXTURE_CACHE_SIZE = 12


def child_seed(seed: int, key: int) -> int:
    return int(RngStream(seed).derive(key).seed)


def run_config(seed: int) -> RunConfig:
    config = RunConfig(seed=seed)
    config.autoencoder.epochs = AE_EPOCHS
    config.flow.epochs = FLOW_EPOCHS
    return config


def train_spec(seed: int) -> SynthSpec:
    """The default scenario: 400 train, 200 val, 50 + 3 x 20 test frames."""
    return SynthSpec(seed=seed)


def eval_spec(seed: int) -> SynthSpec:
    return SynthSpec(seed=child_seed(seed, _EVAL_KEY), n_train=0,
                     n_val=EVAL_VAL, n_test_normal=EVAL_TEST_NORMAL,
                     n_per_anomaly={k: EVAL_PER_ANOMALY for k in ANOMALY_KINDS})


def sweep_frames(seed: int):
    """Normal frames and, per (type, grade), anomalous frames of that grade.

    Generated in memory: the sweep scores them straight away.
    """
    rng = RngStream(child_seed(seed, _SWEEP_KEY))
    normals = [generate_normal(rng.derive(t), t) for t in range(SWEEP_NORMAL)]
    graded = {}
    base = SWEEP_NORMAL
    for kind, (field, grades) in SWEEP_GRADES.items():
        for grade in grades:
            spec = SynthSpec()
            if field == "blob_side":
                spec.blob_width = spec.blob_height = grade
            else:
                setattr(spec, field, grade)
            frames = []
            for i in range(SWEEP_PER_GRADE):
                t = base + i
                frame, _ = apply_anomaly(generate_normal(rng.derive(t), t), kind,
                                         spec, rng.derive(1_000_000 + t))
                frames.append(frame)
            graded[(kind, grade)] = frames
            base += SWEEP_PER_GRADE
    return normals, graded


def source_key(root: Path) -> str:
    """Digest of the package sources and of this recipe.

    Keys the fixture cache and the checkpoint digest record, so neither
    outlives a change to the code that produced it.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "framewatch").glob("*.py")) + [Path(__file__)]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_digest(state: Path, key: str, seed: int, sha: str) -> tuple[bool, str]:
    """Compare a checkpoint digest with the first one recorded for this
    (sources, seed); record it if it is the first.  Returns (ok, expected)."""
    record = state / "sha" / f"{key}-seed{seed}.txt"
    if record.is_file():
        expected = record.read_text().strip()
        return expected == sha, expected
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(sha + "\n")
    os.replace(tmp, record)
    return True, sha


def fixture_path(state: Path, root: Path, seed: int) -> Path:
    return state / "fixtures" / f"{source_key(root)}-seed{seed}.json"


def build_fixture(state: Path, root: Path, seed: int) -> Path:
    """The trained checkpoint `stream` and `eval` read: the `train`
    workload's job on the same seed.  Cached per (sources, seed)."""
    path = fixture_path(state, root, seed)
    if path.is_file():
        os.utime(path)
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = state / "fixture-scenario"
    shutil.rmtree(scratch, ignore_errors=True)
    dataset = generate_scenario(train_spec(seed), scratch)
    config = run_config(seed)
    trained = train_pipeline(dataset, config)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    save_json(pipeline_checkpoint(trained, config), tmp)
    os.replace(tmp, path)
    cached = sorted(path.parent.glob("*.json"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-FIXTURE_CACHE_SIZE]:
        old.unlink()
    return path


def prepare(workload: str, seed: int, state: Path, root: Path, work: Path) -> None:
    if workload == "train":
        generate_scenario(train_spec(seed), work / "scenario")
        return
    build_fixture(state, root, seed)
    if workload == "stream":
        generate_stream(SynthSpec(), work / "stream", STREAM_NORMAL, "blob",
                        STREAM_ANOMALOUS, stream_seed=child_seed(seed, _STREAM_KEY))
    else:
        generate_scenario(eval_spec(seed), work / "scenario")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    prepare(args.workload, args.seed, args.state, args.root, args.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
