"""Command-line entry point.

Subcommands: gen-synth, train, eval, simulate, print-config.

Exit codes (stable):
    0  success
    2  configuration error (bad JSON, unknown keys, bad values), training
       divergence or non-finite scores
    3  I/O error (missing files or directories, unreadable data, unwritable
       outputs)
    4  dataset protocol violation (anomalous sample in train/val, empty
       val split, empty train split in `train`)
    5  checkpoint error (unreadable or incompatible checkpoint, or one
       built for frames of another size)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import checkpoint as ckpt
from .config import from_dict
from .data_io import (FRAME_PIXELS, FRAME_RATE, FRAME_SIDE, list_frames,
                      load_scenario, read_frame_codes)
from .errors import (CheckpointError, ConfigError, ContractViolationError,
                     EvaluationError, IOFailure, ParseError,
                     ProtocolViolationError, TrainingError, ScoringError)
from .evaluation import scores_to_csv
from .monitor import Action, events_to_csv, run_monitor
from .pipeline import (RunConfig, evaluate_pipeline, pipeline_checkpoint,
                       train_pipeline)
from .scoring import score_frames
from .synth import SynthSpec, generate_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4
EXIT_CHECKPOINT = 5

CHECKPOINT = "checkpoint.fwc"


def _read_json(name: str, what: str):
    """Parsed JSON of the `what` file `name`: IOFailure if it is missing,
    ConfigError if it is not UTF-8 JSON."""
    path = Path(name)
    if not path.is_file():
        state = "is not a file" if path.exists() else "does not exist"
        raise IOFailure(f"{what} file {path} {state}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise ConfigError(f"{path}: unreadable: {exc}") from exc


def _write_json(data, path: Path) -> None:
    """`data` as indented, key-sorted JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def _load_config(args):
    """The command's config, every key and value checked: gen-synth's
    SynthSpec or everyone else's RunConfig, built from the --config file
    (all defaults without one), with --seed applied where given."""
    cls, name = ((SynthSpec, "synth spec") if args.command == "gen-synth"
                 else (RunConfig, "run config"))
    config = from_dict(cls, _read_json(args.config, "config") if args.config else {}, name)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _paths(args, *flags: str) -> list[Path]:
    """The path given by each flag in `flags`; a ConfigError names every
    one left out.  Paths come only from flags, never from the config."""
    missing = [f"--{flag}" for flag in flags if not getattr(args, flag)]
    if missing:
        raise ConfigError(f"{args.command} needs {' and '.join(missing)}")
    return [Path(getattr(args, flag)) for flag in flags]


def _make_out(out: Path, names: tuple[str, ...]) -> None:
    """Create the output directory `out`; IOFailure unless each output
    `names` under it can be written: no non-file sits at its path and the
    directory is writable."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out}: {exc}") from exc
    for name in names:
        path = out / name
        if path.exists() and not path.is_file():
            raise IOFailure(f"output {path} exists and is not a file")
    if not os.access(out, os.W_OK):
        raise IOFailure(f"output directory {out} is not writable")


def cmd_gen_synth(args, spec: SynthSpec) -> int:
    [out] = _paths(args, "out")
    dataset = generate_scenario(spec, out)
    n_anom = sum(label is not None for label in dataset.test.labels)
    print(f"wrote scenario to {out}: {len(dataset.train)} train, "
          f"{len(dataset.val)} val, {len(dataset.test)} test "
          f"({n_anom} anomalous, {len(dataset.taxonomy)} anomaly types)")
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    scenario, out = _paths(args, "scenario", "out")
    _make_out(out, (CHECKPOINT, "train_report.json"))
    dataset = load_scenario(scenario)
    trained = train_pipeline(dataset, config)

    ckpt.save_json(pipeline_checkpoint(trained, config), out / CHECKPOINT)
    report = {
        "autoencoder": asdict(trained.ae_report),
        "flow": asdict(trained.flow_report),
        "threshold": trained.threshold,
        "config": asdict(config),
    }
    _write_json(report, out / "train_report.json")
    print(f"trained on {len(dataset.train)} frames; final val MSE "
          f"{trained.ae_report.val_loss[-1]:.6g}, final val NLL "
          f"{trained.flow_report.val_loss[-1]:.4f}, threshold "
          f"{trained.threshold:.4f}")
    print(f"checkpoint written to {out / CHECKPOINT}")
    return EXIT_OK


def _load_checkpoint(path: Path):
    """(ae, flow, score_config, threshold, threshold_quantile) of the
    checkpoint at `path`; CheckpointError unless its autoencoder reads
    FRAME_PIXELS inputs."""
    data = ckpt.load_json(path)
    ae, flow, score_config, threshold = ckpt.pipeline_from_dict(data)
    if ae.input_dim != FRAME_PIXELS:
        raise CheckpointError(
            f"checkpoint input_dim {ae.input_dim} does not match the "
            f"{FRAME_PIXELS} pixels of a {FRAME_SIDE}x{FRAME_SIDE} frame")
    return ae, flow, score_config, threshold, ckpt.threshold_quantile(data)


def cmd_eval(args, _config: RunConfig) -> int:
    # The config was validated; every setting eval uses is the checkpoint's.
    checkpoint, scenario, out = _paths(args, "checkpoint", "scenario", "out")
    _make_out(out, ("eval_report.json", "scores.csv"))
    ae, flow, score_config, _, quantile = _load_checkpoint(checkpoint)
    dataset = load_scenario(scenario)

    report, scored = evaluate_pipeline(ae, flow, score_config, dataset, quantile)
    (out / "eval_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "scores.csv").write_text(scores_to_csv(scored), encoding="utf-8")

    print(f"overall AUC: {report.overall_auc:.4f}")
    for atype in sorted(report.per_type_auc):
        print(f"  {atype:<16s} AUC {report.per_type_auc[atype]:.4f}")
    for axis in sorted(report.per_axis_auc):
        print(f"  {axis:<16s} AUC {report.per_axis_auc[axis]:.4f}")
    print(f"threshold {report.threshold:.4f} "
          f"(val FPR {report.val_false_positive_rate:.4f})")
    return EXIT_OK


def cmd_simulate(args, config: RunConfig) -> int:
    checkpoint, frames_dir, out = _paths(args, "checkpoint", "scenario", "out")
    _make_out(out, ("monitor_log.csv",))
    ae, flow, score_config, ckpt_threshold, _ = _load_checkpoint(checkpoint)
    if not frames_dir.is_dir():
        raise IOFailure(f"frames directory {frames_dir} does not exist")
    frames = list_frames(frames_dir)
    if not frames:
        raise IOFailure(f"no .pgm frames in {frames_dir}")

    cfg = config.monitor_config(ckpt_threshold)

    def scores():
        start = time.monotonic()
        for index, (_, name, path) in enumerate(frames):
            if args.realtime:
                # Frame `index` is due at start + index / FRAME_RATE, however
                # long the frames before it took to score.
                delay = start + index / FRAME_RATE - time.monotonic()
                if delay > 0.0:
                    time.sleep(delay)
            try:
                codes = read_frame_codes(path)[None]
                score = float(score_frames(ae, flow, codes, score_config)[0])
            except (ParseError, OSError, ContractViolationError, ScoringError) as exc:
                # Fail-safe: an unreadable frame counts as an anomaly.
                print(f"warning: frame {name} unreadable ({exc}); "
                      "logging fail-safe stop", file=sys.stderr)
                score = float("nan")
            yield score

    events = run_monitor(scores(), cfg)
    (out / "monitor_log.csv").write_text(events_to_csv(events), encoding="utf-8")
    stops = [e.frame_index for e in events if e.action is Action.STOP]
    if stops:
        print(f"trigger at frame {stops[0]} (threshold {cfg.threshold:.4f})")
    else:
        print(f"no trigger over {len(events)} frames (threshold {cfg.threshold:.4f})")
    if any(e.fault for e in events):
        print("completed with warnings", file=sys.stderr)
    return EXIT_OK


def cmd_print_config(args, config: RunConfig) -> int:
    print(json.dumps(asdict(config), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framewatch",
        description="Unsupervised visual anomaly detection for robot camera streams")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_text, seed=True, **paths):
        """A subcommand with --config, --seed if `seed`, and one flag for each
        path it reads; `paths` maps each such flag to its help text."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for flag, path_help in paths.items():
            p.add_argument(f"--{flag}", help=path_help)
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(func=func, seed=None)
        return p

    checkpoint = f"pipeline checkpoint written by train ({CHECKPOINT})"
    out = "output directory (all outputs go here)"
    add_command("gen-synth", cmd_gen_synth, "generate a synthetic scenario", out=out)
    add_command("train", cmd_train, "train autoencoder and flow, write checkpoint",
                scenario="scenario directory", out=out)
    add_command("eval", cmd_eval, "score the test split and report AUC", seed=False,
                checkpoint=checkpoint, scenario="scenario directory", out=out)
    p = add_command("simulate", cmd_simulate,
                    "run the deployment monitor over a frame stream", seed=False,
                    checkpoint=checkpoint,
                    scenario=("directory of .pgm frames, processed in frame-number "
                              "order (each name's trailing number)"),
                    out=out)
    p.add_argument("--realtime", action="store_true",
                   help="pace processing at 30 frames per second")
    add_command("print-config", cmd_print_config, "print the effective configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IOFailure, ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ProtocolViolationError as exc:
        print(f"dataset protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (TrainingError, EvaluationError, ScoringError,
            ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
