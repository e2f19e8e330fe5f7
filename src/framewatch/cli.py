"""Command-line entry point.

Subcommands: gen-synth, train, eval, simulate, print-config.

Exit codes (stable):
    0  success
    2  configuration error (bad JSON, unknown keys, bad values), training
       divergence or non-finite scores
    3  I/O error (missing files or directories, unreadable data)
    4  dataset protocol violation (anomalous sample in train/val)
    5  checkpoint error (unreadable or incompatible checkpoint)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import checkpoint as ckpt
from .data_io import FRAME_RATE, Frame, load_scenario, read_frame_pixels
from .errors import (CheckpointError, ConfigError, ContractViolationError,
                     EvaluationError, IOFailure, ParseError,
                     ProtocolViolationError, TrainingError, ScoringError)
from .evaluation import scores_to_csv
from .monitor import Action, MonitorConfig, events_to_csv, run_monitor
from .pipeline import (RunConfig, evaluate_pipeline, pipeline_checkpoint,
                       train_pipeline)
from .scoring import score_frames
from .synth import SynthSpec, generate_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4
EXIT_CHECKPOINT = 5


def _load_run_config(args) -> RunConfig:
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise IOFailure(f"config file {path} does not exist")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
        config = RunConfig.from_dict(data)
    else:
        config = RunConfig.from_dict({})
    if args.seed is not None:
        config.seed = args.seed
        config.autoencoder.seed = args.seed
        config.flow.seed = args.seed
    if getattr(args, "scenario", None):
        config.scenario = args.scenario
    if getattr(args, "out", None):
        config.out = args.out
    return config


def _require_out(config: RunConfig) -> Path:
    if not config.out:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


def _require_scenario(config: RunConfig) -> Path:
    if not config.scenario:
        raise ConfigError("no scenario: pass --scenario or set 'scenario' in the config")
    return Path(config.scenario)


def cmd_gen_synth(args) -> int:
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise IOFailure(f"spec file {path} does not exist")
        try:
            spec = SynthSpec.from_json(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
    else:
        spec = SynthSpec()
    if args.seed is not None:
        spec.seed = args.seed
    if not args.out:
        raise ConfigError("gen-synth needs --out")
    dataset = generate_scenario(spec, args.out)
    n_anom = sum(1 for f in dataset.test if f.is_anomalous)
    print(f"wrote scenario to {args.out}: {len(dataset.train)} train, "
          f"{len(dataset.val)} val, {len(dataset.test)} test "
          f"({n_anom} anomalous, {len(dataset.taxonomy)} anomaly types)")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_run_config(args)
    out = _require_out(config)
    dataset = load_scenario(_require_scenario(config))
    trained = train_pipeline(dataset, config)

    ckpt.save_json(pipeline_checkpoint(trained, config), out / "checkpoint.json")
    report = {
        "autoencoder": {
            "train_loss": trained.ae_report.train_loss,
            "val_loss": trained.ae_report.val_loss,
            "epochs_run": trained.ae_report.epochs_run,
            "warnings": trained.ae_report.warnings,
        },
        "flow": {
            "train_nll": trained.flow_report.train_nll,
            "val_nll": trained.flow_report.val_nll,
            "epochs_run": trained.flow_report.epochs_run,
        },
        "threshold": trained.threshold,
        "seed": config.seed,
        "config": config.to_dict(),
    }
    ckpt.save_json(report, out / "train_report.json")
    print(f"trained on {len(dataset.train)} frames; final val MSE "
          f"{trained.ae_report.val_loss[-1]:.6g}, final val NLL "
          f"{trained.flow_report.val_nll[-1]:.4f}, threshold "
          f"{trained.threshold:.4f}")
    print(f"checkpoint written to {out / 'checkpoint.json'}")
    return EXIT_OK


def _load_pipeline(args):
    if not args.checkpoint:
        raise ConfigError("missing --checkpoint")
    return ckpt.pipeline_from_dict(ckpt.load_json(args.checkpoint))


def cmd_eval(args) -> int:
    config = _load_run_config(args)
    out = _require_out(config)
    ae, flow, score_config, _ = _load_pipeline(args)
    dataset = load_scenario(_require_scenario(config))
    if dataset.train and dataset.train[0].flat().shape[0] != ae.input_dim:
        raise CheckpointError("checkpoint input size does not match scenario frames")

    try:
        report, scored = evaluate_pipeline(ae, flow, score_config, dataset,
                                           config.eval_quantile)
    except (ContractViolationError, ScoringError) as exc:
        raise CheckpointError(f"checkpoint incompatible with scenario: {exc}") from exc
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


def cmd_simulate(args) -> int:
    config = _load_run_config(args)
    out = _require_out(config)
    ae, flow, score_config, ckpt_threshold = _load_pipeline(args)
    frames_dir = _require_scenario(config)
    if not frames_dir.is_dir():
        raise IOFailure(f"frames directory {frames_dir} does not exist")
    paths = sorted(frames_dir.glob("*.pgm"))
    if not paths:
        raise IOFailure(f"no .pgm frames in {frames_dir}")

    threshold = (config.monitor_threshold if config.monitor_threshold is not None
                 else ckpt_threshold)
    cfg = MonitorConfig(threshold=threshold, window=config.monitor_window,
                        consecutive=config.monitor_consecutive)
    warned = False

    def scores():
        nonlocal warned
        for index, path in enumerate(paths):
            if args.realtime and index:
                time.sleep(1.0 / FRAME_RATE)
            try:
                frame = Frame(read_frame_pixels(path))
                score = float(score_frames(ae, flow, [frame], score_config)[0])
            except (ParseError, OSError, ContractViolationError, ScoringError) as exc:
                # Fail-safe: an unreadable frame counts as an anomaly.
                print(f"warning: frame {path.name} unreadable ({exc}); "
                      "logging fail-safe stop", file=sys.stderr)
                warned = True
                score = float("nan")
            yield score

    events = run_monitor(scores(), cfg)
    (out / "monitor_log.csv").write_text(events_to_csv(events), encoding="utf-8")
    stops = [e.frame_index for e in events if e.action is Action.STOP]
    if stops:
        print(f"trigger at frame {stops[0]} (threshold {threshold:.4f})")
    else:
        print(f"no trigger over {len(events)} frames (threshold {threshold:.4f})")
    if warned:
        print("completed with warnings", file=sys.stderr)
    return EXIT_OK


def cmd_print_config(args) -> int:
    config = _load_run_config(args)
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framewatch",
        description="Unsupervised visual anomaly detection for robot camera streams")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_help="scenario directory"):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--checkpoint", help="pipeline checkpoint JSON")
        p.add_argument("--scenario", help=scenario_help)
        p.add_argument("--out", help="output directory (all outputs go here)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("gen-synth", help="generate a synthetic scenario")
    add_common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train autoencoder and flow, write checkpoint")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score the test split and report AUC")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="run the deployment monitor over a frame stream")
    add_common(p, scenario_help="directory of .pgm frames, processed in name order")
    p.add_argument("--realtime", action="store_true",
                   help="cap processing at 30 frames per second")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("print-config", help="print the effective configuration")
    add_common(p)
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IOFailure, ParseError) as exc:
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
