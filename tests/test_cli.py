import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framewatch import cli
from framewatch.checkpoint import load_json, pipeline_from_dict, save_json
from framewatch.cli import main
from framewatch.data_io import (FRAME_SIDE, Frame, encode_pgm, load_scenario,
                                read_frame_pixels)
from framewatch.scoring import score_frames

SMALL_SYNTH = {
    "seed": 7,
    "n_train": 12,
    "n_val": 6,
    "n_test_normal": 6,
    "n_per_anomaly": {"dim_light": 3, "blob": 3, "sensor_noise": 3},
}

SMALL_RUN = {
    "seed": 7,
    "autoencoder": {"epochs": 4, "batch_size": 8, "latent_dim": 16},
    "flow": {"epochs": 6, "batch_size": 8, "num_layers": 4, "hidden": 16},
}


def _tree_bytes(root: Path):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated scenario + trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SMALL_SYNTH))
    run_cfg = root / "run.json"
    run_cfg.write_text(json.dumps(SMALL_RUN))
    scen = root / "scen"
    out = root / "out"
    assert main(["gen-synth", "--config", str(synth_cfg), "--out", str(scen)]) == 0
    assert main(["train", "--config", str(run_cfg), "--scenario", str(scen),
                 "--out", str(out)]) == 0
    return root


def test_gen_synth_output_loads(workspace):
    ds = load_scenario(workspace / "scen")
    assert len(ds.train) == 12 and len(ds.val) == 6 and len(ds.test) == 15


def test_gen_synth_rerun_identical(workspace, tmp_path):
    again = tmp_path / "scen2"
    assert main(["gen-synth", "--config", str(workspace / "synth.json"),
                 "--out", str(again)]) == 0
    assert _tree_bytes(again) == _tree_bytes(workspace / "scen")


def test_gen_synth_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken")
    assert main(["gen-synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "line" in capsys.readouterr().err


def test_gen_synth_unknown_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_trian": 5}')
    assert main(["gen-synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_train_writes_checkpoint_and_report(workspace):
    out = workspace / "out"
    assert (out / "checkpoint.fwc").is_file()
    raw = (out / "train_report.json").read_bytes()
    report = json.loads(raw)
    assert raw == (json.dumps(report, indent=1, sort_keys=True) + "\n").encode()
    assert report["autoencoder"]["epochs_run"] == 4
    assert report["flow"]["epochs_run"] == 6


def test_train_rejects_anomalous_train_file(workspace, tmp_path):
    import shutil
    poisoned = tmp_path / "poisoned"
    shutil.copytree(workspace / "scen", poisoned)
    labels = (poisoned / "labels.csv").read_text()
    labels += "train_00000.pgm,anomalous,tape,semantic,yes,yes,\n"
    (poisoned / "labels.csv").write_text(labels)
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--scenario", str(poisoned),
                 "--out", str(tmp_path / "out")]) == 4


def test_eval_writes_report_and_scores(workspace, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(workspace / "scen"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert set(report["per_type_auc"]) == {"dim_light", "blob", "sensor_noise"}
    rows = (out / "scores.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 15  # header + test split size


def test_eval_corrupted_checkpoint(workspace, tmp_path):
    bad = tmp_path / "bad.fwc"
    bad.write_text("{oops")
    assert main(["eval", "--checkpoint", str(bad),
                 "--scenario", str(workspace / "scen"),
                 "--out", str(tmp_path / "o")]) == 5


def test_eval_non_finite_scores_exits_2(workspace, tmp_path, capsys):
    """Non-finite scores from a checkpoint that fits the frames are a
    scoring failure (exit 2), not an incompatible checkpoint (exit 5)."""
    data = load_json(workspace / "out" / "checkpoint.fwc")
    encoder = data["autoencoder"]["encoder"]
    encoder["weights"] = [w * 1e120 for w in encoder["weights"]]
    path = tmp_path / "checkpoint.fwc"
    save_json(data, path)
    with np.errstate(all="ignore"):
        code = main(["eval", "--config", str(workspace / "run.json"),
                     "--checkpoint", str(path), "--scenario", str(workspace / "scen"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error: non-finite log-density from the flow\n"


def test_eval_missing_scenario(workspace, tmp_path):
    assert main(["eval", "--checkpoint", str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 3


def test_eval_empty_val_split_exits_4(workspace, tmp_path, capsys):
    import shutil
    scen = tmp_path / "scen"
    shutil.copytree(workspace / "scen", scen)
    for path in (scen / "val").glob("*.pgm"):
        path.unlink()
    assert main(["eval", "--checkpoint", str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("dataset protocol violation: ") and err.count("\n") == 1


def _truncate_frame(scen):
    path = scen / "test" / "test_00003.pgm"
    path.write_bytes(path.read_bytes()[:15])


def _unlabelled_frame(scen):
    (scen / "test" / "test_00099.pgm").write_bytes(
        encode_pgm(np.full((FRAME_SIDE, FRAME_SIDE), 0.5)))


@pytest.mark.parametrize("edit, message", [
    (_truncate_frame, "test/test_00003.pgm: truncated PGM payload at byte 15: "
                      "expected 4096 pixel bytes, got 2"),
    (_unlabelled_frame, "test file test_00099.pgm has no labels.csv entry"),
], ids=["truncated-frame", "unlabelled-frame"])
def test_eval_bad_frame_exits_3_naming_it(workspace, tmp_path, capsys, edit, message):
    """A frame that cannot be loaded exits 3 with one line that names its
    file, so it can be found among thousands."""
    import shutil
    scen = tmp_path / "scen"
    shutil.copytree(workspace / "scen", scen)
    edit(scen)
    assert main(["eval", "--checkpoint", str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"i/o error: {message}\n"


def test_train_empty_train_split_exits_4(workspace, tmp_path, capsys):
    import shutil
    scen = tmp_path / "scen"
    shutil.copytree(workspace / "scen", scen)
    for path in (scen / "train").glob("*.pgm"):
        path.unlink()
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == \
        "dataset protocol violation: train split is empty\n"


def _relabel(rows):
    """Rows 8 and 9 of labels.csv (test_00006/7.pgm, both dim_light) as one
    type with two axis sets."""
    rows[7] = "test_00006.pgm,anomalous,tape,semantic,yes,yes,"
    rows[8] = "test_00007.pgm,anomalous,tape,sensory,no,no,"


def _orphan_row(rows):
    rows.append("test_00077.pgm,anomalous,glare,sensory,no,no,")


@pytest.mark.parametrize("edit, message", [
    (_relabel, "labels.csv lines 8 and 9: anomaly type 'tape' has different axes"),
    (_orphan_row, "labels.csv row for test_00077.pgm names no file in any split"),
], ids=["conflicting-axes", "orphan-row"])
def test_inconsistent_labels_exit_3(workspace, tmp_path, capsys, edit, message):
    import shutil
    scen = tmp_path / "scen"
    shutil.copytree(workspace / "scen", scen)
    rows = (scen / "labels.csv").read_text().splitlines()
    edit(rows)
    (scen / "labels.csv").write_text("\n".join(rows) + "\n")
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"i/o error: {message}\n"


def test_simulate_normal_stream_no_trigger(workspace, tmp_path, capsys):
    from framewatch.synth import SynthSpec, generate_stream
    stream = tmp_path / "stream"
    generate_stream(SynthSpec(**SMALL_SYNTH), stream, n_normal=40)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(stream), "--out", str(out)]) == 0
    assert "no trigger" in capsys.readouterr().out
    log = (out / "monitor_log.csv").read_text().strip().split("\n")
    assert len(log) == 41


def test_simulate_anomalous_stream_triggers(workspace, tmp_path, capsys):
    """The stream triggers, and each logged score (one frame scored as a
    batch of one) agrees with one score_frames call over the whole stream.
    Not bit for bit: a one-row product runs a different BLAS kernel, and
    the two differ by up to about 1e-12 relative."""
    from framewatch.synth import SynthSpec, generate_stream
    stream = tmp_path / "stream"
    generate_stream(SynthSpec(**SMALL_SYNTH), stream, n_normal=30,
                    anomaly_kind="dim_light", n_anomalous=40)
    out = tmp_path / "sim"
    checkpoint = workspace / "out" / "checkpoint.fwc"
    assert main(["simulate", "--config", str(workspace / "run.json"),
                 "--checkpoint", str(checkpoint),
                 "--scenario", str(stream), "--out", str(out)]) == 0
    assert "trigger at frame" in capsys.readouterr().out

    ae, flow, score_config, _ = pipeline_from_dict(load_json(checkpoint))
    frames = [Frame(read_frame_pixels(p)) for p in sorted(stream.glob("*.pgm"))]
    batch = score_frames(ae, flow, frames, score_config)
    with open(out / "monitor_log.csv", newline="") as log:
        logged = [float(row["score"]) for row in csv.DictReader(log)]
    assert logged == pytest.approx(batch.tolist(), rel=1e-9)


def test_simulate_unreadable_frame_fails_safe(workspace, tmp_path, capsys):
    stream = tmp_path / "stream"
    stream.mkdir()
    (stream / "frame_000000.pgm").write_bytes(
        encode_pgm(np.full((FRAME_SIDE, FRAME_SIDE), 0.5)))
    (stream / "frame_000001.pgm").write_bytes(b"P5 garbage")
    out = tmp_path / "sim"
    assert main(["simulate", "--checkpoint",
                 str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(stream), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "trigger at frame 1" in captured.out


def test_simulate_missing_frames_dir(workspace, tmp_path):
    assert main(["simulate", "--checkpoint",
                 str(workspace / "out" / "checkpoint.fwc"),
                 "--scenario", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 3


def test_write_json_bytes_match_json_dumps(tmp_path):
    data = {"note": ["\u00e9", -0.0, 5e-324, {"b": None, "a": [True, 1.5e300]}],
            "threshold": 3.5, "config": {"seed": 7}}
    path = tmp_path / "train_report.json"
    cli._write_json(data, path)
    expected = json.dumps(data, indent=1, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_print_config_defaults(capsys):
    assert main(["print-config"]) == 0
    config = json.loads(capsys.readouterr().out)
    assert config["seed"] == 7
    assert config["autoencoder"]["epochs"] == 50
    assert config["eval_quantile"] == 0.99


def test_print_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"sede": 1}')
    assert main(["print-config", "--config", str(bad)]) == 2


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 3}')
    assert main(["print-config", "--config", str(cfg), "--seed", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11


@pytest.mark.parametrize("command, output", [("train", "checkpoint.fwc"),
                                             ("train", "train_report.json"),
                                             ("eval", "scores.csv"),
                                             ("simulate", "monitor_log.csv")])
def test_unwritable_output_exits_3(workspace, tmp_path, capsys, monkeypatch,
                                   command, output):
    """An output file that cannot be written (here, a directory already
    sits at its path) is an I/O error: exit 3, one line.  `train` finds it
    before training starts."""
    def no_training(*args, **kwargs):
        raise AssertionError("train_pipeline ran before the output check")

    monkeypatch.setattr(cli, "train_pipeline", no_training)
    out = tmp_path / "o"
    (out / output).mkdir(parents=True)
    scenario = workspace / "scen" / ("test" if command == "simulate" else "")
    argv = [command, "--config", str(workspace / "run.json"),
            "--scenario", str(scenario), "--out", str(out)]
    if command != "train":
        argv += ["--checkpoint", str(workspace / "out" / "checkpoint.fwc")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_train_determinism_byte_identical(workspace, tmp_path):
    out2 = tmp_path / "out2"
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--scenario", str(workspace / "scen"),
                 "--out", str(out2)]) == 0
    a = (workspace / "out" / "checkpoint.fwc").read_bytes()
    b = (out2 / "checkpoint.fwc").read_bytes()
    assert a == b


def test_train_bytes_independent_of_hash_seed_and_blas_threads(workspace, tmp_path):
    """`gen-synth` then `train` in fresh interpreters, once with string
    hash seed 0 and one BLAS thread and once with hash seed 1 and two,
    write the same checkpoint and training report byte for byte."""
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for hash_seed, threads in (("0", "1"), ("1", "2")):
        root = tmp_path / f"hash{hash_seed}-threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS=threads)
        for argv in (["gen-synth", "--config", str(workspace / "synth.json"),
                      "--out", str(root / "scen")],
                     ["train", "--config", str(workspace / "run.json"),
                      "--scenario", str(root / "scen"), "--out", str(root / "out")]):
            subprocess.run([sys.executable, "-m", "framewatch.cli", *argv], env=env,
                           check=True, capture_output=True)
        outputs.append([(root / "out" / name).read_bytes()
                        for name in ("checkpoint.fwc", "train_report.json")])
    assert outputs[0] == outputs[1]


BAD_CONFIGS = {
    "string_seed": {"seed": "x"},
    "bool_seed": {"seed": True},
    "string_epochs": {"autoencoder": {"epochs": "3"}},
    "float_flow_hidden": {"flow": {"hidden": 16.0}},
    "string_alpha": {"score_alpha": "0.5"},
    "null_window": {"monitor_window": None},
    "list_threshold": {"monitor_threshold": [1.0]},
    "section_not_object": {"flow": 3},
    "zero_window": {"monitor_window": 0},
    "zero_consecutive": {"monitor_consecutive": 0},
    "alpha_above_one": {"score_alpha": 2},
    "quantile_above_one": {"eval_quantile": 1.5},
    "zero_flow_epochs": {"flow": {"epochs": 0}},
    "zero_autoencoder_batch_size": {"autoencoder": {"batch_size": 0}},
    "zero_latent_dim": {"autoencoder": {"latent_dim": 0}},
    "zero_flow_layers": {"flow": {"num_layers": 0}},
    "zero_flow_hidden": {"flow": {"hidden": 0}},
    "negative_autoencoder_lr": {"autoencoder": {"lr": -1}},
    "zero_flow_epsilon": {"flow": {"epsilon": 0}},
    "autoencoder_beta1_one": {"autoencoder": {"beta1": 1.0}},
    "negative_flow_beta2": {"flow": {"beta2": -0.1}},
    "zero_scale_clamp": {"flow": {"scale_clamp": 0}},
    "nan_threshold": {"monitor_threshold": float("nan")},
    "infinite_threshold": {"monitor_threshold": float("inf")},
    "negative_infinite_threshold": {"monitor_threshold": float("-inf")},
    "autoencoder_seed": {"autoencoder": {"seed": 3}},
    "flow_seed": {"flow": {"seed": 3}},
    "out_path": {"out": "o"},
    "scenario_path": {"scenario": "scen"},
    "not_utf8": b'\xff\xfe{"seed": 7}',
    "deeply_nested": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["print-config", "train"])
@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2(workspace, tmp_path, capsys, command, name):
    """Each type or range error is reported at load: exit 2, one line."""
    cfg = tmp_path / "cfg.json"
    bad = BAD_CONFIGS[name]
    if isinstance(bad, bytes):
        cfg.write_bytes(bad)
    else:
        cfg.write_text(json.dumps({**SMALL_RUN, **bad}))
    argv = [command, "--config", str(cfg)]
    if command == "train":
        argv += ["--scenario", str(workspace / "scen"), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "o" / "checkpoint.fwc").exists()


@pytest.mark.parametrize("name, message", [
    ("zero_window", "monitor_window must be >= 1, got 0"),
    ("zero_consecutive", "monitor_consecutive must be >= 1, got 0"),
    ("nan_threshold", "monitor_threshold must be finite, got nan"),
])
def test_monitor_errors_name_config_keys(tmp_path, capsys, name, message):
    """The monitor settings are checked by MonitorConfig, in messages that
    name the run-config keys."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_CONFIGS[name]))
    assert main(["print-config", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_types_positive_control(workspace, tmp_path, capsys):
    """Ints where floats are declared and null where allowed are accepted,
    and the run trains and simulates with them."""
    good = {**SMALL_RUN, "score_alpha": 1, "monitor_threshold": None,
            "monitor_window": 1, "monitor_consecutive": 1,
            "flow": {**SMALL_RUN["flow"], "scale_clamp": 3}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(good))
    assert main(["print-config", "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["score_alpha"] == 1 and printed["monitor_threshold"] is None
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--scenario", str(workspace / "scen"),
                 "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(cfg), "--checkpoint",
                 str(out / "checkpoint.fwc"), "--scenario",
                 str(workspace / "scen" / "test"), "--out", str(tmp_path / "sim")]) == 0
    assert (tmp_path / "sim" / "monitor_log.csv").is_file()


BAD_SYNTH_SPECS = {
    "string_count": {"n_train": "5"},
    "bool_count": {"n_val": True},
    "string_anomaly_count": {"n_per_anomaly": {"blob": "3"}},
    "anomaly_counts_not_object": {"n_per_anomaly": [3]},
    "float_blob_width": {"blob_width": 4.0},
    "spec_not_object": [1, 2],
    "negative_blob_width": {"blob_width": -3},
    "zero_blob_height": {"blob_height": 0},
    "blob_wider_than_frame": {"blob_width": FRAME_SIDE + 36},
    "blob_intensity_above_one": {"blob_intensity": 7},
    "negative_blob_intensity": {"blob_intensity": -0.1},
    "brightness_delta_below_minus_one": {"brightness_delta": -1.5},
    "no_normal_test_frames": {"n_test_normal": 0},
    "no_anomalous_test_frames": {"n_per_anomaly": {"blob": 0, "dim_light": 0}},
    "no_val_frames": {"n_val": 0},
    "not_utf8": b"\xff\xfe{}",
    "deeply_nested": b"[" * 100_000,
}


@pytest.mark.parametrize("name", sorted(BAD_SYNTH_SPECS))
def test_bad_synth_spec_exits_2(tmp_path, capsys, name):
    """A wrong value type or an out-of-range value in a synth spec is
    reported at load, before any file is written: exit 2, one line."""
    spec = tmp_path / "spec.json"
    bad = BAD_SYNTH_SPECS[name]
    if isinstance(bad, bytes):
        spec.write_bytes(bad)
    else:
        spec.write_text(json.dumps(bad))
    assert main(["gen-synth", "--config", str(spec), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_synth_spec_types_positive_control(tmp_path):
    """Ints where floats are declared and per-kind counts are accepted."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SMALL_SYNTH, "brightness_delta": -1, "noise_p": 0,
                                "blob_width": 1, "blob_height": FRAME_SIDE,
                                "blob_intensity": 1,
                                "n_per_anomaly": {"blob": 2}}))
    assert main(["gen-synth", "--config", str(spec), "--out", str(tmp_path / "o")]) == 0
    ds = load_scenario(tmp_path / "o")
    assert len(ds.test) == SMALL_SYNTH["n_test_normal"] + 2


@pytest.mark.parametrize("command, flag", [("gen-synth", "--checkpoint"),
                                           ("gen-synth", "--scenario"),
                                           ("train", "--checkpoint"),
                                           ("print-config", "--checkpoint")])
def test_command_rejects_flag_it_does_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_print_config_reads_no_path(capsys):
    for flag in ("--scenario", "--out"):
        with pytest.raises(SystemExit) as exc:
            main(["print-config", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


PATH_FLAGS = {"gen-synth": ("--out",),
              "train": ("--scenario", "--out"),
              "eval": ("--checkpoint", "--scenario", "--out"),
              "simulate": ("--checkpoint", "--scenario", "--out")}


@pytest.mark.parametrize("command, missing", [
    (command, flag) for command, flags in PATH_FLAGS.items() for flag in flags])
def test_missing_path_flag_exits_2(workspace, tmp_path, capsys, command, missing):
    """A command run without a path flag it reads exits 2 with one line
    naming that flag, before it creates its output directory."""
    given = {"--checkpoint": str(workspace / "out" / "checkpoint.fwc"),
             "--scenario": str(workspace / "scen" / ("test" if command == "simulate"
                                                     else "")),
             "--out": str(tmp_path / "o")}
    argv = [command, "--config", str(workspace / ("synth.json" if command == "gen-synth"
                                                  else "run.json"))]
    for flag in PATH_FLAGS[command]:
        if flag != missing:
            argv += [flag, given[flag]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {command} needs {missing}\n"
    assert not (tmp_path / "o").exists()


def test_config_directory_exits_3(tmp_path, capsys):
    assert main(["print-config", "--config", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"i/o error: config file {tmp_path} is not a file\n"


def test_train_outputs_do_not_depend_on_paths(workspace, tmp_path, monkeypatch):
    """Two runs of one config that differ only in --out and in the spelling
    of --scenario write byte-identical train_report.json and checkpoint:
    the report records the experiment, not where it read or wrote."""
    monkeypatch.chdir(workspace)
    for scenario, out in (("scen", tmp_path / "a"), ("./scen", tmp_path / "b")):
        assert main(["train", "--config", "run.json", "--scenario", scenario,
                     "--out", str(out)]) == 0
    for name in (cli.CHECKPOINT, "train_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_realtime_paces_against_start_clock(workspace, tmp_path, monkeypatch):
    """Under --realtime, frame i is scored at start + i / 30 s, or at once
    if the frames before it ran late; the time spent scoring does not add
    to the pace.  A fake clock advances only in `sleep` and in scoring,
    which takes 10 ms a frame and 80 ms on frame 3."""
    clock = {"now": 100.0}
    started = []
    cost = [0.010] * 15
    cost[3] = 0.080
    score = cli.score_frames

    def timed_score(*args):
        started.append(clock["now"] - 100.0)
        clock["now"] += cost[len(started) - 1]
        return score(*args)

    def sleep(seconds):
        assert seconds > 0.0
        clock["now"] += seconds

    monkeypatch.setattr(cli, "score_frames", timed_score)
    monkeypatch.setattr(cli.time, "monotonic", lambda: clock["now"])
    monkeypatch.setattr(cli.time, "sleep", sleep)
    argv = ["simulate", "--checkpoint", str(workspace / "out" / "checkpoint.fwc"),
            "--scenario", str(workspace / "scen" / "test"), "--out", str(tmp_path / "sim")]
    assert main(argv + ["--realtime"]) == 0
    expected, end = [], 0.0
    for i in range(15):
        expected.append(max(i / 30.0, end))
        end = expected[-1] + cost[i]
    assert started == pytest.approx(expected, abs=1e-9)

    started.clear()
    monkeypatch.setattr(cli.time, "sleep", lambda seconds: pytest.fail("slept"))
    assert main(argv) == 0
    assert len(started) == 15
