"""The names the benchmark binds in the package still exist, and the
calls it makes into the package still work.

perfbench/worker.py wraps package functions in trace spans by module
attribute. A refactor that drops or renames one of them only shows up in
the traced run's `details.unpatched`, and that run then fails when it reads
the missing span. The bench also builds frames, counts the loaded splits
and scores frame lists and splits; a change to the data's shape that breaks
one of those calls would first fail in a bench run. These tests catch both
in the test suite instead. They read perfbench/ and change nothing there.
"""

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import framewatch.autoencoder
import framewatch.flow
from framewatch import nn
from framewatch.autoencoder import (SCORE_BLOCK_ROWS, AutoencoderConfig, encode_batch,
                                    init_autoencoder, train_autoencoder)
from framewatch.checkpoint import load_json, pipeline_from_dict, pipeline_to_dict, save_json
from framewatch.data_io import (FRAME_PIXELS, FRAME_SIDE, AnomalyLabel, Frame, decode_pgm,
                                load_scenario, resize_bilinear)
from framewatch.evaluation import (RocPoint, auc_from_scores, evaluate, roc_curve,
                                   scores_to_csv)
from framewatch.flow import (FlowConfig, ScoredSample, coupling_forward, init_flow,
                             train_flow)
from framewatch.monitor import Action, MonitorConfig, MonitorState, monitor_step, run_monitor
from framewatch.pipeline import (RunConfig, evaluate_pipeline, pipeline_checkpoint,
                                 train_pipeline)
from framewatch.rng import RngStream
from framewatch.scoring import ScoreConfig, score_frames
from framewatch.synth import (ANOMALY_LABELS, SynthSpec, apply_anomaly, generate_normal,
                             generate_scenario, generate_stream)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("worker")  # also imports kernels
    finally:
        sys.path.remove(str(PERFBENCH))


def _stub_run(worker, tmp_path):
    return SimpleNamespace(seed=0, seconds=1.0, root=PERFBENCH.parent,
                           state=tmp_path / "state", work=tmp_path / "work",
                           tracer=worker.Tracer(enabled=False), checks=[],
                           decoded=0, scored=0, info={})


@pytest.mark.parametrize("name", ["train", "stream", "eval"])
def test_patched_names_exist(worker, tmp_path, name):
    assert name in worker.WORKLOADS
    workload = worker.WORKLOADS[name](_stub_run(worker, tmp_path))
    assert workload.patches
    for module, attr, span in workload.patches:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        # The span is named after the function it times; the patched
        # binding must be that function.
        home, func = span.rsplit(".", 1)
        target = importlib.import_module(f"framewatch.{home}")
        assert getattr(module, attr) is getattr(target, func), \
            f"{module.__name__}.{attr} is not {span}"


def test_mlp_runs_the_timed_dense_kernels(monkeypatch):
    """The bench times nn.dense_forward_batch and nn.dense_backward_batch;
    Mlp.forward and Mlp.backward, which training and scoring run, must go
    through exactly those functions, once per layer."""
    calls = []

    def counted(name):
        original = getattr(nn, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("dense_forward_batch", "dense_backward_batch"):
        monkeypatch.setattr(nn, name, counted(name))
    mlp = nn.init_mlp(RngStream(0), (5, 4, 3), [nn.Activation.LEAKY_RELU] * 2)
    xs = RngStream(1).gaussian(10).reshape(2, 5)
    cache = []
    out = mlp.forward(xs, cache)
    assert calls == ["dense_forward_batch"] * 2
    mlp.backward(cache, out)
    assert calls[2:] == ["dense_backward_batch"] * 2


def test_trainers_step_through_their_modules_adam_bindings(monkeypatch):
    """The traced `train` run wraps autoencoder.adam_step and flow.adam_step
    by name and reads their spans under train_autoencoder. Each trainer must
    take every Adam step through its own module's binding, looked up when it
    runs, or the run finds no span and fails."""
    steps = {}

    def counted(module):
        original = module.adam_step

        def wrapper(*args, **kwargs):
            steps[module.__name__] = steps.get(module.__name__, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for module in (framewatch.autoencoder, framewatch.flow):
        monkeypatch.setattr(module, "adam_step", counted(module))
    frames = RngStream(6).uniform(7 * FRAME_PIXELS).reshape(7, FRAME_PIXELS)
    train_autoencoder(frames[:5], frames[5:],
                      AutoencoderConfig(epochs=1, batch_size=2, latent_dim=4))
    latents = RngStream(7).gaussian(9 * 4).reshape(9, 4)
    train_flow(latents[:7], latents[7:],
               FlowConfig(epochs=1, batch_size=3, num_layers=2, hidden=8))
    assert steps == {"framewatch.autoencoder": 3, "framewatch.flow": 3}


def test_package_calls_the_bench_makes(tmp_path):
    """The calls perfbench/ makes into the package, with the arguments it
    passes: Frame(pixels, source_id=, timestamp=) with .pixels and .flat(),
    len() of each loaded split, apply_anomaly returning a Frame,
    score_frames on a list of Frames, one longer than a scoring block as
    `stream` scores its reference, and on a loaded split, the checkpoint
    round trip (five positional arguments to pipeline_to_dict, a 4-tuple
    back from pipeline_from_dict), and the kernel suite's reads of the
    reloaded autoencoder's layers and parameters, its coupling_forward on a
    whitened latent and evaluate on a list of ScoredSamples."""
    spec = SynthSpec(seed=2, n_train=3, n_val=4, n_test_normal=2,
                     n_per_anomaly={"dim_light": 1, "blob": 1, "sensor_noise": 0})
    generate_scenario(spec, tmp_path / "scenario")
    dataset = load_scenario(tmp_path / "scenario")
    assert [len(dataset.train), len(dataset.val), len(dataset.test)] == [3, 4, 4]

    rng = RngStream(5)
    normal = generate_normal(rng.derive(0), 0)
    frame = Frame(np.clip(normal.pixels, 0.0, 1.0), source_id="frame_000000.pgm",
                  timestamp=0)
    assert (frame.source_id, frame.timestamp) == ("frame_000000.pgm", 0)
    assert frame.pixels.shape == (FRAME_SIDE, FRAME_SIDE)
    assert frame.flat().shape == (FRAME_PIXELS,)
    assert np.shares_memory(frame.flat(), frame.pixels)
    anomalous, label = apply_anomaly(normal, "blob", spec, rng.derive(1))
    assert isinstance(anomalous, Frame) and isinstance(label, AnomalyLabel)
    assert anomalous.timestamp == normal.timestamp

    ae = init_autoencoder(RngStream(3), 4)
    flow = init_flow(RngStream(4), 4, num_layers=2, hidden=8)
    scores = score_frames(ae, flow, [frame, anomalous], ScoreConfig())
    assert scores.shape == (2,) and np.isfinite(scores).all()
    single = score_frames(ae, flow, [frame], ScoreConfig())
    assert single.shape == (1,)
    reference = score_frames(ae, flow, [frame] * (SCORE_BLOCK_ROWS + 1), ScoreConfig())
    assert np.allclose(reference, single[0], rtol=1e-6, atol=0.0)
    assert score_frames(ae, flow, dataset.val, ScoreConfig()).shape == (4,)

    path = tmp_path / "kernel_checkpoint.json"
    save_json(pipeline_to_dict(ae, flow, ScoreConfig(), 1.5, 0.99), path)
    ae, flow, score_config, threshold = pipeline_from_dict(load_json(path))
    assert isinstance(score_config, ScoreConfig) and threshold == 1.5
    assert [(layer.in_dim, layer.out_dim) for layer in ae.encoder.layers
            + ae.decoder.layers] == [(FRAME_PIXELS, 512), (512, 128), (128, 4),
                                     (4, 128), (128, 512), (512, FRAME_PIXELS)]
    assert [p.shape for p in ae.params()][:2] == [(512, FRAME_PIXELS), (512,)]

    latent = encode_batch(ae, frame.flat()[None, :])
    y, log_det = coupling_forward(flow.layers[0], flow.whiten(latent)[0])
    assert y.shape == (flow.dim,) and type(log_det) is float
    neg_scores = np.array([0.1, 0.3, 0.2])
    scored = [ScoredSample(f"normal/{i}", float(s)) for i, s in enumerate(neg_scores)]
    scored += [ScoredSample(f"blob/2/{i}", float(s), anomaly_type="blob")
               for i, s in enumerate([0.25, 0.4])]
    report = evaluate(scored, ANOMALY_LABELS, neg_scores)
    assert report.counts == {"normal": 3, "anomalous": 2, "type:blob": 2}
    assert report.per_type_auc == {"blob": report.overall_auc}


def test_pipeline_monitor_and_stream_calls_the_bench_makes(tmp_path):
    """The calls perfbench/ makes that the case above does not: RunConfig
    with its epochs, monitor settings and eval quantile; train_pipeline to
    val_scores and threshold, and pipeline_checkpoint, whose reloaded model
    scores the val split to those val_scores bit for bit; evaluate_pipeline
    to (report, scored), with the report's AUCs and JSON, roc_curve and
    scores_to_csv; the monitor built from the checkpoint's threshold and
    stepped frame by frame as run_monitor folds it; and the stream's
    generate_stream, decode_pgm, resize_bilinear and auc_from_scores."""
    spec = SynthSpec(seed=2, n_train=3, n_val=4, n_test_normal=2,
                     n_per_anomaly={"dim_light": 1, "blob": 1, "sensor_noise": 0})
    generate_scenario(spec, tmp_path / "scenario")
    dataset = load_scenario(tmp_path / "scenario")
    config = RunConfig(seed=3)
    config.autoencoder.epochs = config.flow.epochs = 1
    assert type(config.monitor_window) is int and type(config.monitor_consecutive) is int
    assert 0.0 < config.eval_quantile < 1.0

    trained = train_pipeline(dataset, config)
    assert trained.val_scores.shape == (len(dataset.val),)
    assert type(trained.threshold) is float
    path = tmp_path / "checkpoint.fwc"
    save_json(pipeline_checkpoint(trained, config), path)
    ae, flow, score_config, threshold = pipeline_from_dict(load_json(path))
    assert threshold == trained.threshold
    assert np.array_equal(score_frames(ae, flow, dataset.val, score_config),
                          trained.val_scores)

    report, scored = evaluate_pipeline(ae, flow, score_config, dataset,
                                       config.eval_quantile)
    assert set(report.per_type_auc) == {"dim_light", "blob"}
    assert isinstance(report.overall_auc, float)
    assert json.loads(report.to_json())["overall_auc"] == report.overall_auc
    assert len(scored) == len(dataset.test)
    assert all(isinstance(point, RocPoint) for point in roc_curve(scored))
    assert len(scores_to_csv(scored).splitlines()) == len(scored) + 1

    generate_stream(SynthSpec(), tmp_path / "stream", 2, "blob", 1, stream_seed=5)
    paths = sorted((tmp_path / "stream").glob("*.pgm"))
    assert len(paths) == 3
    monitor = MonitorConfig(threshold=threshold, window=config.monitor_window,
                            consecutive=config.monitor_consecutive)
    state, scores, actions = MonitorState(), [], []
    for path in paths:
        pixels, width, height = decode_pgm(path.read_bytes())
        assert pixels.shape == (height, width) == (FRAME_SIDE, FRAME_SIDE)
        score = float(score_frames(ae, flow, [Frame(pixels)], score_config)[0])
        state, action = monitor_step(state, score, monitor)
        assert isinstance(action, Action)
        scores.append(score)
        actions.append(action)
    assert [event.action for event in run_monitor(scores, monitor)] == actions
    assert resize_bilinear(np.full((48, 80), 0.5)).shape == (FRAME_SIDE, FRAME_SIDE)
    assert auc_from_scores(np.array([2.0, 3.0]), np.array([1.0, 2.5])) == 0.75


def test_kernel_suite_calls_on_a_trained_reloaded_model(tmp_path):
    """The nn calls the kernel suite makes, on a model train_pipeline
    returned and the checkpoint reloaded: dense_forward_batch and the
    three-argument dense_backward_batch on every encoder and decoder layer
    with float64 inputs, and adam_step over ae.params() with float64
    gradients and fresh AdamState.zeros_like moments.  adam_step refuses
    mixed dtypes, so a model that reloads any parameter in another dtype
    fails here as it fails the traced kernel suite."""
    spec = SynthSpec(seed=2, n_train=3, n_val=4, n_test_normal=2,
                     n_per_anomaly={"dim_light": 1, "blob": 1, "sensor_noise": 0})
    generate_scenario(spec, tmp_path / "scenario")
    config = RunConfig(seed=3)
    config.autoencoder.epochs = config.flow.epochs = 1
    trained = train_pipeline(load_scenario(tmp_path / "scenario"), config)
    path = tmp_path / "checkpoint.fwc"
    save_json(pipeline_checkpoint(trained, config), path)
    ae = pipeline_from_dict(load_json(path))[0]

    rng = RngStream(8)
    for layer in ae.encoder.layers + ae.decoder.layers:
        xs = rng.uniform(2 * layer.in_dim).reshape(2, layer.in_dim)
        grad = rng.gaussian(2 * layer.out_dim).reshape(2, layer.out_dim) * 1e-3
        assert nn.dense_forward_batch(layer, xs).shape == (2, layer.out_dim)
        grad_inputs, grad_weights, grad_bias = nn.dense_backward_batch(layer, xs, grad)
        assert grad_inputs.shape == xs.shape
        assert grad_weights.shape == layer.weights.shape
        assert grad_bias.shape == layer.bias.shape
    params = ae.params()
    before = [p.copy() for p in params]
    grads = [rng.gaussian(p.size).reshape(p.shape) * 1e-3 for p in params]
    nn.adam_step(params, grads, nn.AdamState.zeros_like(params))
    assert all(not np.array_equal(p, b) for p, b in zip(ae.params(), before))
