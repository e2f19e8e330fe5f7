"""Kernel spans of the traced run.

Each kernel is called on its own, many times, through its public
function, and timed as one span per call:

* the `nn` calls at the `train` shapes: `dense_forward_batch` and
  `dense_backward_batch` at batch 64 for the six autoencoder layers, and
  one `adam_step` over all autoencoder parameters;
* the batch-1 calls a `stream` frame makes: `encode_batch`,
  `flow_log_prob_batch`, `coupling_forward`, `score_frames`, `monitor_step`
  and `decode_pgm`;
* batched `score_frames` in both score modes, and the `evaluation` calls
  of an `eval` pass, on the severity-sweep scores;
* `save_json` of the model's full checkpoint, when the workload's own job
  did not already save one.

The suite runs the same way in every workload, on that workload's model,
so each of its metrics exists on every workload.  FLOPs and bytes moved
are computed from the array shapes, not counted, and are labelled so.
"""

from __future__ import annotations

from pathlib import Path

from framewatch import nn
from framewatch.autoencoder import encode_batch
from framewatch.checkpoint import pipeline_to_dict, save_json
from framewatch.data_io import decode_pgm, encode_pgm
from framewatch.evaluation import evaluate, roc_curve, scores_to_csv
from framewatch.flow import ScoredSample, coupling_forward, flow_log_prob_batch
from framewatch.monitor import MonitorConfig, MonitorState, monitor_step
from framewatch.rng import RngStream
from framewatch.scoring import ScoreConfig, score_frames
from framewatch.synth import ANOMALY_LABELS

BATCH = 64
REPS_DENSE = 12
REPS_ADAM = 5
REPS_BATCH1 = 300
REPS_COUPLING = 1000
REPS_MONITOR = 3000
REPS_DECODE = 1000
REPS_BATCHED = 3
REPS_EVAL = 5

# Per-element cost of adam_step as written: 3 FLOPs for the first moment,
# 4 for the second, 2 bias corrections, then sqrt, +eps, lr*, / and -.
ADAM_FLOPS_PER_PARAM = 14
# Minimum traffic: read param, grad, m, v and write param, m, v (float64).
ADAM_BYTES_PER_PARAM = 7 * 8


def _shape(layer) -> str:
    return f"{layer.in_dim}x{layer.out_dim}"


def dense_cost(n: int, i: int, o: int) -> dict:
    """Computed FLOPs and bytes of one dense call at batch n, in -> out.

    Forward: x @ W.T is 2*n*i*o FLOPs.  Backward: the useful work is the
    input gradient and the weight gradient, 4*n*i*o; the pre-activation
    that dense_backward_batch recomputes is not counted.  Bytes: each
    float64 operand read and each result written once.
    """
    return {
        "fwd": {"flops": 2 * n * i * o, "bytes": 8 * (n * i + i * o + o + n * o)},
        "bwd": {"flops": 4 * n * i * o,
                "bytes": 8 * (n * i + i * o + n * o + n * i + i * o + o)},
    }


def run_suite(tracer, seed_key: int, ae, flow, score_config: ScoreConfig,
              threshold: float, sweep_data, work: Path,
              save_checkpoint: bool) -> tuple[dict, dict]:
    """Run every kernel under spans; returns (metrics, computed costs)."""
    span = tracer.span
    rng = RngStream(seed_key)
    normals, neg_scores, graded_scores = sweep_data
    metrics: dict[str, float] = {}
    computed: dict[str, dict] = {}

    layers = ae.encoder.layers + ae.decoder.layers
    for layer in layers:
        shape = _shape(layer)
        xs = rng.uniform(BATCH * layer.in_dim).reshape(BATCH, layer.in_dim)
        grad = rng.gaussian(BATCH * layer.out_dim).reshape(BATCH, layer.out_dim) * 1e-3
        cost = dense_cost(BATCH, layer.in_dim, layer.out_dim)
        for _ in range(REPS_DENSE):
            with span("nn.dense_forward_batch", shape=shape, **cost["fwd"], computed=True):
                nn.dense_forward_batch(layer, xs)
        for _ in range(REPS_DENSE):
            with span("nn.dense_backward_batch", shape=shape, **cost["bwd"], computed=True):
                nn.dense_backward_batch(layer, xs, grad)
        for kind, name in (("fwd", "dense_forward_batch"), ("bwd", "dense_backward_batch")):
            seconds = tracer.median(f"nn.{name}", shape=shape)
            metrics[f"nn.{name}_ms.{shape}"] = seconds * 1e3
            computed[f"nn.{name}.{shape}"] = dict(cost[kind], batch=BATCH,
                                                   computed=True)
        if shape == "4096x512":
            for kind, name in (("fwd", "dense_forward_batch"), ("bwd", "dense_backward_batch")):
                metrics[f"nn.dense_gflops.{shape}.{kind}"] = (
                    cost[kind]["flops"] / metrics[f"nn.{name}_ms.{shape}"] / 1e6)

    params = ae.params()
    n_params = sum(p.size for p in params)
    grads = [rng.gaussian(p.size).reshape(p.shape) * 1e-3 for p in params]
    state = nn.AdamState.zeros_like(params)
    adam_cost = {"flops": ADAM_FLOPS_PER_PARAM * n_params,
                 "bytes": ADAM_BYTES_PER_PARAM * n_params}
    for _ in range(REPS_ADAM):
        with span("nn.adam_step", params=n_params, **adam_cost, computed=True):
            nn.adam_step(params, grads, state)
    metrics["nn.adam_step_ms"] = tracer.median("nn.adam_step", params=n_params) * 1e3
    computed["nn.adam_step"] = dict(adam_cost, params=n_params, computed=True)
    del grads, state

    frame = normals[0]
    raw = encode_pgm(frame.pixels)
    for _ in range(REPS_DECODE):
        with span("data_io.decode_pgm", kernel=True):
            decode_pgm(raw)
    metrics["data_io.decode_pgm_ms"] = tracer.median("data_io.decode_pgm", kernel=True) * 1e3

    flat = frame.flat()[None, :]
    for _ in range(REPS_BATCH1):
        with span("autoencoder.encode_batch", batch=1):
            latent = encode_batch(ae, flat)
    metrics["autoencoder.encode_ms.batch1"] = tracer.median(
        "autoencoder.encode_batch", batch=1) * 1e3
    for _ in range(REPS_BATCH1):
        with span("flow.flow_log_prob_batch", batch=1):
            flow_log_prob_batch(flow, latent)
    metrics["flow.log_prob_ms.batch1"] = tracer.median(
        "flow.flow_log_prob_batch", batch=1) * 1e3
    z = flow.whiten(latent)[0]
    for _ in range(REPS_COUPLING):
        with span("flow.coupling_forward"):
            coupling_forward(flow.layers[0], z)
    metrics["flow.coupling_forward_us"] = tracer.median("flow.coupling_forward") * 1e6
    nll_config = ScoreConfig(mode="nll")
    for _ in range(REPS_BATCH1):
        with span("scoring.score_frames", batch=1, kernel=True):
            score_frames(ae, flow, [frame], nll_config)
    metrics["scoring.score_frames_ms.batch1"] = tracer.median(
        "scoring.score_frames", batch=1, kernel=True) * 1e3

    combined = ScoreConfig(mode="combined", alpha=score_config.alpha,
                           standardization=score_config.standardization)
    for mode, config in (("nll", nll_config), ("combined", combined)):
        for _ in range(REPS_BATCHED):
            with span("scoring.score_frames", batch=len(normals), mode=mode,
                      kernel=True):
                score_frames(ae, flow, normals, config)
        seconds = tracer.median("scoring.score_frames", batch=len(normals),
                                mode=mode, kernel=True)
        metrics[f"scoring.score_frames_us_per_frame.{mode}"] = seconds / len(normals) * 1e6
    metrics["scoring.combined_over_nll"] = (
        metrics["scoring.score_frames_us_per_frame.combined"]
        / metrics["scoring.score_frames_us_per_frame.nll"])

    monitor_config = MonitorConfig(threshold=threshold)
    monitor_state = MonitorState()
    scores = neg_scores.tolist()
    for i in range(REPS_MONITOR):
        score = scores[i % len(scores)]
        with span("monitor.monitor_step", kernel=True):
            monitor_step(monitor_state, score, monitor_config)
    metrics["monitor.step_us"] = tracer.median("monitor.monitor_step", kernel=True) * 1e6

    scored = [ScoredSample(f"normal/{i}", float(s)) for i, s in enumerate(neg_scores)]
    for (kind, grade), pos in graded_scores.items():
        scored += [ScoredSample(f"{kind}/{grade}/{i}", float(s), anomaly_type=kind)
                   for i, s in enumerate(pos)]
    for name, call in (
            ("evaluate", lambda: evaluate(scored, ANOMALY_LABELS, neg_scores)),
            ("roc_curve", lambda: roc_curve(scored)),
            ("scores_to_csv", lambda: scores_to_csv(scored))):
        for _ in range(REPS_EVAL):
            with span(f"evaluation.{name}", samples=len(scored), kernel=True):
                call()
        metrics[f"evaluation.{name}_ms"] = tracer.median(
            f"evaluation.{name}", samples=len(scored), kernel=True) * 1e3

    if save_checkpoint:
        path = work / "kernel_checkpoint.json"
        data = pipeline_to_dict(ae, flow, score_config, threshold, 0.99)
        with span("checkpoint.save_json"):
            save_json(data, path)
        del data
        metrics["checkpoint.bytes"] = path.stat().st_size
        path.unlink()
    return metrics, computed
