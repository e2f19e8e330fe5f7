"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The end-to-end criteria train real models and take a few minutes
in total.
"""

import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from framewatch.autoencoder import init_autoencoder
from framewatch.cli import main
from framewatch.data_io import load_scenario
from framewatch.evaluation import auc_from_scores
from framewatch.flow import (FlowConfig, _nll_loss_and_grads, flow_forward_batch,
                             flow_inverse_batch, flow_log_prob_batch, init_flow,
                             train_flow)
from framewatch.monitor import Action, MonitorConfig, Phase, run_monitor
from framewatch.pipeline import (RunConfig, evaluate_pipeline, train_pipeline)
from framewatch.rng import RngStream
from framewatch.scoring import score_frames
from framewatch.synth import SynthSpec, generate_normal, generate_scenario

from _helpers import brute_force_auc, finite_diff_grad, max_rel_err, pack, unpack


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} {name}: {status} {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: flow invertibility at full scale.

def test_criterion_1_invertibility():
    start = time.time()
    worst = 0.0
    for i in range(20):
        rng = RngStream(1000 + i)
        flow = init_flow(rng, 64, num_layers=8)
        xs = rng.gaussian(1000 * 64).reshape(1000, 64)
        zs, _ = flow_forward_batch(flow, xs)
        back = flow_inverse_batch(flow, zs)
        worst = max(worst, float(np.abs(back - flow.whiten(xs)).max()))
    elapsed = time.time() - start
    _report(1, "flow invertibility", worst < 1e-9 and elapsed < 30.0,
            f"(max err {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: log-det matches the finite-difference Jacobian determinant.

def test_criterion_2_log_det():
    worst = 0.0
    for h in (2, 4, 8):
        for i in range(50):
            rng = RngStream(2000 + 100 * h + i)
            flow = init_flow(rng, h, num_layers=8, hidden=16)
            x = rng.gaussian(h)
            _, log_det = flow_forward_batch(flow, x[None, :])
            eps = 1e-6
            jac = np.zeros((h, h))
            for j in range(h):
                e = np.zeros(h)
                e[j] = eps
                zp, _ = flow_forward_batch(flow, (x + e)[None, :])
                zm, _ = flow_forward_batch(flow, (x - e)[None, :])
                jac[:, j] = (zp[0] - zm[0]) / (2 * eps)
            det = abs(np.linalg.det(jac))
            worst = max(worst, abs(math.exp(log_det[0]) - det) / det)
    _report(2, "log-det correctness", worst < 1e-4, f"(max rel err {worst:.2e})")


# ---------------------------------------------------------------------------
# Criterion 3: gradient checks on tiny models, >= 100 draws each.

def test_criterion_3_gradient_checks():
    worst_ae = 0.0
    for i in range(100):
        rng = RngStream(3000 + i)
        model = init_autoencoder(rng, latent_dim=4, input_dim=16, hidden=(8,))
        batch = rng.uniform(2 * 16).reshape(2, 16)
        from framewatch.autoencoder import _mse_loss_and_grads
        _, grads = _mse_loss_and_grads(model, batch)
        shapes = [p.shape for p in model.params()]

        def ae_loss(v):
            model.set_params(unpack(v, shapes))
            recon = model.decoder.forward(model.encoder.forward(batch))
            return float(np.mean((recon - batch) ** 2))

        theta = pack(model.params())
        fd = finite_diff_grad(ae_loss, theta, 1e-5)
        model.set_params(unpack(theta, shapes))
        worst_ae = max(worst_ae, max_rel_err(pack(grads), fd))

    worst_flow = 0.0
    for i in range(100):
        rng = RngStream(4000 + i)
        flow = init_flow(rng, 4, num_layers=2, hidden=8)
        z0 = rng.gaussian(2 * 4).reshape(2, 4)
        _, grads = _nll_loss_and_grads(flow, z0)
        shapes = [p.shape for p in flow.params()]

        def flow_loss(v):
            flow.set_params(unpack(v, shapes))
            return float(-flow_log_prob_batch(flow, z0).mean())

        theta = pack(flow.params())
        fd = finite_diff_grad(flow_loss, theta, 1e-5)
        flow.set_params(unpack(theta, shapes))
        worst_flow = max(worst_flow, max_rel_err(pack(grads), fd))

    _report(3, "gradient checks", worst_ae < 1e-4 and worst_flow < 1e-4,
            f"(AE {worst_ae:.2e}, flow {worst_flow:.2e})")


# ---------------------------------------------------------------------------
# Criterion 4: AUC oracle equivalence and calibration.

def test_criterion_4_auc():
    rng = RngStream(5000)
    exact = True
    for _ in range(10_000):
        n_pos = 1 + int(rng.integers(0, 199, 1)[0])
        n_neg = 1 + int(rng.integers(0, 199, 1)[0])
        # quantize to engineer ties
        levels = 2 ** int(rng.integers(1, 6, 1)[0])
        pos = np.floor(rng.uniform(n_pos) * levels)
        neg = np.floor(rng.uniform(n_neg) * levels)
        if auc_from_scores(pos, neg) != brute_force_auc(pos, neg):
            exact = False
            break
    random_auc = auc_from_scores(rng.gaussian(5000), rng.gaussian(5000))
    perfect = auc_from_scores(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
    ok = exact and 0.48 <= random_auc <= 0.52 and perfect == 1.0
    _report(4, "AUC oracle equivalence", ok,
            f"(exact={exact}, random={random_auc:.4f}, perfect={perfect})")


# ---------------------------------------------------------------------------
# Criterion 5: flow learning sanity against the analytic entropy.

def test_criterion_5_flow_learning():
    latents = RngStream(6000).gaussian(5000 * 4).reshape(5000, 4)
    val = RngStream(6001).gaussian(1000 * 4).reshape(1000, 4)
    flow, report = train_flow(latents, val, FlowConfig(epochs=30, seed=1))
    entropy = 2.0 * (1.0 + math.log(2.0 * math.pi))
    diff = abs(report.val_nll[-1] - entropy)
    _report(5, "flow learning sanity", diff < 0.1,
            f"(val NLL {report.val_nll[-1]:.4f} vs entropy {entropy:.4f})")


# ---------------------------------------------------------------------------
# Criteria 6 and 7 share one trained pipeline on the default scenario.

@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    dataset = generate_scenario(SynthSpec(), root / "scen")
    config = RunConfig()
    start = time.time()
    trained = train_pipeline(dataset, config)
    report, scored = evaluate_pipeline(trained.autoencoder, trained.flow,
                                       trained.score_config, dataset,
                                       config.eval_quantile)
    elapsed = time.time() - start
    return dict(dataset=dataset, config=config, trained=trained,
                report=report, elapsed=elapsed)


def test_criterion_6_end_to_end(default_pipeline):
    report = default_pipeline["report"]
    elapsed = default_pipeline["elapsed"]
    per_type = report.per_type_auc
    ok = (per_type["dim_light"] >= 0.85 and per_type["blob"] >= 0.80
          and per_type["sensor_noise"] >= 0.85 and report.overall_auc >= 0.80
          and elapsed < 15 * 60)
    _report(6, "end-to-end synthetic detection", ok,
            f"(overall {report.overall_auc:.3f}, "
            + ", ".join(f"{k} {v:.3f}" for k, v in sorted(per_type.items()))
            + f", {elapsed:.0f}s)")


def test_criterion_7_monitor(default_pipeline):
    trained = default_pipeline["trained"]
    config = default_pipeline["config"]
    cfg = MonitorConfig(threshold=trained.threshold,
                        window=config.monitor_window,
                        consecutive=config.monitor_consecutive)
    spec = SynthSpec()

    # (a) normal for 300 frames, then sustained anomalous
    from framewatch.synth import apply_anomaly
    rng = RngStream(7700)
    frames = []
    for t in range(340):
        frame = generate_normal(rng.derive(t), t)
        if t >= 300:
            frame, _ = apply_anomaly(frame, "blob", spec, rng.derive(10_000 + t))
        frames.append(frame)
    scores = score_frames(trained.autoencoder, trained.flow, frames,
                          trained.score_config)
    events = run_monitor(scores.tolist(), cfg)
    stops = [e.frame_index for e in events if e.action is Action.STOP]
    onset_ok = (len(stops) == 1
                and 300 <= stops[0] <= 300 + cfg.window + cfg.consecutive)

    # (b) 3000-frame normal-only stream: zero stops at the 0.99 quantile
    rng = RngStream(7800)
    normal_frames = [generate_normal(rng.derive(t), t) for t in range(3000)]
    normal_scores = score_frames(trained.autoencoder, trained.flow,
                                 normal_frames, trained.score_config)
    normal_events = run_monitor(normal_scores.tolist(), cfg)
    no_false_stop = not any(e.action is Action.STOP for e in normal_events)

    # (c) phase monotonicity on 10,000 fuzzed streams
    rank = {Phase.ADVANCE: 0, Phase.STOP: 1, Phase.BACKTRACK: 2}
    fuzz_rng = RngStream(7900)
    monotone = True
    for _ in range(10_000):
        length = 5 + int(fuzz_rng.integers(0, 40, 1)[0])
        w = 1 + int(fuzz_rng.integers(0, 7, 1)[0])
        c = 1 + int(fuzz_rng.integers(0, 3, 1)[0])
        tau = float(fuzz_rng.uniform(1)[0])
        stream = fuzz_rng.uniform(length) * 2.0 - 0.5
        phases = [rank[e.phase] for e in run_monitor(
            stream.tolist(), MonitorConfig(threshold=tau, window=w,
                                           consecutive=c))]
        if phases != sorted(phases) or any(b - a > 1 for a, b in
                                           zip(phases, phases[1:])):
            monotone = False
            break

    _report(7, "monitor behavior", onset_ok and no_false_stop and monotone,
            f"(stops={stops}, false stops="
            f"{sum(e.action is Action.STOP for e in normal_events)}, "
            f"monotone={monotone})")


# ---------------------------------------------------------------------------
# Criterion 8: the normal-only protocol is enforced with exit code 4.

def test_criterion_8_protocol_enforcement(tmp_path):
    spec_small = dict(seed=7, n_train=8, n_val=4, n_test_normal=4,
                      n_per_anomaly={"dim_light": 2, "blob": 2,
                                     "sensor_noise": 2})
    scen = tmp_path / "scen"
    generate_scenario(SynthSpec(**spec_small), scen)
    labels = (scen / "labels.csv").read_text()
    (scen / "labels.csv").write_text(
        labels + "val_00001.pgm,anomalous,tape,semantic,yes,yes,\n")
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "autoencoder": {"epochs": 1, "latent_dim": 8},
        "flow": {"epochs": 1, "num_layers": 2, "hidden": 8}}))
    code = main(["train", "--config", str(run_cfg), "--scenario", str(scen),
                 "--out", str(tmp_path / "out")])
    _report(8, "protocol enforcement", code == 4, f"(exit code {code})")


# ---------------------------------------------------------------------------
# Criterion 9: full CLI determinism, byte-identical outputs.

def test_criterion_9_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps(dict(
        seed=7, n_train=24, n_val=8, n_test_normal=8,
        n_per_anomaly={"dim_light": 4, "blob": 4, "sensor_noise": 4})))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "seed": 7,
        "autoencoder": {"epochs": 5, "batch_size": 8, "latent_dim": 16},
        "flow": {"epochs": 8, "batch_size": 8, "num_layers": 4, "hidden": 16}}))

    work = tmp_path / "work"

    def run_once():
        if work.exists():
            shutil.rmtree(work)
        assert main(["gen-synth", "--config", str(synth_cfg),
                     "--out", str(work / "scen")]) == 0
        assert main(["train", "--config", str(run_cfg),
                     "--scenario", str(work / "scen"),
                     "--out", str(work / "out")]) == 0
        assert main(["eval", "--config", str(run_cfg),
                     "--checkpoint", str(work / "out" / "checkpoint.json"),
                     "--scenario", str(work / "scen"),
                     "--out", str(work / "out")]) == 0
        return {str(p.relative_to(work)): p.read_bytes()
                for p in sorted(work.rglob("*")) if p.is_file()}

    first = run_once()
    second = run_once()
    identical = first == second
    _report(9, "determinism", identical,
            f"({len(first)} files compared)")


# ---------------------------------------------------------------------------
# Criterion 10 (optional): the externally released dataset, if mapped locally.

def test_criterion_10_external_dataset():
    root = os.environ.get("FRAMEWATCH_EXTERNAL_DATA")
    if not root or not Path(root).is_dir():
        print("ACCEPTANCE 10 external dataset: SKIP (set "
              "FRAMEWATCH_EXTERNAL_DATA to a mapped dataset root)")
        pytest.skip("external dataset not present")
    ok = True
    for scenario_dir in sorted(p for p in Path(root).iterdir() if p.is_dir()):
        dataset = load_scenario(scenario_dir)
        config = RunConfig()
        trained = train_pipeline(dataset, config)
        report, _ = evaluate_pipeline(trained.autoencoder, trained.flow,
                                      trained.score_config, dataset)
        ok = ok and all(0.0 <= v <= 1.0 for v in report.per_type_auc.values())
    _report(10, "external dataset", ok)
