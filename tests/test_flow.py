import math

import numpy as np
import pytest

from framewatch.checkpoint import flow_to_dict
from framewatch.errors import ContractViolationError, ScoringError
from framewatch.flow import (CouplingLayer, FlowConfig, FlowModel,
                             _nll_loss_and_grads, coupling_forward,
                             flow_forward_batch, flow_inverse_batch,
                             flow_log_prob_batch, init_flow, train_flow)
from framewatch.nn import Activation, init_mlp
from framewatch.rng import RngStream

from _helpers import finite_diff_grad, max_rel_err, pack, unpack


def _zero_coupling(h=4, parity=0):
    mask = ((np.arange(h) % 2) == parity).astype(float)
    layer = CouplingLayer(
        mask=mask,
        scale_net=init_mlp(RngStream(0), (h, 8, h),
                           [Activation.TANH, Activation.IDENTITY]),
        shift_net=init_mlp(RngStream(1), (h, 8, h),
                           [Activation.TANH, Activation.IDENTITY]),
    )
    layer.set_params([np.zeros_like(p) for p in layer.params()])
    return layer


def _rigged_coupling(a, c, s_max=3.0):
    """h=2 layer with mask (1,0) whose nets output constants: s=a, t=c."""
    layer = _zero_coupling(h=2, parity=0)
    layer.scale_clamp = s_max
    raw_a = s_max * math.atanh(a / s_max)
    layer.scale_net.layers[1].bias = np.array([0.0, raw_a])
    layer.shift_net.layers[1].bias = np.array([0.0, c])
    return layer


def _identity_flow(h):
    return FlowModel([], h, np.zeros(h), np.ones(h))


def test_zero_coupling_is_identity():
    layer = _zero_coupling()
    x = RngStream(3).gaussian(4)
    y, log_det = coupling_forward(layer, x)
    assert np.array_equal(y, x)
    assert log_det == 0.0


def test_rigged_coupling_analytic():
    a, c = 0.7, -1.3
    layer = _rigged_coupling(a, c)
    x = np.array([2.0, 5.0])
    y, log_det = coupling_forward(layer, x)
    assert y[0] == pytest.approx(2.0, abs=1e-12)
    assert y[1] == pytest.approx(5.0 * math.exp(a) + c, rel=1e-12)
    assert log_det == pytest.approx(a, rel=1e-12)


def test_rigged_coupling_inverse_analytic():
    layer = _rigged_coupling(0.7, -1.3)
    x = np.array([2.0, 5.0])
    y, _ = coupling_forward(layer, x)
    one_layer = FlowModel([layer], 2, np.zeros(2), np.ones(2))
    assert np.allclose(flow_inverse_batch(one_layer, y[None, :])[0], x, atol=1e-12)


def test_coupling_log_det_matches_jacobian():
    rng = RngStream(13)
    h = 6
    layer = CouplingLayer(
        mask=((np.arange(h) % 2) == 0).astype(float),
        scale_net=init_mlp(rng.derive(0), (h, 16, h),
                           [Activation.TANH, Activation.IDENTITY]),
        shift_net=init_mlp(rng.derive(1), (h, 16, h),
                           [Activation.TANH, Activation.IDENTITY]),
    )
    x = rng.gaussian(h)
    _, log_det = coupling_forward(layer, x)
    eps = 1e-6
    jac = np.zeros((h, h))
    for i in range(h):
        e = np.zeros(h)
        e[i] = eps
        jac[:, i] = (coupling_forward(layer, x + e)[0]
                     - coupling_forward(layer, x - e)[0]) / (2 * eps)
    det = abs(np.linalg.det(jac))
    assert abs(math.exp(log_det) - det) / det < 1e-4


def test_coupling_rejects_bad_mask():
    with pytest.raises(ContractViolationError):
        CouplingLayer(mask=np.ones(4),
                      scale_net=init_mlp(RngStream(0), (4, 8, 4),
                                         [Activation.TANH, Activation.IDENTITY]),
                      shift_net=init_mlp(RngStream(1), (4, 8, 4),
                                         [Activation.TANH, Activation.IDENTITY]))


def test_coupling_rejects_nonfinite_input():
    layer = _zero_coupling()
    with pytest.raises(ContractViolationError):
        coupling_forward(layer, np.array([1.0, np.nan, 0.0, 0.0]))


def test_round_trip_many_vectors():
    rng = RngStream(20)
    flow = init_flow(rng, 8, num_layers=4, hidden=16)
    xs = rng.gaussian(1000 * 8).reshape(1000, 8)
    worst = 0.0
    for x in xs:
        zs, _ = flow_forward_batch(flow, x[None, :])
        back = flow_inverse_batch(flow, zs)[0]
        worst = max(worst, float(np.abs(back - flow.whiten(x)).max()))
    assert worst < 1e-9


def test_log_det_bounded_by_clamp():
    rng = RngStream(21)
    flow = init_flow(rng, 8, num_layers=8)
    for _ in range(50):
        x = 100.0 * rng.gaussian(8)  # far off-manifold
        _, log_det = flow_forward_batch(flow, x[None, :])
        assert abs(log_det[0]) <= 8 * 8 * 3.0  # K * h * s_max


def test_log_prob_identity_flow_at_mode():
    assert flow_log_prob_batch(_identity_flow(2), np.zeros((1, 2)))[0] == \
        pytest.approx(-1.8378770664, abs=1e-9)


def test_log_prob_identity_flow_h1():
    assert flow_log_prob_batch(_identity_flow(1), np.array([[1.0]]))[0] == \
        pytest.approx(-1.4189385332, abs=1e-9)


def test_log_prob_normalization_qmc():
    # independent quadrature oracle: the density must integrate to ~1
    qmc = pytest.importorskip("scipy.stats.qmc")
    h = 6
    rng = RngStream(21)
    flow = init_flow(rng, h, num_layers=2, hidden=8)
    flow.set_params([0.4 * p for p in flow.params()])

    base = RngStream(22).gaussian(4000 * h).reshape(4000, h)
    mapped = flow_inverse_batch(flow, base)
    lo = mapped.min(axis=0) - 0.5
    hi = mapped.max(axis=0) + 0.5

    points = lo + qmc.Sobol(d=h, scramble=True, seed=5).random(2 ** 20) * (hi - lo)
    mass = np.prod(hi - lo) * np.exp(flow_log_prob_batch(flow, points)).mean()
    assert mass == pytest.approx(1.0, abs=0.02)


def _broken_flow(h=4):
    """A flow whose first scale-net weight matrix is inf, so its output is NaN."""
    flow = init_flow(RngStream(34), h, num_layers=2, hidden=8)
    params = flow.params()
    params[0] = np.full_like(params[0], np.inf)
    flow.set_params(params)
    return flow


def test_log_prob_non_finite_raises_scoring_error():
    flow = _broken_flow()
    with np.errstate(invalid="ignore"):
        with pytest.raises(ScoringError):
            flow_log_prob_batch(flow, np.ones((3, 4)))
        with pytest.raises(ScoringError):
            flow_log_prob_batch(flow, np.ones((1, 4)))


def test_score_antimonotone_in_density():
    flow = init_flow(RngStream(30), 4, num_layers=2, hidden=8)
    rng = RngStream(31)
    latents = rng.gaussian(50 * 4).reshape(50, 4)
    log_probs = np.array([flow_log_prob_batch(flow, u[None, :])[0] for u in latents])
    scores = -log_probs
    assert np.array_equal(np.argsort(log_probs), np.argsort(scores)[::-1])


def test_tiny_flow_nll_gradient_check():
    rng = RngStream(33)
    flow = init_flow(rng, 4, num_layers=2, hidden=8)
    z0 = rng.gaussian(3 * 4).reshape(3, 4)
    _, grads = _nll_loss_and_grads(flow, z0)
    shapes = [p.shape for p in flow.params()]
    theta = pack(flow.params())

    def f(v):
        flow.set_params(unpack(v, shapes))
        loss, _ = _nll_loss_and_grads(flow, z0)
        return loss

    fd = finite_diff_grad(f, theta, 1e-5)
    flow.set_params(unpack(theta, shapes))
    assert max_rel_err(pack(grads), fd) < 1e-4


def test_train_flow_deterministic():
    rng = RngStream(40)
    latents = rng.gaussian(64 * 4).reshape(64, 4)
    val = rng.gaussian(16 * 4).reshape(16, 4)
    cfg = FlowConfig(epochs=3, batch_size=16, seed=9, num_layers=2, hidden=8)
    flow_a, _ = train_flow(latents, val, cfg)
    flow_b, _ = train_flow(latents, val, cfg)
    assert flow_to_dict(flow_a, cfg) == flow_to_dict(flow_b, cfg)


def test_train_flow_whitening_from_train_only():
    rng = RngStream(41)
    latents = 5.0 + 2.0 * rng.gaussian(128 * 4).reshape(128, 4)
    val = rng.gaussian(16 * 4).reshape(16, 4)  # deliberately different stats
    cfg = FlowConfig(epochs=1, batch_size=32, seed=9, num_layers=2, hidden=8)
    flow, _ = train_flow(latents, val, cfg)
    assert np.allclose(flow.whitening_mean, latents.mean(axis=0))
    assert np.allclose(flow.whitening_std, latents.std(axis=0))


def test_train_flow_rejects_empty():
    with pytest.raises(ContractViolationError):
        train_flow(np.empty((0, 4)), np.ones((2, 4)), FlowConfig(epochs=1))
