import math

import numpy as np
import pytest

from framewatch.checkpoint import flow_to_dict, save_json
from framewatch.errors import ContractViolationError, ScoringError
from framewatch.flow import (STD_FLOOR, CouplingLayer, FlowConfig, FlowModel,
                             _nll_loss_and_grads, coupling_forward,
                             flow_forward_batch, flow_inverse_batch,
                             flow_log_prob_batch, init_flow, train_flow)
from framewatch.nn import Activation, init_mlp
from framewatch.rng import RngStream

from _helpers import finite_diff_param_grad, max_rel_err, pack, reference_masked_log_prob


ACTS = [Activation.TANH, Activation.IDENTITY]


def _coupling(rng, h, parity, hidden=8, scale_clamp=3.0):
    """A random coupling layer of an h-vector, with half-width nets."""
    n_a = len(range(parity, h, 2))
    return CouplingLayer(parity, init_mlp(rng.derive(0), (n_a, hidden, h - n_a), ACTS),
                         init_mlp(rng.derive(1), (n_a, hidden, h - n_a), ACTS),
                         scale_clamp)


def _zero_coupling(h=4, parity=0):
    layer = _coupling(RngStream(0), h, parity)
    for p in layer.params():
        p[...] = 0.0
    return layer


def _rigged_coupling(a, c, s_max=3.0):
    """h=2 layer with parity 0 whose nets output constants: s=a, t=c."""
    layer = _zero_coupling(h=2, parity=0)
    layer.scale_clamp = s_max
    raw_a = s_max * math.atanh(a / s_max)
    layer.scale_net.layers[1].bias = np.array([raw_a])
    layer.shift_net.layers[1].bias = np.array([c])
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
    layer = _coupling(rng, h, 0, hidden=16)
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


@pytest.mark.parametrize("parity, scale_dims, shift_dims", [
    (0, (2, 8, 3), (2, 8, 3)),   # 5 dims split 3 / 2 by parity 0, not 2 / 3
    (1, (2, 8, 2), (2, 8, 3)),   # shift net does not match the scale net
    (2, (2, 8, 2), (2, 8, 2)),   # no such parity
    (0, (1, 8, 0), (1, 8, 0)),   # init_flow over 1 dim: nothing to transform
], ids=["wrong-split", "nets-differ", "parity-2", "empty-half"])
def test_coupling_rejects_bad_halves(parity, scale_dims, shift_dims):
    """The constructor holds the one rule on the halves: both non-empty,
    the dims i % 2 == parity mapped to the others by both nets."""
    with pytest.raises(ContractViolationError):
        CouplingLayer(parity, init_mlp(RngStream(0), scale_dims, ACTS),
                      init_mlp(RngStream(1), shift_dims, ACTS))


@pytest.mark.parametrize("scale_clamp", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_coupling_rejects_bad_clamp(scale_clamp):
    """A NaN clamp and an infinite clamp both fail in the constructor."""
    with pytest.raises(ContractViolationError):
        _coupling(RngStream(0), 4, 0, scale_clamp=scale_clamp)


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
    for p in flow.params():
        p *= 0.4

    base = RngStream(22).gaussian(4000 * h).reshape(4000, h)
    mapped = flow_inverse_batch(flow, base)
    lo = mapped.min(axis=0) - 0.5
    hi = mapped.max(axis=0) + 0.5

    points = lo + qmc.Sobol(d=h, scramble=True, seed=5).random(2 ** 20) * (hi - lo)
    mass = np.prod(hi - lo) * np.exp(flow_log_prob_batch(flow, points)).mean()
    assert mass == pytest.approx(1.0, abs=0.02)


def _broken_flow(h=4):
    """A flow whose first scale-net weight matrix is NaN, so its output is NaN."""
    flow = init_flow(RngStream(34), h, num_layers=2, hidden=8)
    flow.params()[0][...] = np.nan
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

    def f():
        loss, _ = _nll_loss_and_grads(flow, z0)
        return loss

    fd = finite_diff_param_grad(f, flow.params(), 1e-5)
    assert max_rel_err(pack(grads), fd) < 1e-4


@pytest.mark.parametrize("dim, hidden", [(64, 64), (7, 5)])
def test_half_width_flow_matches_masked_oracle(dim, hidden):
    """The masked loop, fed the half-width nets zero-padded to full width,
    gives the same log-densities; an odd dim splits its halves unevenly."""
    rng = RngStream(35)
    flow = init_flow(rng.derive(0), dim, hidden=hidden)
    noise = rng.derive(1)
    for p in flow.params():
        p += 0.1 * noise.gaussian(p.size).reshape(p.shape)
    latents = rng.derive(2).gaussian(300 * dim).reshape(300, dim)
    assert max_rel_err(flow_log_prob_batch(flow, latents),
                       reference_masked_log_prob(flow, latents), floor=1e-300) < 1e-12


def test_default_flow_holds_only_live_parameters():
    """At the default size every coupling parameter gets a gradient: none
    is multiplied by zero on its way to the loss."""
    rng = RngStream(36)
    flow = init_flow(rng.derive(0), 64)
    assert sum(p.size for p in flow.params()) == 67_072
    _, grads = _nll_loss_and_grads(flow, rng.derive(1).gaussian(16 * 64).reshape(16, 64))
    assert all((g != 0.0).all() for g in grads)


def test_train_flow_deterministic(tmp_path):
    rng = RngStream(40)
    latents = rng.gaussian(64 * 4).reshape(64, 4)
    val = rng.gaussian(16 * 4).reshape(16, 4)
    cfg = FlowConfig(epochs=3, batch_size=16, num_layers=2, hidden=8)
    for name in ("a", "b"):
        flow, _ = train_flow(latents, val, cfg, seed=9)
        save_json(flow_to_dict(flow), tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_train_flow_whitening_from_train_only():
    rng = RngStream(41)
    latents = 5.0 + 2.0 * rng.gaussian(128 * 4).reshape(128, 4)
    val = rng.gaussian(16 * 4).reshape(16, 4)  # deliberately different stats
    cfg = FlowConfig(epochs=1, batch_size=32, num_layers=2, hidden=8)
    flow, _ = train_flow(latents, val, cfg, seed=9)
    assert np.allclose(flow.whitening_mean, latents.mean(axis=0))
    assert np.allclose(flow.whitening_std, latents.std(axis=0))


def test_train_flow_floors_constant_latent_std():
    """A latent dim with zero spread on the train split is whitened with
    std STD_FLOOR, which the flow accepts."""
    latents = RngStream(42).gaussian(32 * 4).reshape(32, 4)
    latents[:, 2] = 1.5
    cfg = FlowConfig(epochs=1, batch_size=16, num_layers=2, hidden=8)
    flow, _ = train_flow(latents, latents[:8], cfg, seed=3)
    assert flow.whitening_std[2] == STD_FLOOR
    assert np.array_equal(flow.whitening_std[[0, 1, 3]], latents.std(axis=0)[[0, 1, 3]])


def test_flow_model_rejects_layer_of_other_dim():
    layers = [_coupling(RngStream(0), 4, 0), _coupling(RngStream(1), 6, 1)]
    with pytest.raises(ContractViolationError, match="coupling layer 1 maps 6 dims, not dim 4"):
        FlowModel(layers, 4, np.zeros(4), np.ones(4))


@pytest.mark.parametrize("mean, std, match", [
    (np.zeros(5), np.ones(4), r"whitening_mean \(shape \[5\]\) must be a finite"),
    (np.zeros(4), np.ones(3), r"whitening_std \(shape \[3\]\) must be a finite"),
    (np.zeros((1, 4)), np.ones(4), r"whitening_mean \(shape \[1, 4\]\) must be"),
    (np.array([0.0, np.nan, 0.0, 0.0]), np.ones(4), r"whitening_mean \(shape \[4\]\)"),
    (np.zeros(4), np.array([1.0, np.inf, 1.0, 1.0]), r"whitening_std \(shape \[4\]\)"),
    (np.zeros(4), np.array([1.0, 0.0, 1.0, 1.0]), "whitening_std must be positive"),
], ids=["long-mean", "short-std", "2-d-mean", "nan-mean", "inf-std", "zero-std"])
def test_flow_model_rejects_bad_whitening(mean, std, match):
    """Whitening vectors that would fail later in scoring, or divide by
    zero there, are rejected when the flow is built."""
    with pytest.raises(ContractViolationError, match=match):
        FlowModel([_coupling(RngStream(0), 4, 0)], 4, mean, std)


def test_train_flow_rejects_empty():
    with pytest.raises(ContractViolationError):
        train_flow(np.empty((0, 4)), np.ones((2, 4)), FlowConfig(epochs=1))
