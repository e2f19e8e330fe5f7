import math
import warnings

import numpy as np
import pytest

import framewatch.autoencoder
import framewatch.flow
from framewatch.autoencoder import AutoencoderConfig, train_autoencoder
from framewatch.data_io import FRAME_PIXELS, FRAME_SIDE, Frame
from framewatch.flow import FlowConfig, train_flow
from framewatch.errors import ContractViolationError, TrainingError
from framewatch.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPSILON, LEAKY_SLOPE,
                           Activation, AdamState, DenseLayer, Mlp, TrainReport,
                           _activation_grad, _apply_activation, adam_step,
                           dense_backward_batch, dense_forward_batch, init_dense,
                           init_mlp, train_epochs)
from framewatch.rng import RngStream

from _helpers import (finite_diff_grad, max_rel_err, pack, reference_activation,
                      reference_activation_slope, unpack)

# One fixed data seed per activation, so each run checks the same arrays.
ACT_SEEDS = {Activation.LEAKY_RELU: 1, Activation.SIGMOID: 3}


def test_dense_forward_identity():
    layer = DenseLayer(np.eye(3), np.zeros(3), Activation.LEAKY_RELU)
    assert np.array_equal(dense_forward_batch(layer, np.array([[1.0, 2.0, 3.0]])),
                          np.array([[1.0, 2.0, 3.0]]))


def test_dense_forward_affine_scalar():
    layer = DenseLayer(np.array([[2.0]]), np.array([1.0]), Activation.LEAKY_RELU)
    assert dense_forward_batch(layer, np.array([[3.0]]))[0, 0] == 7.0


def test_dense_forward_matches_loop_oracle():
    rng = RngStream(17)
    layer = init_dense(rng, 4, 3, Activation.SIGMOID)
    x = rng.gaussian(4)
    got = dense_forward_batch(layer, x[None, :])[0]
    for i in range(3):
        acc = layer.bias[i]
        for j in range(4):
            acc += layer.weights[i, j] * x[j]
        assert got[i] == pytest.approx(1.0 / (1.0 + np.exp(-acc)), abs=1e-15)


def test_dense_forward_shape_mismatch():
    layer = DenseLayer(np.eye(3), np.zeros(3), Activation.LEAKY_RELU)
    with pytest.raises(ContractViolationError):
        dense_forward_batch(layer, np.zeros((1, 4)))


def test_dense_backward_linear_outer_product():
    # Positive weights and inputs keep leaky ReLU on its linear part.
    rng = RngStream(2)
    layer = DenseLayer(np.abs(init_dense(rng, 5, 3, Activation.LEAKY_RELU).weights),
                       np.zeros(3), Activation.LEAKY_RELU)
    x = np.abs(rng.gaussian(5))
    g = rng.gaussian(3)
    _, gw, gb = dense_backward_batch(layer, x[None, :], g[None, :])
    assert np.allclose(gw, np.outer(g, x))
    assert np.allclose(gb, g)


def test_dense_backward_zero_grad():
    layer = init_dense(RngStream(4), 4, 4, Activation.LEAKY_RELU)
    gin, gw, gb = dense_backward_batch(layer, np.ones((1, 4)), np.zeros((1, 4)))
    assert not gin.any() and not gw.any() and not gb.any()


@pytest.mark.parametrize("act", list(Activation))
def test_dense_backward_matches_finite_diff(act):
    # loss = sum of outputs; grads over weights, bias and input
    rng = RngStream(ACT_SEEDS[act])
    layer = init_dense(rng, 4, 3, act)
    x = rng.gaussian(4)

    gin, gw, gb = dense_backward_batch(layer, x[None, :], np.ones((1, 3)))

    shapes = [layer.weights.shape, layer.bias.shape, x.shape]
    theta = pack([layer.weights, layer.bias, x])

    def f(v):
        w, b, xi = unpack(v, shapes)
        return float(dense_forward_batch(DenseLayer(w, b, act), xi[None, :]).sum())

    fd = finite_diff_grad(f, theta, 1e-5)
    assert max_rel_err(pack([gw, gb, gin]), fd) < 1e-4


def test_gradient_check_many_random_layers():
    # spec invariant: >= 100 random (layer, input) draws
    rng = RngStream(99)
    acts = list(Activation)
    for i in range(100):
        in_dim = 2 + int(rng.integers(0, 4, 1)[0])
        out_dim = 2 + int(rng.integers(0, 4, 1)[0])
        act = acts[i % len(acts)]
        layer = init_dense(rng, in_dim, out_dim, act)
        x = rng.gaussian(in_dim)
        g = rng.gaussian(out_dim)
        gin, gw, gb = dense_backward_batch(layer, x[None, :], g[None, :])
        shapes = [layer.weights.shape, layer.bias.shape, x.shape]

        def f(v):
            w, b, xi = unpack(v, shapes)
            return float(dense_forward_batch(DenseLayer(w, b, act), xi[None, :])[0] @ g)

        fd = finite_diff_grad(f, pack([layer.weights, layer.bias, x]), 1e-5)
        assert max_rel_err(pack([gw, gb, gin]), fd) < 1e-4


# ---------------------------------------------------------------------------
# Adam

def reference_adam_step(params, grads, state, lr=1e-3):
    """The functional Adam update the in-place one must match bit for bit:
    returns (new_params, new_state) and leaves its arguments untouched."""
    beta1, beta2, epsilon = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    t = state.step_count + 1
    new_params, new_m, new_v = [], [], []
    for i, (p, g) in enumerate(zip(params, grads)):
        m = beta1 * state.first_moment[i] + (1.0 - beta1) * g
        v = beta2 * state.second_moment[i] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + epsilon))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(new_m, new_v, t)


def _uint_view(a):
    """`a`'s bits as unsigned integers of its itemsize."""
    return a.view(np.dtype(f"u{a.itemsize}"))


def _bits(arrays):
    return [_uint_view(a).copy() for a in arrays]


def _snapshot(params, state):
    return (_bits(params), _bits(state.first_moment), _bits(state.second_moment),
            state.step_count)


def _same_bits(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and np.array_equal(_uint_view(x), _uint_view(y))
        for x, y in zip(a, b))


def _check_adam_against_oracle(dtype):
    rng = RngStream(41)
    shapes = [(2 * ADAM_BLOCK + 5,), (7, 3)]

    def draw():
        return [rng.gaussian(int(np.prod(s))).reshape(s).astype(dtype) for s in shapes]

    params = draw()
    state = AdamState.zeros_like(params)
    ref_params = [p.copy() for p in params]
    ref_state = AdamState.zeros_like(params)
    for _ in range(3):
        grads = draw()
        assert adam_step(params, grads, state, lr=3e-3) is None
        ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state,
                                                    lr=3e-3)
        assert _same_bits(params, ref_params)
        assert _same_bits(state.first_moment, ref_state.first_moment)
        assert _same_bits(state.second_moment, ref_state.second_moment)
    assert state.step_count == ref_state.step_count == 3
    assert all(a.dtype == dtype for a in params + state.first_moment
               + state.second_moment)


def test_adam_in_place_matches_functional_oracle_bitwise():
    _check_adam_against_oracle(np.float64)


def test_adam_float32_in_place_matches_functional_oracle_bitwise():
    _check_adam_against_oracle(np.float32)


def test_adam_zero_gradient_is_identity():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    before = [p.copy() for p in params]
    state = AdamState.zeros_like(params)
    for _ in range(5):
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
        assert all(np.array_equal(a, b) for a, b in zip(params, before))
    assert state.step_count == 5


def test_adam_first_step_hand_oracle():
    # m_hat = g, v_hat = g^2, delta = lr * g / (|g| + eps)
    g = 0.25
    lr = 0.01
    params = [np.array([1.0])]
    adam_step(params, [np.array([g])], AdamState.zeros_like(params), lr=lr)
    expected = 1.0 - lr * g / (abs(g) + ADAM_EPSILON)
    assert params[0][0] == pytest.approx(expected, abs=1e-15)


def test_adam_constant_gradient_monotone():
    params = [np.array([5.0])]
    state = AdamState.zeros_like(params)
    values = [5.0]
    for _ in range(100):
        adam_step(params, [np.array([1.0])], state, lr=0.01)
        values.append(float(params[0][0]))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert state.step_count == 100


def test_adam_nonfinite_gradient_reports_step():
    params = [np.array([1.0])]
    state = AdamState.zeros_like(params)
    adam_step(params, [np.array([1.0])], state)
    with pytest.raises(TrainingError, match="step 2"):
        adam_step(params, [np.array([np.nan])], state)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_adam_nonfinite_gradient_in_a_later_parameter(bad):
    """Every gradient is checked, each before any write, whatever the
    non-finite value and wherever it lies."""
    params = [np.ones(3), np.ones((2, 4)), np.ones(5)]
    state = AdamState.zeros_like(params)
    grads = [np.full(p.shape, 0.5) for p in params]
    grads[1][1, 2] = bad
    with pytest.raises(TrainingError, match=r"step 1, parameter 1$"):
        adam_step(params, grads, state)
    assert all(np.array_equal(p, np.ones(p.shape)) for p in params)
    assert not any(a.any() for a in state.first_moment + state.second_moment)
    assert state.step_count == 0


def test_adam_accepts_zero_size_gradient():
    params = [np.ones(2), np.ones((0, 3))]
    state = AdamState.zeros_like(params)
    adam_step(params, [np.full(2, 0.5), np.ones((0, 3))], state)
    assert state.step_count == 1 and np.all(params[0] < 1.0)


def test_adam_failed_step_changes_nothing():
    rng = RngStream(43)
    shapes = [(ADAM_BLOCK + 3,), (4, 5), (6,)]
    params = [rng.gaussian(int(np.prod(s))).reshape(s) for s in shapes]
    state = AdamState.zeros_like(params)
    adam_step(params, [rng.gaussian(p.size).reshape(p.shape) for p in params], state)
    before = _snapshot(params, state)
    grads = [rng.gaussian(p.size).reshape(p.shape) for p in params]
    grads[-1][2] = np.nan
    with pytest.raises(TrainingError, match=r"step 2\b.*parameter 2"):
        adam_step(params, grads, state)
    after = _snapshot(params, state)
    assert all(_same_bits(a, b) for a, b in zip(before[:3], after[:3]))
    assert after[3] == before[3] == 1


def test_adam_rejects_non_contiguous_param():
    params = [np.ones((4, 4))[:, ::2]]
    with pytest.raises(ContractViolationError, match="C-contiguous"):
        adam_step(params, [np.zeros((4, 2))], AdamState.zeros_like(params))


def test_adam_rejects_read_only_or_misshapen_arrays():
    params = [np.ones(3)]
    frozen = np.ones(3)
    frozen.flags.writeable = False
    with pytest.raises(ContractViolationError, match="writable"):
        adam_step([frozen], [np.zeros(3)], AdamState.zeros_like(params))
    with pytest.raises(ContractViolationError, match="shape"):
        adam_step(params, [np.zeros((3, 1))], AdamState.zeros_like(params))
    state = AdamState([np.zeros(4)], [np.zeros(3)])
    with pytest.raises(ContractViolationError, match="first moment 0"):
        adam_step(params, [np.zeros(3)], state)
    assert np.array_equal(params[0], np.ones(3)) and state.step_count == 0


def test_adam_rejects_mixed_dtypes():
    params = [np.ones(3, np.float32), np.ones(2)]
    state = AdamState.zeros_like(params)
    with pytest.raises(ContractViolationError, match="parameter 1 is float64"):
        adam_step(params, [np.zeros(3, np.float32), np.zeros(2)], state)
    params = [np.ones(3, np.float32)]
    with pytest.raises(ContractViolationError, match="gradient 0 is float64"):
        adam_step(params, [np.zeros(3)], AdamState.zeros_like(params))
    assert state.step_count == 0


# ---------------------------------------------------------------------------
# Cached outputs

@pytest.mark.parametrize("act", list(Activation))
def test_mlp_backward_cached_matches_recomputing_layers(act):
    rng = RngStream(ACT_SEEDS[act])
    mlp = init_mlp(rng, (6, 5, 4), [act, act])
    xs = rng.gaussian(3 * 6).reshape(3, 6)
    g = rng.gaussian(3 * 4).reshape(3, 4)
    cache = []
    out = mlp.forward(xs, cache)
    assert np.array_equal(out, mlp.forward(xs))
    gin, grads = mlp.backward(cache, g)

    inputs = [xs, dense_forward_batch(mlp.layers[0], xs)]
    g1, gw1, gb1 = dense_backward_batch(mlp.layers[1], inputs[1], g)
    g0, gw0, gb0 = dense_backward_batch(mlp.layers[0], inputs[0], g1)
    assert _same_bits([gin] + grads, [g0, gw0, gb0, gw1, gb1])

    no_gin, same_grads = mlp.backward(cache, g, input_grad=False)
    assert no_gin is None
    assert _same_bits(same_grads, grads)


# ---------------------------------------------------------------------------
# One forward path: the activation overwrites the layer's own product,
# which is both the output and what the backward pass reads.

def _special_values(dtype):
    """Signed zeros, infinities, NaNs with and without a payload,
    subnormals and the extremes of `dtype`, then a spread of ordinary
    values."""
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        info.smallest_subnormal, -info.smallest_subnormal,
                        7 * info.smallest_subnormal, -7 * info.smallest_subnormal,
                        info.tiny, -info.tiny, info.max, -info.max, -100.0, -1000.0],
                       dtype)
    nans = _uint_view(np.array([np.nan, -np.nan], dtype))
    payload_nans = (nans | nans.dtype.type(0x123)).view(dtype)
    spread = RngStream(5).uniform_range(-50.0, 50.0, 64).astype(dtype)
    return np.concatenate([special, payload_nans, spread])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", list(Activation))
def test_activation_matches_oracle_bitwise_in_place_or_not(act, dtype):
    """The activation writes into the array it is given and nowhere else: a
    caller keeps its pre-activation by passing a copy."""
    z = np.tile(_special_values(dtype), (3, 1))
    before = z.copy()
    want = reference_activation(act, before.copy())
    copied = _apply_activation(act, z.copy())
    assert _same_bits([copied], [want]) and _same_bits([z], [before])
    out = _apply_activation(act, z)
    assert out is z and _same_bits([out], [want])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", list(Activation))
def test_in_place_and_cached_forward_are_bit_equal(act, dtype):
    rng = RngStream(6)
    layer = DenseLayer(init_dense(rng, 7, 5, act).weights.astype(dtype),
                       rng.uniform_range(-1.0, 1.0, 5).astype(dtype), act)
    xs = rng.uniform_range(-3.0, 3.0, 4 * 7).reshape(4, 7).astype(dtype)
    before = xs.copy()
    plain = dense_forward_batch(layer, xs)
    cache = []
    cached = dense_forward_batch(layer, xs, cache)
    assert plain.dtype == cached.dtype == dtype
    assert _same_bits([plain], [cached])
    assert np.array_equal(xs, before)
    (cached_xs, cached_out), = cache
    assert cached_xs is xs and cached_out is cached
    assert _same_bits([cached],
                      [reference_activation(act, xs @ layer.weights.T + layer.bias)])


@pytest.mark.parametrize("act", list(Activation))
def test_mlp_cache_holds_each_output_once(act):
    """Each layer's cached output is the next layer's cached input, the
    same array, and the last one is what forward returns."""
    rng = RngStream(ACT_SEEDS[act])
    mlp = init_mlp(rng, (6, 5, 4, 3), [act] * 3)
    xs = rng.gaussian(2 * 6).reshape(2, 6)
    cache = []
    out = mlp.forward(xs, cache)
    assert len(cache) == 3 and cache[0][0] is xs and cache[-1][1] is out
    for i in range(len(cache) - 1):
        assert cache[i][1] is cache[i + 1][0]


# Negative z whose LEAKY_SLOPE * z rounds to -0: -k * smallest_subnormal for
# k = 1..SLOPE_CORNER[dtype].  Leaky ReLU's output there is -0, so the slope
# read from the output is 1 where the slope read from z is LEAKY_SLOPE.
SLOPE_CORNER = {np.float32: 50, np.float64: 49}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", list(Activation))
def test_slope_from_output_matches_slope_from_z(act, dtype):
    """Bit for bit the slope taken from z, on the special values and on
    -k * smallest_subnormal for k up to 100, except at leaky ReLU's corner."""
    tiny = np.finfo(dtype).smallest_subnormal
    z = np.concatenate([_special_values(dtype), (-np.arange(1, 101) * tiny).astype(dtype)])
    got = _activation_grad(act, _apply_activation(act, z.copy()))
    want = reference_activation_slope(act, z)
    if act is Activation.LEAKY_RELU:
        corner = np.isin(z, (-np.arange(1, SLOPE_CORNER[dtype] + 1) * tiny).astype(dtype))
        assert np.all(want[corner] == dtype(LEAKY_SLOPE))
        want[corner] = 1.0
    assert _same_bits([got], [want])


# ---------------------------------------------------------------------------
# dtypes: float32 in, float32 out.  A silent promotion to float64 would pass
# every other test and only lose the float32 speed-up.

F32 = np.float32


def _f32_layer(rng, in_dim, out_dim, act):
    layer = init_dense(rng, in_dim, out_dim, act)
    return DenseLayer(layer.weights.astype(F32), layer.bias.astype(F32), act)


@pytest.mark.parametrize("act", list(Activation))
def test_float32_kernels_keep_float32(act):
    rng = RngStream(ACT_SEEDS[act])
    mlp = Mlp([_f32_layer(rng, 6, 5, act), _f32_layer(rng, 5, 4, act)])
    assert all(p.dtype == F32 for p in mlp.params())
    xs = rng.gaussian(3 * 6).reshape(3, 6).astype(F32)
    g = rng.gaussian(3 * 4).reshape(3, 4).astype(F32)
    layer = mlp.layers[0]
    assert dense_forward_batch(layer, xs).dtype == F32
    g0 = rng.gaussian(3 * 5).reshape(3, 5).astype(F32)
    assert [a.dtype for a in dense_backward_batch(layer, xs, g0)] == [F32] * 3

    cache = []
    out = mlp.forward(xs, cache)
    assert out.dtype == F32 and all(a.dtype == F32 for pair in cache for a in pair)
    gin, param_grads = mlp.backward(cache, g)
    assert gin.dtype == F32 and all(a.dtype == F32 for a in param_grads)
    state = AdamState.zeros_like(mlp.params())
    assert all(a.dtype == F32 for a in state.first_moment + state.second_moment)


def test_dense_layer_keeps_float_dtypes():
    layer = init_dense(RngStream(3), 4, 3, Activation.LEAKY_RELU)
    for dtype, kept in ((F32, F32), (np.float64, np.float64), (np.int64, np.float64)):
        cast = DenseLayer(layer.weights.astype(dtype), layer.bias.astype(dtype),
                          layer.activation)
        assert cast.weights.dtype == cast.bias.dtype == kept


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_dense_layer_rejects_zero_width(shape):
    with pytest.raises(ContractViolationError, match="zero"):
        DenseLayer(np.zeros(shape), np.zeros(shape[0]), Activation.LEAKY_RELU)


def test_mlp_rejects_empty_or_unchained_layers():
    with pytest.raises(ContractViolationError, match="at least one layer"):
        Mlp([])
    rng = RngStream(7)
    with pytest.raises(ContractViolationError, match="layer 0 maps to 3 dims.*reads 5"):
        Mlp([init_dense(rng, 4, 3, Activation.LEAKY_RELU),
             init_dense(rng, 5, 2, Activation.LEAKY_RELU)])


@pytest.mark.parametrize("bad", [
    ("weights", np.nan), ("weights", np.inf), ("weights", -np.inf), ("bias", np.nan)])
def test_dense_layer_rejects_non_finite_parameters(bad):
    which, value = bad
    params = {"weights": np.ones((3, 4)), "bias": np.zeros(3)}
    params[which].flat[-1] = value
    with pytest.raises(ContractViolationError, match="parameters must be finite"):
        DenseLayer(params["weights"], params["bias"], Activation.LEAKY_RELU)


@pytest.mark.parametrize("activation", ["leaky_relu", "tanh", None])
def test_dense_layer_rejects_unknown_activation(activation):
    """Only an Activation member is accepted: the kernels would read
    anything else as the sigmoid."""
    with pytest.raises(ContractViolationError, match="unknown activation"):
        DenseLayer(np.eye(2), np.zeros(2), activation)


def test_dense_layer_rejects_mixed_dtypes():
    with pytest.raises(ContractViolationError, match="float32"):
        DenseLayer(np.eye(2, dtype=F32), np.zeros(2), Activation.LEAKY_RELU)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_far_below_zero_is_zero_without_warning(dtype):
    layer = DenseLayer(np.ones((1, 1), dtype), np.zeros(1, dtype), Activation.SIGMOID)
    xs = np.array([[-100.0], [-1000.0]], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = dense_forward_batch(layer, xs)
        _, gw, gb = dense_backward_batch(layer, xs, np.ones((2, 1), dtype))
    assert out.dtype == gw.dtype == gb.dtype == dtype
    assert out[1, 0] == 0.0 and np.isfinite(gw).all()
    if dtype is np.float32:
        assert out[0, 0] == 0.0


def test_train_autoencoder_returns_float32_exact_float64():
    frames = [Frame(RngStream(s).uniform(FRAME_SIDE * FRAME_SIDE).reshape(
        FRAME_SIDE, FRAME_SIDE)) for s in range(6)]
    cfg = AutoencoderConfig(epochs=2, batch_size=2, latent_dim=8)
    x = np.asarray(frames).reshape(len(frames), -1)
    model, _ = train_autoencoder(x[:4], x[4:], cfg, seed=4)
    for a in model.params():
        assert a.dtype == np.float64
        assert _same_bits([a], [a.astype(F32).astype(np.float64)])


def _train_tiny_autoencoder():
    x = RngStream(5).uniform(6 * FRAME_PIXELS).reshape(6, FRAME_PIXELS)
    train_autoencoder(x[:4], x[4:], AutoencoderConfig(epochs=2, batch_size=2, latent_dim=4))


def _train_tiny_flow():
    z = RngStream(6).gaussian(6 * 4).reshape(6, 4)
    train_flow(z[:4], z[4:], FlowConfig(epochs=2, batch_size=2, num_layers=2, hidden=8))


@pytest.mark.parametrize("module, loss_name, message, train", [
    (framewatch.autoencoder, "_mse_loss_and_grads", "autoencoder loss",
     _train_tiny_autoencoder),
    (framewatch.flow, "_nll_loss_and_grads", "flow NLL", _train_tiny_flow),
], ids=["autoencoder", "flow"])
def test_non_finite_batch_loss_stops_before_its_step(monkeypatch, module, loss_name,
                                                     message, train):
    """A NaN loss on the second batch raises TrainingError naming the model,
    epoch 0 and batch 1, and that batch takes no Adam step: the parameters
    stay those the first batch's step left."""
    real = getattr(module, loss_name)
    seen = []   # (model, copy of its parameters) at each batch

    def nan_on_second_batch(model, batch):
        seen.append((model, [p.copy() for p in model.params()]))
        loss, grads = real(model, batch)
        return (math.nan if len(seen) == 2 else loss), grads

    monkeypatch.setattr(module, loss_name, nan_on_second_batch)
    with pytest.raises(TrainingError, match=f"^{message} non-finite at epoch 0, batch 1$"):
        train()
    assert len(seen) == 2
    (model, before), (_, after_first_step) = seen
    assert not all(np.array_equal(a, b) for a, b in zip(before, after_first_step))
    assert all(np.array_equal(p, kept) for p, kept in zip(model.params(), after_first_step))


ROSE = "val stub loss did not improve over training: 3 after epoch 2, above 1 after epoch 0"


@pytest.mark.parametrize("val_losses, expected", [
    ((1.0, 2.0, 3.0), [ROSE]), ((3.0, 2.0, 1.0), []), ((1.0, 1.0, 1.0), [])],
    ids=["rising", "falling", "flat"])
def test_train_epochs_warns_when_the_last_val_loss_is_above_epoch_0s(val_losses, expected):
    """train_epochs reports each epoch's losses and exactly one warning,
    naming the model and both losses, when the last epoch's val loss is
    above epoch 0's; a fall or no change gives none."""
    scripted = iter(val_losses)
    report = train_epochs([np.zeros(2)], 4, AutoencoderConfig(epochs=3, batch_size=2),
                          RngStream(0), lambda rows: (0.5, [np.zeros(2)]),
                          lambda: next(scripted), "stub loss", adam_step)
    assert report == TrainReport([0.5] * 3, list(val_losses), expected)


# ---------------------------------------------------------------------------
# finite differences

def test_finite_diff_square():
    grad = finite_diff_grad(lambda x: float(x[0] * x[0]), np.array([3.0]), 1e-5)
    assert grad[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant():
    grad = finite_diff_grad(lambda x: 1.5, np.arange(4.0), 1e-5)
    assert not grad.any()


def test_finite_diff_nonfinite_names_component():
    def f(x):
        return float("nan") if x[1] > 0.5 else 0.0

    with pytest.raises(ContractViolationError, match="component 1"):
        finite_diff_grad(f, np.array([0.0, 0.5]), 1e-2)
