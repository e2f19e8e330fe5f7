import numpy as np
import pytest

from framewatch.autoencoder import (AutoencoderConfig, encode_batch,
                                    init_autoencoder, reconstruction_error,
                                    train_autoencoder, _mse_loss_and_grads)
from framewatch.checkpoint import autoencoder_to_dict
from framewatch.data_io import FRAME_SIDE, AnomalyLabel, Frame
from framewatch.errors import ContractViolationError, ProtocolViolationError
from framewatch.rng import RngStream

from _helpers import finite_diff_grad, max_rel_err, pack, unpack


def _frame(value=0.5, seed=None):
    if seed is None:
        pixels = np.full((FRAME_SIDE, FRAME_SIDE), value)
    else:
        pixels = RngStream(seed).uniform(FRAME_SIDE * FRAME_SIDE).reshape(
            FRAME_SIDE, FRAME_SIDE)
    return Frame(pixels)


def encode(model, frame):
    """Latent of one frame, as a batch of one."""
    return encode_batch(model, frame.flat()[None, :])[0]


def decode(model, latent):
    """Reconstruction of one latent, as a batch of one."""
    return model.decoder.forward(np.asarray(latent)[None, :])[0]


def _zero_model(latent_dim=8):
    model = init_autoencoder(RngStream(0), latent_dim)
    model.set_params([np.zeros_like(p) for p in model.params()])
    return model


def test_zero_weights_give_zero_latent():
    model = _zero_model()
    assert not encode(model, _frame(seed=1)).any()


def test_encode_deterministic():
    model = init_autoencoder(RngStream(5), 8)
    frame = _frame(seed=2)
    assert np.array_equal(encode(model, frame), encode(model, frame))


def test_decode_zero_model_gives_half():
    model = _zero_model()
    recon = decode(model, np.zeros(8))
    assert np.allclose(recon, 0.5)


def test_decode_range_is_unit_interval():
    model = init_autoencoder(RngStream(6), 8)
    for seed in range(5):
        recon = decode(model, 10.0 * RngStream(seed).gaussian(8))
        assert recon.min() >= 0.0 and recon.max() <= 1.0


def test_decode_wrong_latent_length():
    with pytest.raises(ContractViolationError):
        decode(init_autoencoder(RngStream(0), 8), np.zeros(9))


def _recon_one(model, frame):
    flats = frame.flat()[None, :]
    return reconstruction_error(model, flats, encode_batch(model, flats))[0]


def test_reconstruction_error_zero_when_identical():
    # zero model reconstructs everything to 0.5, so a 0.5 frame has zero error
    assert _recon_one(_zero_model(), _frame(0.5)) == 0.0


def test_reconstruction_error_analytic():
    assert _recon_one(_zero_model(), _frame(0.0)) == pytest.approx(0.25)


def test_reconstruction_error_matches_loop_oracle():
    model = init_autoencoder(RngStream(7), 8)
    frame = _frame(seed=3)
    recon = decode(model, encode(model, frame))
    flat = frame.flat()
    acc = 0.0
    for i in range(flat.size):
        acc += (recon[i] - flat[i]) ** 2
    assert _recon_one(model, frame) == pytest.approx(acc / flat.size, rel=1e-12)


def test_tiny_model_full_gradient_check():
    rng = RngStream(8)
    model = init_autoencoder(rng, latent_dim=4, input_dim=16, hidden=(8,))
    batch = rng.uniform(2 * 16).reshape(2, 16)
    _, grads = _mse_loss_and_grads(model, batch)
    shapes = [p.shape for p in model.params()]
    theta = pack(model.params())

    def f(v):
        model.set_params(unpack(v, shapes))
        loss, _ = _mse_loss_and_grads(model, batch)
        return loss

    fd = finite_diff_grad(f, theta, 1e-5)
    model.set_params(unpack(theta, shapes))
    assert max_rel_err(pack(grads), fd) < 1e-4


def test_train_memorizes_single_frame():
    frame = _frame(seed=4)
    _, report = train_autoencoder([frame], [frame],
                                  AutoencoderConfig(epochs=50, batch_size=1,
                                                    seed=3))
    assert report.train_loss[-1] < 1e-3
    assert report.epochs_run == 50


def test_train_deterministic_checkpoints():
    frames = [_frame(seed=s) for s in range(6)]
    cfg = AutoencoderConfig(epochs=3, batch_size=2, seed=12, latent_dim=8)
    model_a, _ = train_autoencoder(frames[:4], frames[4:], cfg)
    model_b, _ = train_autoencoder(frames[:4], frames[4:], cfg)
    assert autoencoder_to_dict(model_a, cfg) == autoencoder_to_dict(model_b, cfg)


def test_train_rejects_empty_split():
    with pytest.raises(ProtocolViolationError):
        train_autoencoder([], [_frame()], AutoencoderConfig())


def test_train_rejects_anomalous_frame():
    bad = Frame(np.full((FRAME_SIDE, FRAME_SIDE), 0.3),
                label=AnomalyLabel("tape", "semantic", "yes", "yes"))
    with pytest.raises(ProtocolViolationError):
        train_autoencoder([_frame(), bad], [_frame()],
                          AutoencoderConfig(epochs=1))


def test_trained_latent_is_bounded():
    # regression bound from the reference run: latents stay well below 1e3
    frames = [_frame(seed=s) for s in range(8)]
    cfg = AutoencoderConfig(epochs=5, batch_size=4, seed=1, latent_dim=8)
    model, _ = train_autoencoder(frames[:6], frames[6:], cfg)
    for frame in frames[:6]:
        assert np.abs(encode(model, frame)).max() < 1e3
