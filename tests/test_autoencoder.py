import numpy as np
import pytest

from framewatch.autoencoder import (AutoencoderConfig, AutoencoderModel, encode_batch,
                                    init_autoencoder, reconstruction_error,
                                    train_autoencoder, _mse_loss_and_grads)
from framewatch.checkpoint import autoencoder_to_dict, save_json
from framewatch.data_io import FRAME_PIXELS, FRAME_SIDE, Frame, as_intensities
from framewatch.errors import ContractViolationError
from framewatch.nn import Activation, init_mlp
from framewatch.rng import RngStream

from _helpers import finite_diff_param_grad, max_rel_err, pack


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
    for p in model.params():
        p[...] = 0.0
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

    def f():
        loss, _ = _mse_loss_and_grads(model, batch)
        return loss

    fd = finite_diff_param_grad(f, model.params(), 1e-5)
    assert max_rel_err(pack(grads), fd) < 1e-4


def test_train_memorizes_single_frame():
    frame = _frame(seed=4)
    _, report = train_autoencoder(frame.flat()[None], frame.flat()[None],
                                  AutoencoderConfig(epochs=50, batch_size=1),
                                  seed=3)
    assert report.train_loss[-1] < 1e-3
    assert len(report.train_loss) == len(report.val_loss) == 50


def test_train_deterministic_checkpoints(tmp_path):
    frames = [_frame(seed=s) for s in range(6)]
    cfg = AutoencoderConfig(epochs=3, batch_size=2, latent_dim=8)
    x = np.asarray(frames).reshape(len(frames), -1)
    for name in ("a", "b"):
        model, _ = train_autoencoder(x[:4], x[4:], cfg, seed=12)
        save_json(autoencoder_to_dict(model), tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("decoder_dims", [(4, 8, 9), (5, 8, 16)],
                         ids=["wrong-output", "wrong-input"])
def test_autoencoder_model_rejects_decoder_that_does_not_map_back(decoder_dims):
    """An encoder of 16 -> 8 -> 4 needs a decoder of 4 -> ... -> 16."""
    acts = [Activation.LEAKY_RELU] * 2
    encoder = init_mlp(RngStream(0), (16, 8, 4), acts)
    with pytest.raises(ContractViolationError, match="latent_dim 4 -> input_dim 16"):
        AutoencoderModel(encoder, init_mlp(RngStream(1), decoder_dims, acts))


def test_train_rejects_empty_split():
    with pytest.raises(ContractViolationError, match="train frames"):
        train_autoencoder(np.zeros((0, FRAME_PIXELS)), _frame().flat()[None],
                          AutoencoderConfig())


@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
@pytest.mark.parametrize("split", ["train", "val"])
def test_train_rejects_integer_frames(dtype, split):
    """Read as intensities 0-255, codes would give losses thousands of
    times too large; integer or boolean frames are refused before training,
    naming the dtype."""
    frames = {"train": _frame().flat()[None], "val": _frame().flat()[None]}
    frames[split] = np.full((1, FRAME_PIXELS), 200).astype(dtype)
    with pytest.raises(ContractViolationError, match=np.dtype(dtype).name):
        train_autoencoder(frames["train"], frames["val"], AutoencoderConfig(epochs=1))


def test_codes_and_their_intensities_train_alike():
    """Each step turns its batch's rows into float32 intensities: uint8
    codes, their float32 and their float64 intensities train to bit-equal
    parameters and equal reports (a short last batch included)."""
    codes = np.floor(RngStream(9).uniform(10 * FRAME_PIXELS) * 256).astype(np.uint8)
    codes = codes.reshape(10, FRAME_PIXELS)
    cfg = AutoencoderConfig(epochs=2, batch_size=3, latent_dim=8)
    (model, report), *others = (
        train_autoencoder(x[:7], x[7:], cfg, seed=5)
        for x in (codes, as_intensities(codes, np.float32), as_intensities(codes)))
    for other_model, other_report in others:
        assert other_report == report
        for got, want in zip(other_model.params(), model.params()):
            assert got.tobytes() == want.tobytes()


def test_trained_latent_is_bounded():
    # regression bound from the reference run: latents stay well below 1e3
    frames = [_frame(seed=s) for s in range(8)]
    cfg = AutoencoderConfig(epochs=5, batch_size=4, latent_dim=8)
    x = np.asarray(frames).reshape(len(frames), -1)
    model, _ = train_autoencoder(x[:6], x[6:], cfg, seed=1)
    for frame in frames[:6]:
        assert np.abs(encode(model, frame)).max() < 1e3
