import filecmp
from pathlib import Path

import numpy as np
import pytest

from framewatch.config import from_dict
from framewatch.data_io import FRAME_SIDE, Frame, load_scenario
from framewatch.errors import ConfigError, IOFailure
from framewatch.rng import RngStream
from framewatch.synth import (SynthSpec, apply_anomaly, generate_normal,
                              generate_scenario, generate_stream)

SMALL_SPEC = SynthSpec(seed=7, n_train=6, n_val=3, n_test_normal=3,
                       n_per_anomaly={"dim_light": 2, "blob": 2,
                                      "sensor_noise": 2})


def test_normal_frame_gradient_structure():
    frame = generate_normal(RngStream(1).derive(0), 0)
    # texture amplitude 0.05 and noise sigma 0.02 around the 0.2 -> 0.8 ramp
    assert abs(frame.pixels[0].mean() - 0.2) < 0.08
    assert abs(frame.pixels[-1].mean() - 0.8) < 0.08
    assert frame.pixels.min() >= 0.0 and frame.pixels.max() <= 1.0


def test_normal_frame_deterministic():
    a = generate_normal(RngStream(5).derive(3), 3)
    b = generate_normal(RngStream(5).derive(3), 3)
    assert np.array_equal(a.pixels, b.pixels)


def test_dim_light_analytic():
    frame = Frame(np.full((FRAME_SIDE, FRAME_SIDE), 0.5))
    out, label = apply_anomaly(frame, "dim_light", SynthSpec(), RngStream(0))
    assert np.allclose(out.pixels, 0.1)
    assert label.level == "sensory" and label.hazard == "no"


def test_blob_overwrites_exact_rectangle():
    frame = Frame(np.full((FRAME_SIDE, FRAME_SIDE), 0.5))  # free of 0.95
    out, label = apply_anomaly(frame, "blob", SynthSpec(), RngStream(8))
    assert int((out.pixels == 0.95).sum()) == 256
    assert label.geometric == "yes" and label.hazard == "yes"


def test_sensor_noise_flip_count_binomial_bounds():
    frame = Frame(np.full((FRAME_SIDE, FRAME_SIDE), 0.5))
    out, _ = apply_anomaly(frame, "sensor_noise", SynthSpec(), RngStream(9))
    flipped = int((out.pixels != 0.5).sum())
    # Binomial(4096, 0.05): ~4-sigma bounds
    assert 150 <= flipped <= 260


def test_unknown_kind_rejected():
    frame = Frame(np.full((FRAME_SIDE, FRAME_SIDE), 0.5))
    with pytest.raises(ConfigError):
        apply_anomaly(frame, "fog", SynthSpec(), RngStream(0))


def test_generate_scenario_counts(tmp_path):
    ds = generate_scenario(SMALL_SPEC, tmp_path / "scen")
    assert len(ds.train) == 6 and len(ds.val) == 3 and len(ds.test) == 9
    assert sum(label is not None for label in ds.test.labels) == 6
    assert len(ds.taxonomy) == 3


def test_generate_round_trips_through_loader(tmp_path):
    out = tmp_path / "scen"
    generate_scenario(SMALL_SPEC, out)
    load_scenario(out)  # building the dataset runs every protocol check


def test_generate_deterministic_trees(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_scenario(SMALL_SPEC, a)
    generate_scenario(SMALL_SPEC, b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_anomalies_visually_separable():
    spec = SynthSpec()
    rng = RngStream(123)
    for kind in ("dim_light", "blob", "sensor_noise"):
        for t in range(10):
            base = generate_normal(rng.derive(t), t)
            anomalous, _ = apply_anomaly(base, kind, spec, rng.derive(1000 + t))
            assert np.abs(anomalous.pixels - base.pixels).mean() >= 0.01


def test_spec_rejects_bad_values():
    with pytest.raises(ConfigError):
        SynthSpec(n_train=-1)
    with pytest.raises(ConfigError):
        SynthSpec(noise_p=1.5)
    with pytest.raises(ConfigError):
        from_dict(SynthSpec, {"bogus_key": 1}, "synth spec")


def test_spec_needs_a_val_frame():
    with pytest.raises(ConfigError, match="n_val"):
        SynthSpec(n_val=0)
    assert SynthSpec(n_train=0).n_train == 0


def test_stream_refuses_to_mix_two_streams(tmp_path):
    """A shorter stream into a directory of a longer one would leave the
    longer one's tail behind it: refused, with nothing written.  A stream
    that writes every name present regenerates in place."""
    def frames():
        return {p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.pgm"))}

    generate_stream(SMALL_SPEC, tmp_path, 8, "blob", 4)
    before = frames()
    with pytest.raises(IOFailure, match=r"holds 2 \.pgm files"):
        generate_stream(SMALL_SPEC, tmp_path, 10, stream_seed=3)
    assert frames() == before
    generate_stream(SMALL_SPEC, tmp_path, 8, "blob", 4)
    assert frames() == before
    generate_stream(SMALL_SPEC, tmp_path, 14, stream_seed=3)
    assert len(frames()) == 14 and frames() != before


def test_stream_of_unknown_kind_writes_no_frame(tmp_path):
    """An unknown anomaly kind is refused before the stream's normal
    frames are written, not after them."""
    with pytest.raises(ConfigError, match="unknown anomaly kind 'fog'"):
        generate_stream(SMALL_SPEC, tmp_path / "stream", 8, "fog", 4)
    assert not (tmp_path / "stream").exists()


@pytest.mark.parametrize("n_normal, n_anomalous, message", [
    (-5, 10, "n_normal must be >= 0, got -5"),
    (8, -1, "n_anomalous must be >= 0, got -1"),
])
def test_stream_of_negative_count_writes_no_frame(tmp_path, n_normal, n_anomalous, message):
    """A negative count is refused as SynthSpec refuses one, before any
    frame is written."""
    with pytest.raises(ConfigError, match=message):
        generate_stream(SMALL_SPEC, tmp_path / "stream", n_normal, "blob", n_anomalous)
    assert not (tmp_path / "stream").exists()
