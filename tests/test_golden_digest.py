"""Golden digest of the trained parameters of a small, fixed run.

Criterion 9 proves that two runs of one version agree byte for byte. This
test pins what they agree on, so a change to the kernels, the training
loop or the checkpoint container that alters any trained parameter, even
in the last bit, fails here. The digest covers each parameter's dtype and
raw bytes, in a fixed order, both as trained and as reloaded from a
checkpoint, so a float32 array leaking out of training changes it too; it
never hashes the checkpoint file, whose layout may change without the
parameters changing.
"""

import hashlib

import numpy as np

from framewatch import checkpoint as ckpt
from framewatch.data_io import load_scenario
from framewatch.pipeline import RunConfig, pipeline_checkpoint, train_pipeline
from framewatch.synth import SynthSpec, generate_scenario

# The criterion 9 configuration.
SYNTH = dict(seed=7, n_train=24, n_val=8, n_test_normal=8,
             n_per_anomaly={"dim_light": 4, "blob": 4, "sensor_noise": 4})
RUN = {"seed": 7,
       "autoencoder": {"epochs": 5, "batch_size": 8, "latent_dim": 16},
       "flow": {"epochs": 8, "batch_size": 8, "num_layers": 4, "hidden": 16}}

# Taken with numpy 2.4 on OpenBLAS 0.3.31 (Haswell kernels), the same with
# one BLAS thread or two, for float32 autoencoder training. Re-pin it only
# for a BLAS that rounds differently, or for a change that alters training
# numerics on purpose; either way record the old and the new digest, and
# why, where the change is recorded (CHANGES.md).
GOLDEN_SHA256 = "2bd8d2bcd556aff311e05007ff0c334d0455acc55adc067f5816c09b18795804"


def parameter_digest(ae, flow, threshold) -> str:
    """sha256 over autoencoder params (encoder then decoder, weights then
    bias per layer), then per coupling layer its mask, scale-net and
    shift-net params, then the whitening mean and std, then the threshold."""
    arrays = list(ae.params())
    for layer in flow.layers:
        arrays += [layer.mask, *layer.scale_net.params(), *layer.shift_net.params()]
    arrays += [flow.whitening_mean, flow.whitening_std, np.float64(threshold)]
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(a.dtype.str.encode("ascii"))
        digest.update(a.tobytes())
    return digest.hexdigest()


def test_trained_parameters_match_golden_digest(tmp_path):
    generate_scenario(SynthSpec(**SYNTH), tmp_path / "scen")
    dataset = load_scenario(tmp_path / "scen")
    config = RunConfig.from_dict(RUN)
    trained = train_pipeline(dataset, config)
    assert parameter_digest(trained.autoencoder, trained.flow,
                            trained.threshold) == GOLDEN_SHA256

    path = tmp_path / "checkpoint.json"
    ckpt.save_json(pipeline_checkpoint(trained, config), path)
    ae, flow, _, threshold = ckpt.pipeline_from_dict(ckpt.load_json(path))
    assert parameter_digest(ae, flow, threshold) == GOLDEN_SHA256
