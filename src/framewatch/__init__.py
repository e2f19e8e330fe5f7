"""Unsupervised visual anomaly detection for mobile-robot camera streams.

Train an autoencoder and a coupling-layer normalizing flow on normal
frames only, score frames by latent negative log-likelihood, evaluate
with ROC/AUC per anomaly type, and drive a stop/backtrack deployment
monitor over a live score stream.
"""

from .autoencoder import (AutoencoderConfig, AutoencoderModel, TrainReport,
                          encode_batch, reconstruction_error, train_autoencoder)
from .data_io import (AnomalyLabel, Frame, ScenarioDataset, decode_pgm,
                      encode_pgm, load_scenario, parse_labels, resize_bilinear)
from .evaluation import (EvalReport, RocPoint, auc_from_scores, choose_threshold,
                         evaluate, roc_curve)
from .flow import (CouplingLayer, FlowConfig, FlowModel, ScoredSample,
                   coupling_forward, flow_inverse_batch, flow_log_prob_batch,
                   train_flow)
from .monitor import (Action, MonitorConfig, MonitorState, Phase, monitor_step,
                      run_monitor)
from .nn import Activation, AdamState, DenseLayer, adam_step
from .pipeline import RunConfig, train_pipeline
from .rng import RngStream
from .scoring import ScoreConfig, score_frames
from .synth import SynthSpec, apply_anomaly, generate_normal, generate_scenario

__version__ = "0.1.0"
