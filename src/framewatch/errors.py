"""Exception hierarchy shared by all framewatch modules.

Every error that maps to a CLI exit code has its own class; see cli.py
for the mapping.
"""


class FramewatchError(Exception):
    """Base class for all framewatch errors."""


class ContractViolationError(FramewatchError):
    """A caller broke an operation precondition (bad shape, non-finite input...)."""


class ConfigError(FramewatchError):
    """Invalid or inconsistent configuration (unknown keys, bad values)."""


class IOFailure(FramewatchError):
    """Filesystem problem, reported with path context."""


class ParseError(FramewatchError):
    """Malformed input file (PGM, labels CSV); carries position context."""


class ProtocolViolationError(FramewatchError):
    """The normal-only split protocol was violated (anomaly in train/val)."""


class CheckpointError(FramewatchError):
    """Checkpoint unreadable or incompatible with the dataset/config."""


class TrainingError(FramewatchError):
    """Training diverged or hit non-finite values; carries step context."""


class ScoringError(FramewatchError):
    """Scoring produced a non-finite value."""


class EvaluationError(FramewatchError):
    """Metric undefined for the given inputs (e.g. single-class AUC)."""
