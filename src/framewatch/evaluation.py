"""ROC/AUC evaluation with per-anomaly-type and per-axis breakdowns.

AUC follows the Mann-Whitney convention: the fraction of
(anomalous, normal) pairs where the anomaly scores strictly higher, with
ties counted as half.  The fast implementation uses average ranks and is
exactly equal to the pairwise definition (both compute the same
half-integer numerator).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_io import LABEL_AXES, AnomalyLabel
from .errors import EvaluationError
from .flow import ScoredSample


@dataclass
class RocPoint:
    threshold: float
    true_positive_rate: float
    false_positive_rate: float


@dataclass
class EvalReport:
    overall_auc: float
    per_type_auc: dict[str, float]
    per_axis_auc: dict[str, float]
    counts: dict[str, int]
    threshold: float
    threshold_quantile: float
    val_false_positive_rate: float
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _tie_runs(sorted_vals: np.ndarray) -> np.ndarray:
    """Boundaries b of the runs of equal values in a sorted array: run k is
    sorted_vals[b[k]:b[k + 1]]."""
    inner = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    return np.concatenate(([0], inner, [sorted_vals.size]))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    order = np.argsort(values, kind="stable")
    bounds = _tie_runs(values[order])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] - 1) / 2.0 + 1.0,
                             np.diff(bounds))
    return ranks


def auc_from_scores(pos: np.ndarray, neg: np.ndarray) -> float:
    """Rank-based Mann-Whitney AUC over positive/negative score arrays."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError("AUC undefined for a single-class input")
    ranks = _average_ranks(np.concatenate([neg, pos]))
    u = ranks[neg.size:].sum() - pos.size * (pos.size + 1) / 2.0
    return u / (pos.size * neg.size)


def roc_curve(scored: list[ScoredSample]) -> list[RocPoint]:
    """ROC points, one per distinct score threshold, plus both endpoints.

    A sample is predicted anomalous when score >= threshold.  The
    trapezoidal area under the returned curve equals auc_from_scores().
    """
    pos = np.array([s.score for s in scored if s.anomaly_type is not None])
    neg = np.array([s.score for s in scored if s.anomaly_type is None])
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError(
            "AUC needs at least one normal and one anomalous sample "
            f"(got {neg.size} normal, {pos.size} anomalous)")
    scores = np.concatenate([neg, pos])
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    bounds = _tie_runs(scores)
    ends = bounds[1:]
    tp = np.cumsum(order >= neg.size)[ends - 1]
    fp = ends - tp
    return [RocPoint(float("inf"), 0.0, 0.0)] + [
        RocPoint(*point) for point in zip(scores[bounds[:-1]].tolist(),
                                          (tp / pos.size).tolist(),
                                          (fp / neg.size).tolist())]


def choose_threshold(val_scores: np.ndarray, q: float = 0.99) -> float:
    """Empirical q-quantile of normal-only validation scores.

    Linear interpolation between order statistics, so the expected
    validation false-positive rate is about 1 - q.
    """
    val_scores = np.asarray(val_scores, dtype=np.float64)
    if val_scores.size == 0:
        raise EvaluationError("choose_threshold: validation scores are empty")
    if not 0.0 < q < 1.0:
        raise EvaluationError(f"choose_threshold: quantile must be in (0, 1), got {q}")
    return float(np.quantile(val_scores, q))


_AXES = ("level", "geometric", "hazard")   # the label axes with per-value AUCs


def evaluate(scored_test: list[ScoredSample],
             taxonomy: dict[str, AnomalyLabel],
             val_scores: np.ndarray, q: float = 0.99) -> EvalReport:
    """Full evaluation: overall, per-type and per-axis AUC plus threshold.
    The samples are read once; each subset is a boolean mask over them."""
    types = np.array([s.anomaly_type for s in scored_test], dtype=object)
    scores = np.array([s.score for s in scored_test], dtype=np.float64)
    normal = types == None  # noqa: E711 (elementwise)
    pos, pos_types, neg = scores[~normal], types[~normal], scores[normal]
    if pos.size == 0:
        raise EvaluationError("evaluate: test set has no anomalous samples")
    if neg.size == 0:
        raise EvaluationError("evaluate: test set has no normal samples")

    warnings: list[str] = []
    overall = auc_from_scores(pos, neg)

    per_type: dict[str, float] = {}
    of_type = {atype: pos_types == atype for atype in sorted(set(pos_types))}
    for atype in sorted(set(taxonomy).union(of_type)):
        if atype not in of_type:
            warnings.append(f"anomaly type {atype!r} has no test samples; omitted")
            continue
        per_type[atype] = auc_from_scores(pos[of_type[atype]], neg)

    per_axis: dict[str, float] = {}
    for axis_name in _AXES:
        for value in LABEL_AXES[axis_name]:
            subset = np.zeros(pos.size, dtype=bool)
            for atype in of_type:
                if atype in taxonomy and getattr(taxonomy[atype], axis_name) == value:
                    subset |= of_type[atype]
            if not subset.any():
                warnings.append(f"axis {axis_name}={value} has no test samples; omitted")
                continue
            per_axis[f"{axis_name}={value}"] = auc_from_scores(pos[subset], neg)

    tau = choose_threshold(val_scores, q)
    val_fpr = float(np.mean(np.asarray(val_scores) > tau))

    counts = {"normal": int(neg.size), "anomalous": int(pos.size),
              **{f"type:{atype}": int(mask.sum()) for atype, mask in of_type.items()}}

    return EvalReport(
        overall_auc=overall,
        per_type_auc=per_type,
        per_axis_auc=per_axis,
        counts=counts,
        threshold=tau,
        threshold_quantile=q,
        val_false_positive_rate=val_fpr,
        warnings=warnings,
    )


def scores_to_csv(scored: list[ScoredSample]) -> str:
    """Export test-split scores as CSV for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_id", "split", "label", "anomaly_type", "score"])
    for s in scored:
        label = "normal" if s.anomaly_type is None else "anomalous"
        writer.writerow([s.sample_id, "test", label, s.anomaly_type or "",
                         repr(s.score)])
    return buf.getvalue()
