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
from dataclasses import dataclass, field

import numpy as np

from .data_io import AnomalyLabel
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
        return json.dumps({
            "overall_auc": self.overall_auc,
            "per_type_auc": self.per_type_auc,
            "per_axis_auc": self.per_axis_auc,
            "counts": self.counts,
            "threshold": self.threshold,
            "threshold_quantile": self.threshold_quantile,
            "val_false_positive_rate": self.val_false_positive_rate,
            "warnings": self.warnings,
        }, indent=2, sort_keys=True)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _split_scores(scored: list[ScoredSample]):
    pos = np.array([s.score for s in scored if s.anomaly_type is not None])
    neg = np.array([s.score for s in scored if s.anomaly_type is None])
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError(
            "AUC needs at least one normal and one anomalous sample "
            f"(got {neg.size} normal, {pos.size} anomalous)")
    return pos, neg


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
    pos, neg = _split_scores(scored)
    scores = np.concatenate([neg, pos])
    labels = np.concatenate([np.zeros(neg.size), np.ones(pos.size)])
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]

    points = [RocPoint(float("inf"), 0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[j + 1] == scores[i]:
            j += 1
        tp += int(labels[i:j + 1].sum())
        fp += (j - i + 1) - int(labels[i:j + 1].sum())
        points.append(RocPoint(float(scores[i]), tp / pos.size, fp / neg.size))
        i = j + 1
    return points


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


_AXES = (
    ("level", lambda lab: lab.level, ("sensory", "semantic")),
    ("geometric", lambda lab: lab.geometric, ("yes", "no")),
    ("hazard", lambda lab: lab.hazard, ("yes", "no")),
)


def evaluate(scored_test: list[ScoredSample],
             taxonomy: dict[str, AnomalyLabel],
             val_scores: np.ndarray, q: float = 0.99) -> EvalReport:
    """Full evaluation: overall, per-type and per-axis AUC plus threshold."""
    pos_samples = [s for s in scored_test if s.anomaly_type is not None]
    neg = np.array([s.score for s in scored_test if s.anomaly_type is None])
    if not pos_samples:
        raise EvaluationError("evaluate: test set has no anomalous samples")
    if neg.size == 0:
        raise EvaluationError("evaluate: test set has no normal samples")

    warnings: list[str] = []
    overall = auc_from_scores(np.array([s.score for s in pos_samples]), neg)

    per_type: dict[str, float] = {}
    present_types = sorted({s.anomaly_type for s in pos_samples})
    for atype in sorted(set(taxonomy).union(present_types)):
        subset = np.array([s.score for s in pos_samples if s.anomaly_type == atype])
        if subset.size == 0:
            warnings.append(f"anomaly type {atype!r} has no test samples; omitted")
            continue
        per_type[atype] = auc_from_scores(subset, neg)

    per_axis: dict[str, float] = {}
    for axis_name, get, values in _AXES:
        for value in values:
            subset = np.array([
                s.score for s in pos_samples
                if s.anomaly_type in taxonomy and get(taxonomy[s.anomaly_type]) == value])
            if subset.size == 0:
                warnings.append(f"axis {axis_name}={value} has no test samples; omitted")
                continue
            per_axis[f"{axis_name}={value}"] = auc_from_scores(subset, neg)

    tau = choose_threshold(val_scores, q)
    val_fpr = float(np.mean(np.asarray(val_scores) > tau))

    counts = {"normal": int(neg.size), "anomalous": len(pos_samples)}
    for atype in present_types:
        counts[f"type:{atype}"] = sum(1 for s in pos_samples if s.anomaly_type == atype)

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
    """Export scores as CSV for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_id", "split", "label", "anomaly_type", "score"])
    for s in scored:
        label = "normal" if s.anomaly_type is None else "anomalous"
        writer.writerow([s.sample_id, s.split, label, s.anomaly_type or "",
                         repr(s.score)])
    return buf.getvalue()
