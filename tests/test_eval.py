import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framewatch.data_io import AnomalyLabel
from framewatch.errors import EvaluationError
from framewatch.evaluation import (auc_from_scores, choose_threshold, evaluate,
                                   roc_curve, scores_to_csv)
from framewatch.flow import ScoredSample
from framewatch.rng import RngStream

from _helpers import brute_force_auc, roc_auc_trapezoid


def _scored(normals, anomalies, atype="tape"):
    out = [ScoredSample(f"n{i}", s) for i, s in enumerate(normals)]
    out += [ScoredSample(f"a{i}", s, anomaly_type=atype)
            for i, s in enumerate(anomalies)]
    return out


def test_auc_four_sample_example():
    # pairs: (0.3 vs 0.1, 0.3 vs 0.2, 0.15 vs 0.1, 0.15 vs 0.2) -> 3/4
    assert auc_from_scores([0.3, 0.15], [0.1, 0.2]) == 0.75


def test_auc_perfect_separation():
    assert auc_from_scores([0.4, 0.5], [0.1, 0.2, 0.3]) == 1.0


def test_auc_all_ties():
    assert auc_from_scores([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(EvaluationError):
        auc_from_scores([], [0.1])


def test_auc_matches_brute_force_with_ties():
    rng = RngStream(50)
    for _ in range(300):
        n_pos = 1 + int(rng.integers(0, 30, 1)[0])
        n_neg = 1 + int(rng.integers(0, 30, 1)[0])
        # quantized scores force plenty of ties
        pos = np.round(rng.uniform(n_pos) * 8) / 8
        neg = np.round(rng.uniform(n_neg) * 8) / 8
        assert auc_from_scores(pos, neg) == brute_force_auc(pos, neg)


# Scores live on a coarse grid so that tanh stays injective in floating
# point; for arbitrary floats the squash can merge near-equal values into
# ties, which genuinely changes the AUC.
@given(st.lists(st.integers(-32, 32), min_size=1, max_size=30),
       st.lists(st.integers(-32, 32), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_auc_invariant_under_monotone_transform(neg, pos):
    pos = np.array(pos) / 8.0
    neg = np.array(neg) / 8.0
    direct = auc_from_scores(pos, neg)
    squashed = auc_from_scores(np.tanh(pos), np.tanh(neg))
    assert direct == pytest.approx(squashed, abs=1e-12)


def test_auc_complement_without_ties():
    rng = RngStream(51)
    pos = rng.uniform(40)
    neg = rng.uniform(30)
    assert auc_from_scores(pos, neg) + auc_from_scores(-pos, -neg) == \
        pytest.approx(1.0, abs=1e-12)


def test_auc_random_scores_near_half():
    rng = RngStream(52)
    pos = rng.gaussian(5000)
    neg = rng.gaussian(5000)
    assert 0.48 <= auc_from_scores(pos, neg) <= 0.52


# ---------------------------------------------------------------------------
# ROC curve

def test_roc_perfect_passes_through_corner():
    points = roc_curve(_scored([0.1, 0.2], [0.8, 0.9]))
    assert any(p.true_positive_rate == 1.0 and p.false_positive_rate == 0.0
               for p in points)


def test_roc_trapezoid_equals_auc():
    rng = RngStream(53)
    for _ in range(50):
        pos = np.round(rng.uniform(20) * 4) / 4
        neg = np.round(rng.uniform(25) * 4) / 4
        scored = _scored(neg, pos)
        assert roc_auc_trapezoid(roc_curve(scored)) == \
            pytest.approx(auc_from_scores(pos, neg), abs=1e-12)


def test_roc_collapses_duplicate_scores():
    points = roc_curve(_scored([0.5, 0.5], [0.5, 0.9]))
    thresholds = [p.threshold for p in points]
    assert len(thresholds) == len(set(thresholds))


def test_roc_endpoints():
    points = roc_curve(_scored([0.1], [0.9]))
    assert (points[0].false_positive_rate, points[0].true_positive_rate) == (0, 0)
    assert (points[-1].false_positive_rate, points[-1].true_positive_rate) == (1, 1)


def test_roc_monotone():
    rng = RngStream(54)
    points = roc_curve(_scored(rng.uniform(30), rng.uniform(30)))
    for a, b in zip(points, points[1:]):
        assert b.true_positive_rate >= a.true_positive_rate
        assert b.false_positive_rate >= a.false_positive_rate


# ---------------------------------------------------------------------------
# threshold selection

def test_threshold_interpolated_quantile():
    scores = np.arange(1.0, 101.0)
    assert choose_threshold(scores, 0.99) == pytest.approx(99.01)


def test_threshold_rejects_closed_interval():
    with pytest.raises(EvaluationError):
        choose_threshold(np.ones(10), 1.0)
    with pytest.raises(EvaluationError):
        choose_threshold(np.ones(10), 0.0)


def test_threshold_constant_scores():
    assert choose_threshold(np.full(7, 3.25), 0.9) == 3.25


def test_threshold_empty_rejected():
    with pytest.raises(EvaluationError):
        choose_threshold(np.array([]), 0.99)


# ---------------------------------------------------------------------------
# full evaluation

TAXONOMY = {
    "easy": AnomalyLabel("easy", "sensory", "no", "no"),
    "hard": AnomalyLabel("hard", "semantic", "yes", "yes"),
}


def test_evaluate_per_type_brackets_overall():
    normals = [0.1, 0.2, 0.3, 0.4]
    scored = _scored(normals, [0.9, 0.8], atype="easy")  # AUC 1.0
    scored += [ScoredSample(f"h{i}", s, anomaly_type="hard")
               for i, s in enumerate([0.25, 0.35])]      # overlapping
    report = evaluate(scored, TAXONOMY, np.array(normals), q=0.9)
    lo = min(report.per_type_auc.values())
    hi = max(report.per_type_auc.values())
    assert lo <= report.overall_auc <= hi
    assert report.per_type_auc["easy"] == 1.0
    assert set(report.per_type_auc) == {"easy", "hard"}


def test_evaluate_axis_breakdown():
    scored = _scored([0.1, 0.2], [0.9], atype="easy")
    scored += [ScoredSample("h0", 0.8, anomaly_type="hard")]
    report = evaluate(scored, TAXONOMY, np.array([0.1, 0.2, 0.15]), q=0.9)
    assert report.per_axis_auc["level=sensory"] == 1.0
    assert report.per_axis_auc["hazard=yes"] == 1.0
    assert "geometric=no" in report.per_axis_auc


def test_evaluate_missing_type_warns():
    scored = _scored([0.1, 0.2], [0.9], atype="easy")
    report = evaluate(scored, TAXONOMY, np.array([0.1]), q=0.9)
    assert any("hard" in w for w in report.warnings)
    assert "hard" not in report.per_type_auc


def test_evaluate_reports_type_absent_from_taxonomy():
    scored = _scored([0.1, 0.3], [0.9], atype="easy")
    scored += [ScoredSample("u0", 0.2, anomaly_type="unlisted")]
    report = evaluate(scored, TAXONOMY, np.array([0.1]), q=0.9)
    assert report.per_type_auc["unlisted"] == 0.5
    assert report.per_type_auc["easy"] == 1.0
    assert report.counts["type:unlisted"] == 1


def test_evaluate_no_anomalies_rejected():
    with pytest.raises(EvaluationError):
        evaluate([ScoredSample("n0", 0.1)], TAXONOMY, np.array([0.1]), q=0.9)


def test_report_json_and_csv_round_trip():
    import json
    scored = _scored([0.1, 0.2], [0.9], atype="easy")
    report = evaluate(scored, TAXONOMY, np.array([0.1, 0.2]), q=0.5)
    parsed = json.loads(report.to_json())
    assert parsed["overall_auc"] == 1.0
    csv_text = scores_to_csv(scored)
    assert csv_text.count("\n") == len(scored) + 1
    assert "anomalous" in csv_text
