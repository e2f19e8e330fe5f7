"""Shared test utilities: parameter flattening, relative error
and the oracles that hand-derived gradients, the rank AUC, the tie grouping of
ranks and ROC points, the monitor fold and the PGM header parser are checked
against."""

import math

import numpy as np

from framewatch.errors import ContractViolationError, EvaluationError, ParseError
from framewatch.evaluation import RocPoint
from framewatch.monitor import Action, MonitorEvent, MonitorState, Phase


def pack(params):
    return np.concatenate([np.asarray(p).reshape(-1) for p in params])


def unpack(flat, shapes):
    out, i = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[i:i + n].reshape(shape))
        i += n
    return out


def max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def brute_force_auc(pos, neg):
    """O(n_pos * n_neg) pairwise AUC oracle (ties count half)."""
    pos = np.asarray(pos, dtype=np.float64)[:, None]
    neg = np.asarray(neg, dtype=np.float64)[None, :]
    wins = (pos > neg).sum()
    ties = (pos == neg).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def roc_auc_trapezoid(points):
    """Trapezoidal area under a list of RocPoints."""
    area = 0.0
    for a, b in zip(points, points[1:]):
        area += (b.false_positive_rate - a.false_positive_rate) * \
            (a.true_positive_rate + b.true_positive_rate) / 2.0
    return area


def finite_diff_grad(f, x, eps=1e-5):
    """Central-difference gradient estimate of a scalar function."""
    if eps <= 0.0:
        raise ContractViolationError("finite_diff_grad: eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        fp = f(xp)
        fm = f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ContractViolationError(
                f"finite_diff_grad: non-finite evaluation at component {i}")
        grad.flat[i] = (fp - fm) / (2.0 * eps)
    return grad


def reference_average_ranks(values):
    """Average ranks by a Python loop over each run of tied scores."""
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


def reference_roc_curve(scored):
    """ROC points by a Python loop over each run of tied scores."""
    pos = np.array([s.score for s in scored if s.anomaly_type is not None])
    neg = np.array([s.score for s in scored if s.anomaly_type is None])
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError("AUC needs at least one normal and one anomalous sample")
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


def reference_monitor_step(state, score, cfg):
    """The monitor state machine with one return per branch; the trailing
    mean is recomputed by reference_run_monitor, not kept in the state."""
    frame = state.frames_seen
    state.frames_seen += 1

    if not math.isfinite(score):
        if state.phase is Phase.ADVANCE:
            state.phase = Phase.STOP
            state.trigger_frame = frame
            return state, Action.STOP
        if state.phase is Phase.STOP:
            state.phase = Phase.BACKTRACK
        return state, Action.BACKTRACK

    state.window_buffer.append(score)
    while len(state.window_buffer) > cfg.window:
        state.window_buffer.popleft()
    smoothed = sum(state.window_buffer) / len(state.window_buffer)

    if state.phase is Phase.ADVANCE:
        if smoothed > cfg.threshold:
            state.consecutive_over = min(state.consecutive_over + 1, cfg.consecutive)
        else:
            state.consecutive_over = 0
        if state.consecutive_over >= cfg.consecutive:
            state.phase = Phase.STOP
            state.trigger_frame = frame
            return state, Action.STOP
        return state, Action.ADVANCE
    if state.phase is Phase.STOP:
        state.phase = Phase.BACKTRACK
        return state, Action.BACKTRACK
    return state, Action.BACKTRACK


def reference_run_monitor(scores, cfg):
    """Fold reference_monitor_step, summing the window again per event."""
    state = MonitorState()
    events = []
    for frame, score in enumerate(scores):
        fault = not math.isfinite(score)
        state, action = reference_monitor_step(state, score, cfg)
        buf = state.window_buffer
        events.append(MonitorEvent(
            frame_index=frame, score=score,
            smoothed=sum(buf) / len(buf) if buf else float("nan"),
            phase=state.phase, action=action, fault=fault))
    return events


def reference_decode_pgm(data):
    """The PGM decoder as a byte-at-a-time header loop: the oracle the
    one-regex header parser must agree with, value for value and message
    for message."""
    if data[:2] != b"P5":
        raise ParseError("not a binary PGM: missing 'P5' magic at byte 0")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ParseError(f"truncated PGM header at byte {pos}")
        token = data[start:pos]
        if not token.isdigit():
            raise ParseError(f"bad PGM header token {token!r} at byte {start}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"unsupported PGM maxval {maxval} (expected 255)")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:pos + width * height]
    if len(payload) != width * height:
        raise ParseError(
            f"truncated PGM payload at byte {pos + len(payload)}: expected "
            f"{width * height} pixel bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(height, width), width, height
