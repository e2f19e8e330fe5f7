"""Shared test utilities: parameter flattening, relative error
and the oracles that hand-derived gradients, the activations, the blocked
uniform draw, the rank AUC, the tie grouping of ranks and ROC points, the
evaluation report, the masked coupling loop, the per-net coupling loop
and its backward pass, the monitor fold and the PGM header parser are
checked against."""

import math

import numpy as np

from framewatch.data_io import LABEL_AXES
from framewatch.errors import ContractViolationError, EvaluationError, ParseError
from framewatch.evaluation import (_AXES, EvalReport, RocPoint, auc_from_scores,
                                  choose_threshold)
from framewatch.monitor import Action, MonitorEvent, MonitorState, Phase
from framewatch.nn import LEAKY_SLOPE, Activation, DenseLayer, Mlp


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


def reference_activation(act, z):
    """Each activation as one expression into a new array: the oracle of
    the in-place routine."""
    if act is Activation.LEAKY_RELU:
        return np.where(z >= 0.0, z, LEAKY_SLOPE * z)
    if act is Activation.TANH:
        return np.tanh(z)
    if act is Activation.SIGMOID:
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    return z


def reference_uniform(stream, n):
    """n uniform doubles from `stream` as one draw of n words, the whole
    request at once: the oracle of the blocked RngStream.uniform."""
    return (stream._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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
    """Central-difference gradient estimate of a scalar function f(x).

    Each element of `x` is moved to x_i + eps and x_i - eps in place, f is
    called on `x` after each move, and the element is put back.  A float64
    array is perturbed where it lives, so a model that holds it sees each
    move without a rebuild."""
    if eps <= 0.0:
        raise ContractViolationError("finite_diff_grad: eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        value = x.flat[i]
        x.flat[i] = value + eps
        fp = f(x)
        x.flat[i] = value - eps
        fm = f(x)
        x.flat[i] = value
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ContractViolationError(
                f"finite_diff_grad: non-finite evaluation at component {i}")
        grad.flat[i] = (fp - fm) / (2.0 * eps)
    return grad


def finite_diff_param_grad(loss, params, eps=1e-5):
    """Central-difference gradient of loss() over a model's live float64
    parameter arrays, flattened in pack() order; each element is perturbed
    in place and restored."""
    for p in params:
        if p.dtype != np.float64:
            raise ContractViolationError(
                f"finite_diff_param_grad: parameter is {p.dtype}, not float64")
    return pack([finite_diff_grad(lambda _: loss(), p, eps) for p in params])


def _full_width(net, keep_in, keep_out):
    """A two-layer half-width net zero-padded back to dim -> hidden -> dim:
    the columns of the dims it reads and the rows of the dims it writes."""
    first, last = net.layers
    w_in = np.zeros((first.out_dim, keep_in.size))
    w_in[:, keep_in] = first.weights
    w_out = np.zeros((keep_out.size, last.in_dim))
    w_out[keep_out] = last.weights
    b_out = np.zeros(keep_out.size)
    b_out[keep_out] = last.bias
    return Mlp([DenseLayer(w_in, first.bias, first.activation),
                DenseLayer(w_out, b_out, last.activation)])


def reference_masked_log_prob(flow, latents):
    """The flow's log-density by the masked coupling loop: full-width nets
    read x * mask and only (1 - mask) of their output is used, with mask
    1 on the dims i % 2 == parity."""
    xs = flow.whiten(np.asarray(latents, dtype=np.float64))
    log_det = np.zeros(xs.shape[0])
    for layer in flow.layers:
        mask = ((np.arange(flow.dim) % 2) == layer.parity).astype(np.float64)
        inv_mask = 1.0 - mask
        scale_net, shift_net = (_full_width(net, mask == 1.0, mask == 0.0)
                                for net in (layer.scale_net, layer.shift_net))
        masked = xs * mask
        s = layer.scale_clamp * np.tanh(scale_net.forward(masked) / layer.scale_clamp)
        t = shift_net.forward(masked)
        xs = masked + inv_mask * (xs * np.exp(s) + t)
        log_det += (inv_mask * s).sum(axis=1)
    return (-0.5 * flow.dim * math.log(2.0 * math.pi)
            - 0.5 * (xs * xs).sum(axis=1) + log_det)


def reference_per_net_couple(layers, xs, inverse=False, tape=None):
    """The coupling loop with each net evaluated on its own by `Mlp.forward`
    (`layer.scale_net`, then `layer.shift_net`) over strided views of the
    (n, dim) batch, which is copied and scattered into at every layer: the
    oracle of the stacked conditioner.  Returns (out, log_det); with a
    `tape`, each forward layer appends (x_b, scale cache, shift cache, s,
    tanh(raw / s_max))."""
    log_det = np.zeros(xs.shape[0])
    for layer in (reversed(layers) if inverse else layers):
        a, b = slice(layer.parity, None, 2), slice(1 - layer.parity, None, 2)
        x_a, x_b = xs[:, a], xs[:, b]
        s_cache, t_cache = ([], []) if tape is not None else (None, None)
        u = np.tanh(layer.scale_net.forward(x_a, s_cache) / layer.scale_clamp)
        s = layer.scale_clamp * u
        t = layer.shift_net.forward(x_a, t_cache)
        xs = xs.copy()
        if inverse:
            xs[:, b] = (x_b - t) * np.exp(-s)
        else:
            if tape is not None:
                tape.append((x_b, s_cache, t_cache, s, u))
            xs[:, b] = x_b * np.exp(s) + t
        log_det += s.sum(axis=1)
    return xs, log_det


def reference_per_net_loss_and_grads(flow, z0):
    """Mean flow NLL of a whitened batch and its gradients by
    `Mlp.backward` over each net on its own.  The gradients are listed per
    layer as the scale net's params() then the shift net's."""
    n = z0.shape[0]
    tape = []
    z, log_det = reference_per_net_couple(flow.layers, z0, tape=tape)
    loss = float(np.mean(0.5 * flow.dim * math.log(2.0 * math.pi)
                         + 0.5 * (z * z).sum(axis=1) - log_det))
    grad_y = z / n
    all_grads = []
    for layer, (x_b, s_cache, t_cache, s, u) in zip(reversed(flow.layers),
                                                    reversed(tape)):
        a, b = slice(layer.parity, None, 2), slice(1 - layer.parity, None, 2)
        grad_b = grad_y[:, b]
        e_s = np.exp(s)
        grad_s = grad_b * x_b * e_s - 1.0 / n
        gin_s, grads_s = layer.scale_net.backward(s_cache, grad_s * (1.0 - u * u))
        gin_t, grads_t = layer.shift_net.backward(t_cache, grad_b)
        grad_y[:, a] += gin_s + gin_t
        grad_y[:, b] = grad_b * e_s
        all_grads.append(grads_s + grads_t)
    return loss, all_grads[::-1]


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


def reference_evaluate(scored_test, taxonomy, val_scores, q=0.99):
    """`evaluate` as a scan of the sample list once overall, once per type
    and once per axis value: the oracle of the one-pass version."""
    pos_samples = [s for s in scored_test if s.anomaly_type is not None]
    neg = np.array([s.score for s in scored_test if s.anomaly_type is None])
    if not pos_samples:
        raise EvaluationError("evaluate: test set has no anomalous samples")
    if neg.size == 0:
        raise EvaluationError("evaluate: test set has no normal samples")

    warnings = []
    overall = auc_from_scores(np.array([s.score for s in pos_samples]), neg)

    per_type = {}
    present_types = sorted({s.anomaly_type for s in pos_samples})
    for atype in sorted(set(taxonomy).union(present_types)):
        subset = np.array([s.score for s in pos_samples if s.anomaly_type == atype])
        if subset.size == 0:
            warnings.append(f"anomaly type {atype!r} has no test samples; omitted")
            continue
        per_type[atype] = auc_from_scores(subset, neg)

    per_axis = {}
    for axis_name in _AXES:
        for value in LABEL_AXES[axis_name]:
            subset = np.array([
                s.score for s in pos_samples if s.anomaly_type in taxonomy
                and getattr(taxonomy[s.anomaly_type], axis_name) == value])
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
