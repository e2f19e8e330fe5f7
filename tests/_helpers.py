"""Shared test utilities: parameter flattening, relative error and the
oracles that hand-derived gradients and the rank AUC are checked against."""

import math

import numpy as np

from framewatch.errors import ContractViolationError


def pack(params):
    return np.concatenate([np.asarray(p).reshape(-1) for p in params])


def unpack(flat, shapes):
    out, i = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
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
