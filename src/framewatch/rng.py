"""Deterministic, platform-independent random number generation.

The generator is counter-based SplitMix64: output ``i`` is
``mix64(seed + (counter + i + 1) * GOLDEN_GAMMA)`` where ``mix64`` is the
standard SplitMix64 finalizer.  Every draw only advances an integer
counter, so the same seed always yields the same byte-identical sequence
on every platform, and child streams can be derived cheaply for parallel
generation.

Gaussian variates use the Box-Muller transform on consecutive uniform
pairs (no rejection, so the counter advance is a deterministic function
of the request size).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_TWO53_INV = 2.0 ** -53
UNIFORM_BLOCK = 1 << 16   # words drawn at once by RngStream.uniform


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


class RngStream:
    """Seeded counter-based random stream.

    Identical seed implies an identical output sequence; the only mutable
    state is the draw counter.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = _U64(counter)

    def _raw(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words; advances the counter by n."""
        with np.errstate(over="ignore"):
            idx = np.arange(int(self.counter) + 1,
                            int(self.counter) + n + 1,
                            dtype=np.uint64)
            words = _mix64(self.seed + idx * _GOLDEN_GAMMA)
        self.counter = _U64(int(self.counter) + n)
        return words

    def uniform(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1) with 53-bit resolution.

        The words are drawn UNIFORM_BLOCK at a time and each block is
        written straight into the output, so a large draw needs no
        temporaries of its own size.
        """
        if n < 1:
            raise ContractViolationError(f"uniform: n must be >= 1, got {n}")
        out = np.empty(n)
        for start in range(0, n, UNIFORM_BLOCK):
            block = out[start:start + UNIFORM_BLOCK]
            np.multiply(self._raw(block.size) >> _U64(11), _TWO53_INV, out=block)
        return out

    def gaussian(self, n: int) -> np.ndarray:
        """n independent standard-normal draws via Box-Muller."""
        if n < 1:
            raise ContractViolationError(f"gaussian: n must be >= 1, got {n}")
        pairs = (n + 1) // 2
        words = self._raw(2 * pairs)
        # u1 in (0, 1] so that log(u1) is finite.
        u1 = ((words[:pairs] >> _U64(11)).astype(np.float64) + 1.0) * _TWO53_INV
        u2 = (words[pairs:] >> _U64(11)).astype(np.float64) * _TWO53_INV
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def uniform_range(self, low: float, high: float, n: int) -> np.ndarray:
        """n uniform doubles in [low, high): low + (high - low) * u, in place."""
        u = self.uniform(n)
        u *= high - low
        u += low
        return u

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n integers uniform on the inclusive range [low, high]."""
        if high < low:
            raise ContractViolationError(f"integers: empty range [{low}, {high}]")
        span = high - low + 1
        vals = low + np.floor(self.uniform(n) * span).astype(np.int64)
        return np.minimum(vals, high)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic random permutation of range(n)."""
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return np.argsort(self.uniform(n), kind="stable").astype(np.int64)

    def derive(self, stream_id: int) -> "RngStream":
        """Independent child stream keyed by (seed, stream_id).

        Used for per-frame generation so frames can be produced in any
        order without changing their content.
        """
        with np.errstate(over="ignore"):
            key = _mix64(np.array(
                [self.seed ^ (_U64(stream_id & 0xFFFFFFFFFFFFFFFF) + _GOLDEN_GAMMA)],
                dtype=np.uint64))[0]
        return RngStream(int(key))

