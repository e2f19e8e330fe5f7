import numpy as np
import pytest

from framewatch.errors import ContractViolationError
from framewatch.rng import RngStream


def test_same_seed_same_sequence():
    a = RngStream(42).gaussian(1000)
    b = RngStream(42).gaussian(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(1).gaussian(100)
    b = RngStream(2).gaussian(100)
    assert not np.array_equal(a, b)


def test_gaussian_moments():
    # bounds frozen from the reference run with this seed
    g = RngStream(42).gaussian(100_000)
    assert -0.02 < g.mean() < 0.02
    assert 0.97 < g.var() < 1.03


def test_zero_draws_rejected():
    with pytest.raises(ContractViolationError):
        RngStream(0).gaussian(0)


def test_uniform_range_half_open():
    u = RngStream(7).uniform(100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_sequence_is_contiguous_across_calls():
    # two calls of 50 equal one call of 100
    r = RngStream(5)
    first = np.concatenate([r.uniform(50), r.uniform(50)])
    assert np.array_equal(first, RngStream(5).uniform(100))


def test_permutation_is_permutation():
    p = RngStream(3).permutation(257)
    assert sorted(p.tolist()) == list(range(257))


def test_integers_within_range():
    vals = RngStream(11).integers(-2, 2, 10_000)
    assert vals.min() >= -2 and vals.max() <= 2
    assert set(vals.tolist()) == {-2, -1, 0, 1, 2}


def test_derived_streams_are_independent():
    root = RngStream(99)
    a = root.derive(0).uniform(100)
    b = root.derive(1).uniform(100)
    assert not np.array_equal(a, b)
    # deriving does not consume the parent stream
    assert np.array_equal(RngStream(99).derive(0).uniform(100), a)
