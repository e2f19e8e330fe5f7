import numpy as np
import pytest

from framewatch.errors import ContractViolationError
from framewatch.rng import UNIFORM_BLOCK, RngStream

from _helpers import reference_uniform


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


@pytest.mark.parametrize("n", [UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1,
                               2 * UNIFORM_BLOCK + 3])
def test_blocked_uniform_matches_one_shot_draw(n):
    stream = RngStream(21, counter=9)
    got = stream.uniform(n)
    assert np.array_equal(got, reference_uniform(RngStream(21, counter=9), n))
    assert int(stream.counter) == 9 + n


def test_blocked_uniform_split_across_calls_matches_one_draw():
    stream = RngStream(8)
    parts = [stream.uniform(UNIFORM_BLOCK - 5), stream.uniform(UNIFORM_BLOCK + 9)]
    assert np.array_equal(np.concatenate(parts),
                          reference_uniform(RngStream(8), 2 * UNIFORM_BLOCK + 4))


def test_uniform_range_matches_affine_map_of_one_shot_draw():
    n = UNIFORM_BLOCK + 1
    low, high = -0.37, 1.91
    want = low + (high - low) * reference_uniform(RngStream(4), n)
    assert np.array_equal(RngStream(4).uniform_range(low, high, n), want)
