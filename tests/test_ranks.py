import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from releff import Sample, TwoSamples
from oracles import count, count_minus, count_plus, ecdf, internal_ranks, mid_ranks

finite_value = st.integers(min_value=-6, max_value=6).map(float)
value_lists = st.lists(finite_value, min_size=1, max_size=40)


def brute_mid_ranks(values):
    """O(N^2) oracle: R_i = 1/2 + sum_j count(x_i, x_j)."""
    v = list(values)
    return np.array([0.5 + sum(count(x, y) for y in v) for x in v])


def test_count_cases():
    assert count(1, 2) == 0
    assert count(2, 2) == 0.5
    assert count(3, 2) == 1
    assert count_plus(2, 2) == 1
    assert count_minus(2, 2) == 0
    assert count_plus(1, 2) == 0


@given(finite_value, finite_value)
def test_count_identities(x, y):
    assert count(x, y) + count(y, x) == 1.0
    assert count_minus(x, y) <= count(x, y) <= count_plus(x, y)
    assert count(x, y) == (count_plus(x, y) + count_minus(x, y)) / 2


def test_mid_ranks_examples():
    assert mid_ranks([1, 2, 3, 2, 3, 4]).tolist() == [1, 2.5, 4.5, 2.5, 4.5, 6]
    assert mid_ranks([5]).tolist() == [1]
    assert mid_ranks([7, 7, 7]).tolist() == [2, 2, 2]


def test_internal_ranks_examples():
    assert internal_ranks(Sample([1, 2, 3])).tolist() == [1, 2, 3]
    assert internal_ranks(Sample([2, 2])).tolist() == [1.5, 1.5]
    assert internal_ranks(Sample([4, 1, 4])).tolist() == [2.5, 1, 2.5]


@given(value_lists)
def test_mid_ranks_match_pairwise_oracle(values):
    assert np.array_equal(mid_ranks(values), brute_mid_ranks(values))


@given(value_lists)
def test_mid_ranks_sum_is_exact(values):
    n = len(values)
    assert mid_ranks(values).sum() == n * (n + 1) / 2


@given(value_lists, st.randoms(use_true_random=False))
def test_mid_ranks_permutation_equivariant(values, pyrandom):
    idx = list(range(len(values)))
    pyrandom.shuffle(idx)
    base = mid_ranks(values)
    shuffled = mid_ranks([values[i] for i in idx])
    assert np.array_equal(shuffled, base[idx])


@given(value_lists)
def test_mid_ranks_monotone_invariant(values):
    transformed = [np.expm1(v) + 3 * v for v in values]  # strictly increasing map
    assert np.array_equal(mid_ranks(values), mid_ranks(transformed))


def test_ecdf_examples():
    assert ecdf(Sample([2, 3, 4]), 2, "normalized") == pytest.approx(1 / 6)
    assert ecdf(Sample([2, 3, 4]), 5, "right") == 1
    assert ecdf(Sample([2, 3, 4]), 2, "left") == 0


@given(value_lists, finite_value)
def test_ecdf_normalized_is_mean_of_sides(values, x):
    s = Sample(values)
    left, right = ecdf(s, x, "left"), ecdf(s, x, "right")
    assert ecdf(s, x, "normalized") == pytest.approx((left + right) / 2, abs=1e-12)


def test_ecdf_rejects_unknown_flavor():
    with pytest.raises(ValueError):
        ecdf(Sample([1.0]), 0.0, "middle")


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample([])
    with pytest.raises(ValueError):
        Sample([1.0, float("nan")])
    with pytest.raises(ValueError):
        Sample([np.inf])
    s = Sample([3, 1, 2])
    with pytest.raises(ValueError):
        s.values[0] = 9.0  # frozen buffer


def test_two_samples_coerces_and_counts():
    d = TwoSamples([1, 2], [3, 4, 5])
    assert (d.n1, d.n2, d.n) == (2, 3, 5)
    assert d.pooled().tolist() == [1, 2, 3, 4, 5]
