"""Shared helpers for the test suite."""
import dataclasses

import numpy as np


def assert_same(got, want):
    """Two effect summaries equal in every field, bit for bit."""
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert np.array_equal(g, w), field.name


def random_dataset(rng, lo=5, hi=30, tie_free=False):
    """Random pair of arms with sizes in [lo, hi]; tied unless tie_free."""
    n1 = int(rng.integers(lo, hi + 1))
    n2 = int(rng.integers(lo, hi + 1))
    if tie_free:
        pooled = rng.normal(size=n1 + n2)
        while np.unique(pooled).size < n1 + n2:  # pragma: no cover
            pooled = rng.normal(size=n1 + n2)
        return pooled[:n1], pooled[n1:]
    if rng.random() < 0.5:
        return rng.normal(size=n1), rng.normal(size=n2)
    return (
        rng.integers(0, 8, size=n1).astype(float),
        rng.integers(0, 8, size=n2).astype(float),
    )


def sort_case(kind, n, seed=5):
    """Two arms of n values each: tie-free, on five integer levels, or one-decimal
    values, which tie on floats whose bits end in 1 (0.3 does)."""
    rng = np.random.default_rng(seed)
    if kind == "tie_free":
        pooled = rng.normal(size=2 * n)
    elif kind == "five_levels":
        pooled = rng.integers(1, 6, size=2 * n).astype(float)
    else:
        pooled = (rng.normal(3.0, 1.0, size=2 * n) * 10).round() / 10
    return pooled[:n], pooled[n:]


SORT_CASES = ("tie_free", "five_levels", "one_decimal")
