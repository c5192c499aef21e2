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
