"""Samples, count functions, empirical CDFs and mid-ranks.

`TwoSamples` sorts its pooled values into tie runs and keeps the
`EffectSummary` the count kernel (`_batch`) derives from them, so every
estimator and test run on the same instance shares one sort.  The count
functions, the ECDF flavours and the mid-ranks are the definitions the
estimators are written in.  Equality of observations is exact
floating-point equality; ordinal categories must be encoded upstream as
exactly representable reals (small integers), otherwise tie handling
silently changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.stats import rankdata

from ._batch import EffectSummary, moments_from_counts, run_counts
from .errors import SizeTooSmall

__all__ = [
    "Sample",
    "TwoSamples",
    "count",
    "count_plus",
    "count_minus",
    "mid_ranks",
    "internal_ranks",
    "ecdf",
]


@dataclass(frozen=True)
class Sample:
    """An immutable vector of finite real observations, length >= 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            v = v.reshape(-1)
        if v.size == 0:
            raise ValueError("a sample needs at least one observation")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite (no NaN/inf)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TwoSamples:
    """The two arms of a parallel-group comparison.

    Accepts `Sample` instances or anything `Sample` accepts.  Size
    requirements (n >= 2 per arm for variance estimation) are enforced by the
    estimators, not here.
    """

    s1: Sample
    s2: Sample

    def __post_init__(self):
        if not isinstance(self.s1, Sample):
            object.__setattr__(self, "s1", Sample(self.s1))
        if not isinstance(self.s2, Sample):
            object.__setattr__(self, "s2", Sample(self.s2))

    @property
    def n1(self) -> int:
        return self.s1.n

    @property
    def n2(self) -> int:
        return self.s2.n

    @property
    def n(self) -> int:
        return self.s1.n + self.s2.n

    def pooled(self) -> np.ndarray:
        return np.concatenate([self.s1.values, self.s2.values])

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arm-1 counts and sizes of the pooled tie runs, in increasing value order."""
        (a,), (sizes,) = run_counts(self.s1.values[None, :], self.s2.values[None, :])
        return a, sizes

    @cached_property
    def moments(self) -> EffectSummary:
        """Every plug-in moment of this dataset, as floats.

        Computed once per instance and kept; the runs, O(N) in size, are not.
        """
        return moments_from_counts(*self.runs(), self.n1, self.n2)

    def require_min_size(self, k: int) -> None:
        if min(self.n1, self.n2) < k:
            raise SizeTooSmall(
                f"need at least {k} observations per arm, got ({self.n1}, {self.n2})"
            )


def count(x: float, y: float) -> float:
    """Normalised count: 0 if x < y, 1/2 if x == y, 1 if x > y."""
    if x < y:
        return 0.0
    if x > y:
        return 1.0
    return 0.5


def count_plus(x: float, y: float) -> float:
    """Right-continuous count: 1 iff x >= y."""
    return 1.0 if x >= y else 0.0


def count_minus(x: float, y: float) -> float:
    """Left-continuous count: 1 iff x > y."""
    return 1.0 if x > y else 0.0


def _values(s) -> np.ndarray:
    return s.values if isinstance(s, Sample) else np.asarray(s, dtype=float)


def mid_ranks(pooled) -> np.ndarray:
    """Mid-ranks R_i = 1/2 + sum_j count(x_i, x_j); ties share averaged positions.

    Computed by sorting with tie-run averaging, O(N log N).  The pairwise
    count definition is kept as a test oracle only.
    """
    return rankdata(_values(pooled), method="average")


def internal_ranks(s) -> np.ndarray:
    """Mid-ranks of a sample within itself (the within-arm ranks)."""
    return mid_ranks(s)


def ecdf(s, x: float, flavor: str = "normalized") -> float:
    """Empirical CDF of the sample at x.

    flavor: "normalized" averages the left/right versions at ties,
    "left" counts strictly smaller values, "right" counts values <= x.
    """
    v = _values(s)
    if flavor == "normalized":
        return float(np.mean((v < x) + 0.5 * (v == x)))
    if flavor == "left":
        return float(np.mean(v < x))
    if flavor == "right":
        return float(np.mean(v <= x))
    raise ValueError(f"unknown ecdf flavor: {flavor!r}")
