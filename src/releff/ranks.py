"""Samples and two-arm datasets: `TwoSamples` is the one front door for a dataset.

It labels its pooled values by tie run (`run_labels`, which the permutation
test relabels) and keeps the `EffectSummary` the count kernel (`_batch`)
derives from them (`estimate_effect`), and the plus/minus-ECDF summary
Shirahata's general form reads, so every estimator and test run on one
instance shares one sort.  Observations are equal iff their floats are
equal; ordinal categories must be encoded upstream as exactly representable
reals (small integers), otherwise tie handling silently changes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._batch import EffectSummary, moments_from_counts, moments_from_values, tie_runs
from .errors import SizeTooSmall

__all__ = ["Sample", "TwoSamples", "estimate_effect"]


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

    def run_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Each pooled value's tie-run label (N,), from 0 in value order, and the run sizes."""
        (labels,), (sizes,) = tie_runs(self.pooled()[None, :])
        return labels, sizes

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arm-1 counts and sizes of the pooled tie runs, in increasing value order."""
        labels, sizes = self.run_labels()
        return np.bincount(labels[: self.n1], minlength=sizes.size), sizes

    @cached_property
    def moments(self) -> EffectSummary:
        """Every plug-in moment of this dataset, as floats.

        Scored as one dataset by `moments_from_values`: one in-place sort of
        keys, off which it reads the ranks or the tie runs, or the run path
        when the data ties on values whose bits end in 1, which is taken at
        once when the first 64 pooled values show such a tie
        (`_odd_ties_ahead`).  Computed once per instance and kept; the keys
        and runs, O(N) in size, are not.  Each arm needs at least 2
        observations.
        """
        self.require_min_size(2)
        x1, x2 = self.s1.values, self.s2.values
        return moments_from_values(x1, x2, continuous=not _odd_ties_ahead(x1, x2))

    @cached_property
    def plus_minus(self) -> tuple[EffectSummary, int]:
        """Shirahata's plus/minus-ECDF moments and the number of tie runs.

        The moments are those of the data with every cross-arm tie broken
        arm 1 first: each run of a arm-1 and b arm-2 members becomes a run of
        its a arm-1 members followed by a run of its b arm-2 members.
        Computed once per instance, on first use; if `moments` is not cached
        yet it is filled from the same sort.
        """
        self.require_min_size(2)
        a, sizes = self.runs()
        if "moments" not in self.__dict__:
            self.__dict__["moments"] = moments_from_counts(a, sizes, self.n1, self.n2)
        split = moments_from_counts(np.stack([a, np.zeros_like(a)], axis=-1).ravel(),
                                    np.stack([a, sizes - a], axis=-1).ravel(), self.n1, self.n2)
        return split, sizes.size

    def require_min_size(self, k: int) -> None:
        if min(self.n1, self.n2) < k:
            raise SizeTooSmall(
                f"need at least {k} observations per arm, got ({self.n1}, {self.n2})"
            )


def _odd_ties_ahead(x1: np.ndarray, x2: np.ndarray) -> bool:
    """True if the first 64 pooled values repeat one and hold one whose bits end in 1.

    Such data ties where the key sort cannot count the ties
    (`_batch._moments_from_keys`), so it is labelled by tie run without a
    failed sort first.
    """
    head = x1[:64] if x1.size >= 64 else np.concatenate([x1, x2[: 64 - x1.size]])
    if not np.bitwise_or.reduce(head.view(np.int64)) & 1:
        return False
    head = np.sort(head)
    return bool((head[1:] == head[:-1]).any())


def estimate_effect(data: TwoSamples) -> EffectSummary:
    """Estimate the relative effect and all moment quantities from two arms.

    This is `data.moments`, computed once per dataset.  Each arm needs at
    least 2 observations (`SizeTooSmall` otherwise).
    """
    return data.moments
