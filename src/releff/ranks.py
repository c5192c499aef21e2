"""Samples and two-arm datasets: `TwoSamples` is the one front door for a dataset.

It keeps the `EffectSummary` the count kernel (`_batch`) derives from its
two arms (`moments`, which `estimate_effect` returns) and, once a caller
asks for it, its tie-run record (`_batch.tie_runs`): each pooled value's
run label (`run_labels`, which the permutation test relabels), the run
sizes and each run's arm-1 count (`runs`), off which it also reads the
plus/minus-ECDF summary Shirahata's general form needs (`plus_minus`).
`moments` reads the record if one is kept, and otherwise hands the arms to
`_batch.moments_from_values`, which picks a key sort or a count off the
sorted values from the values themselves, so every estimator and test run
on one instance shares one scoring whichever comes first.  Observations are
equal iff their floats are equal; ordinal categories must be encoded
upstream as exactly representable reals (small integers), otherwise tie
handling silently changes.
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

    @cached_property
    def _runs_record(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pooled tie-run record (`tie_runs`): labels, run sizes and arm-1 counts, read-only."""
        record = tie_runs(self.s1.values, self.s2.values)
        for array in record:
            array.flags.writeable = False
        return record

    def run_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """Each pooled value's tie-run label (N,), from 0 in value order, and the run sizes."""
        return self._runs_record[:2]

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arm-1 counts and sizes of the pooled tie runs, in increasing value order."""
        _, sizes, a = self._runs_record
        return a, sizes

    @cached_property
    def moments(self) -> EffectSummary:
        """Every plug-in moment of this dataset, as floats.

        Read off the tie-run record when it is kept (`runs`).  Otherwise
        scored as one dataset by `moments_from_values`, which picks its own
        route: one in-place sort of keys, off which it reads the ranks of
        tie-free data, or, when the data ties, the sorted pooled values and
        arm 1, off which it counts the tie runs; those sorted copies, O(N)
        in size, are not kept.
        Computed once per instance and kept.  Each arm needs at least 2
        observations.
        """
        self.require_min_size(2)
        if "_runs_record" in self.__dict__:
            return moments_from_counts(*self.runs(), self.n1, self.n2)
        return moments_from_values(self.s1.values, self.s2.values)

    @cached_property
    def plus_minus(self) -> tuple[EffectSummary, int]:
        """Shirahata's plus/minus-ECDF moments and the number of tie runs.

        The moments are those of the data with every cross-arm tie broken
        arm 1 first: each run of a arm-1 and b arm-2 members becomes a run of
        its a arm-1 members followed by a run of its b arm-2 members.
        Computed once per instance, on first use, off the tie-run record.
        """
        self.require_min_size(2)
        a, sizes = self.runs()
        split = moments_from_counts(np.stack([a, np.zeros_like(a)], axis=-1).ravel(),
                                    np.stack([a, sizes - a], axis=-1).ravel(), self.n1, self.n2)
        return split, sizes.size

    def require_min_size(self, k: int) -> None:
        if min(self.n1, self.n2) < k:
            raise SizeTooSmall(
                f"need at least {k} observations per arm, got ({self.n1}, {self.n2})"
            )


def estimate_effect(data: TwoSamples) -> EffectSummary:
    """Estimate the relative effect and all moment quantities from two arms.

    This is `data.moments`, computed once per dataset.  Each arm needs at
    least 2 observations (`SizeTooSmall` otherwise).
    """
    return data.moments
