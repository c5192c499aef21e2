"""Studentized permutation versions of the non-WMW tests.

The pooled sample is randomly relabelled (first n1 positions of a
Fisher-Yates shuffle -> arm 1, rest -> arm 2), the studentized statistic is
recomputed for every draw with the same degenerate-sample handling as on
real data, and the two-sided p-value is 2*min(p1, p2) where p1/p2 are the
fractions of permuted statistics <= / >= the observed one (exact ties count
in both tallies).

Draw k of a run is generated from a counter-based stream that depends only
on (seed, k), so results are bit-identical for any number of worker lanes
and for any chunking of the draws.  The pooled sample is split into tie runs
once; a draw only decides how many arm-1 members each run holds, and the
moments are exact integer sums over those counts.  `run_test` scores the
observed data through the same kernel and formulas, and its statistic is
the one the draws are tallied against, so a draw with the observed arm-1
multiset reproduces it bit for bit and ties are exact by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batch import moments_from_perm, tie_runs
from ._pool import map_tasks
from .errors import InvalidKind
from .ranks import TwoSamples
from .rng import DEFAULT_SEED, perm_uniforms
from .stat_tests import TestKind, TestResult, run_test, stat_arrays

__all__ = ["PermutationResult", "permutation_test", "shuffle"]

_CHUNK_DRAWS = 2048


@dataclass(frozen=True)
class PermutationResult:
    observed: TestResult
    p1: float
    p2: float
    p_value: float
    n_perm: int
    seed: int


def shuffle(values, rng: np.random.Generator) -> np.ndarray:
    """Uniform Fisher-Yates shuffle consuming one double per swap step."""
    v = np.array(values, dtype=float)
    for i in range(v.size - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        v[i], v[j] = v[j], v[i]
    return v


def _batch_permutations(u: np.ndarray, n: int, n1: int) -> np.ndarray:
    """Arm-1 index sets of row-wise Fisher-Yates shuffles driven by uniform rows.

    Row k makes the first n - n1 swaps that `shuffle` makes with the same
    uniform stream.  They settle positions n1..n-1, and the later swaps only
    reorder arm 1, so row k holds the indices `shuffle` leaves in its first
    n1 positions, in some order.
    """
    m = u.shape[0]
    # column-major working array: perm[i * m + k] is position i of row k
    perm = np.repeat(np.arange(n), m)
    flat_j = (u[:, : n - n1] * np.arange(n, n1, -1)).astype(np.int64).T * m + np.arange(m)
    for step, i in enumerate(range(n - 1, n1 - 1, -1)):
        at_i = perm[i * m : (i + 1) * m]
        tmp = at_i.copy()
        at_i[:] = perm[flat_j[step]]
        perm[flat_j[step]] = tmp
    return perm[: n1 * m].reshape(n1, m).T


@dataclass
class PermContext:
    """Tie runs of the pooled sample, shared by every permutation draw."""

    run_of: np.ndarray
    sizes: np.ndarray
    n1: int

    @classmethod
    def from_pooled(cls, pooled: np.ndarray, n1: int) -> "PermContext":
        order = np.argsort(pooled, kind="stable")
        run_sorted = tie_runs(pooled[order])
        run_of = np.empty(pooled.size, dtype=np.intp)
        run_of[order] = run_sorted
        return cls(run_of=run_of, sizes=np.bincount(run_sorted), n1=n1)


def tally_draws(
    ctx: PermContext,
    kinds,
    observed: np.ndarray,
    seed: int,
    first_draw: int,
    n_draws: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts of permuted statistics <= / >= the observed one, per kind."""
    n = ctx.run_of.size
    n_le = np.zeros(len(kinds), dtype=np.int64)
    n_ge = np.zeros(len(kinds), dtype=np.int64)
    done = 0
    while done < n_draws:
        m = min(_CHUNK_DRAWS, n_draws - done)
        u = perm_uniforms(seed, first_draw + done, m, n)
        mm = moments_from_perm(_batch_permutations(u, n, ctx.n1), ctx.run_of, ctx.sizes)
        for idx, kind in enumerate(kinds):
            stat = stat_arrays(mm, kind)[0]
            n_le[idx] += int(np.count_nonzero(stat <= observed[idx]))
            n_ge[idx] += int(np.count_nonzero(stat >= observed[idx]))
        done += m
    return n_le, n_ge


def _lane_worker(args):
    return tally_draws(*args)


def permutation_test(
    data: TwoSamples,
    kind: TestKind,
    n_perm: int = 10_000,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
) -> PermutationResult:
    """Studentized permutation test for one statistic.

    Parameters
    ----------
    data : TwoSamples
    kind : TestKind
        Any family except "wmw" (whose variance is a pooled-rank invariant,
        making the studentized permutation version degenerate).
    n_perm : int
        Number of random relabelings, >= 1.
    seed : int
        Stream seed; identical (data, kind, n_perm, seed) give bit-identical
        results regardless of `threads`.
    threads : int
        Worker processes for the draw loop, >= 1; the pool never has more
        workers than 2048-draw chunks or CPUs.
    """
    if kind.family == "wmw":
        raise InvalidKind("the permutation approach is defined for the non-WMW statistics")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    data.require_min_size(2)
    observed_result = run_test(data, kind)
    ctx = PermContext.from_pooled(data.pooled(), data.n1)
    observed = np.array([observed_result.statistic])
    bounds = list(range(0, n_perm, _CHUNK_DRAWS)) + [n_perm]
    tasks = [(ctx, [kind], observed, seed, a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    parts = map_tasks(_lane_worker, tasks, threads)
    n_le = sum(p[0] for p in parts)
    n_ge = sum(p[1] for p in parts)
    p1 = float(n_le[0]) / n_perm
    p2 = float(n_ge[0]) / n_perm
    return PermutationResult(
        observed=observed_result,
        p1=p1,
        p2=p2,
        p_value=min(1.0, 2.0 * min(p1, p2)),
        n_perm=n_perm,
        seed=seed,
    )
