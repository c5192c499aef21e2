"""Studentized permutation versions of the non-WMW tests.

The pooled sample is randomly relabelled (first n1 positions of a
Fisher-Yates shuffle -> arm 1, rest -> arm 2), the studentized statistic is
recomputed for every draw with the same degenerate-sample handling as on
real data, and the two-sided p-value is 2*min(p1, p2) where p1/p2 are the
fractions of permuted statistics <= / >= the observed one (exact ties count
in both tallies).

Draw k of a run is row k of the uniform matrix keyed by the seed
(`rng.uniforms`), with one column per relabelling swap (n2 of them), so it
depends only on (seed, k) and results are bit-identical for any number of
worker lanes and for any chunking of the draws.  The pooled sample is
labelled by tie run once (`_batch.tie_runs`, the labeller every entry point
shares); a draw only decides how many arm-1 members each run holds, and the
moments are exact integer sums over those counts.  `tally_draws` scores one
block of draws (relabel, counts, moments, statistics);
`permutation_test` gives each worker one contiguous lane of whole
2048-draw chunks and tallies them one chunk at a time.
`run_test` scores the observed data through the same kernel and formulas,
and its statistic is the one the draws are tallied against, so a draw with
the observed arm-1 multiset reproduces it bit for bit and ties are exact by
construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batch import moments_from_perm, tie_runs
from ._pool import map_tasks, worker_count
from .errors import InvalidKind
from .ranks import TwoSamples
from .rng import DEFAULT_SEED, perm_key, uniforms
from .stat_tests import TestKind, TestResult, run_test, stat_arrays

__all__ = ["PermutationResult", "permutation_test"]

_CHUNK_DRAWS = 2048


@dataclass(frozen=True)
class PermutationResult:
    observed: TestResult
    p1: float
    p2: float
    p_value: float
    n_perm: int
    seed: int


def _batch_permutations(u: np.ndarray, n: int, n1: int) -> np.ndarray:
    """Arm-1 index sets of row-wise Fisher-Yates shuffles driven by uniform rows.

    Row k of u holds n - n1 uniforms and makes the first n - n1 swaps of a
    Fisher-Yates shuffle, where step s swaps position i = n-1-s with
    floor(u[s]*(i+1)).  Those swaps settle positions n1..n-1, and the later
    swaps only reorder arm 1, so row k holds the indices the full shuffle
    leaves in its first n1 positions, in some order.
    """
    m = u.shape[0]
    # column-major working array: perm[i * m + k] is position i of row k
    perm = np.repeat(np.arange(n), m)
    flat_j = (u * np.arange(n, n1, -1)).astype(np.int64).T * m + np.arange(m)
    for step, i in enumerate(range(n - 1, n1 - 1, -1)):
        at_i = perm[i * m : (i + 1) * m]
        tmp = at_i.copy()
        at_i[:] = perm[flat_j[step]]
        perm[flat_j[step]] = tmp
    return perm[: n1 * m].reshape(n1, m).T


def tally_draws(
    labels: np.ndarray,
    n1: int,
    kinds,
    observed: np.ndarray,
    seed: int,
    first_draw: int,
    n_draws: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts of permuted statistics <= / >= the observed one, per kind, over one block.

    The block is draws [first_draw, first_draw + n_draws) of the seed's
    stream.  `labels` holds each pooled value's tie-run label (`tie_runs`);
    the first n1 pooled values are arm 1.
    """
    n = labels.size
    # nested, so the uniforms are freed once relabelled
    mm = moments_from_perm(
        _batch_permutations(uniforms(perm_key(seed), first_draw, n_draws, n - n1), n, n1), labels
    )
    stats = [stat_arrays(mm, kind)[0] for kind in kinds]
    n_le = np.array([np.count_nonzero(s <= o) for s, o in zip(stats, observed)], dtype=np.int64)
    n_ge = np.array([np.count_nonzero(s >= o) for s, o in zip(stats, observed)], dtype=np.int64)
    return n_le, n_ge


def _lane_worker(args):
    """(n_le, n_ge) over the draws [first, first + n_draws), one chunk at a time."""
    labels, n1, kinds, observed, seed, first, n_draws = args
    stop = first + n_draws
    return np.sum([tally_draws(labels, n1, kinds, observed, seed, a, min(_CHUNK_DRAWS, stop - a))
                   for a in range(first, stop, _CHUNK_DRAWS)], axis=0)


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
        Worker processes for the draw loop, >= 1.  Each worker tallies one
        contiguous lane of whole 2048-draw chunks, so the pool never has
        more workers than chunks or CPUs.
    """
    if kind.family == "wmw":
        raise InvalidKind("the permutation approach is defined for the non-WMW statistics")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    observed_result = run_test(data, kind)
    labels = tie_runs(data.pooled()[None, :])[0][0]
    observed = np.array([observed_result.statistic])
    n_chunks = -(-n_perm // _CHUNK_DRAWS)
    lanes = worker_count(threads, n_chunks)
    bounds = [min(n_perm, n_chunks * i // lanes * _CHUNK_DRAWS) for i in range(lanes + 1)]
    tasks = [(labels, data.n1, [kind], observed, seed, a, b - a)
             for a, b in zip(bounds[:-1], bounds[1:])]
    (n_le,), (n_ge,) = np.sum(map_tasks(_lane_worker, tasks, threads), axis=0)
    p1 = float(n_le) / n_perm
    p2 = float(n_ge) / n_perm
    return PermutationResult(
        observed=observed_result,
        p1=p1,
        p2=p2,
        p_value=min(1.0, 2.0 * min(p1, p2)),
        n_perm=n_perm,
        seed=seed,
    )
