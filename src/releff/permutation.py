"""Studentized permutation versions of the non-WMW tests.

The pooled sample is randomly relabelled (first n1 positions of a
Fisher-Yates shuffle -> arm 1, rest -> arm 2), the studentized statistic is
recomputed for every draw with the same degenerate-sample handling as on
real data, and the two-sided p-value is 2*min(p1, p2) where p1/p2 are the
fractions of permuted statistics <= / >= the observed one (exact ties count
in both tallies).

Draw k of a run is row k of the uniform matrix keyed by the seed
(`rng.uniforms`), with one column per relabelling swap (n2 of them), so it
depends only on (seed, k).  The pooled sample is labelled by tie run once
(`_batch.tie_runs`).  On tied data a draw only decides how many arm-1
members each run holds, and the moments are exact integer sums over those
counts; on tie-free data a run label is a pooled rank, and the same sums
are taken over the draw's sorted arm-1 ranks (`_batch.moments_from_perm`).
The relabel carries the run labels (int32) through the shuffle, one scatter per
swap.  This module alone schedules draws: `tally_range`, the one draw loop,
scores draws in cache-sized blocks (`tally_draws`; statistics alone, no
degrees of freedom) for any set of kinds, and can stop once a decision is
settled.  `permutation_tests` runs one lane of whole blocks per worker, and
the Monte Carlo engine one call per replication.  Tallies are integer
counts, so results are bit-identical for any lanes or blocking.
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
from .stat_tests import TestKind, TestResult, run_test, statistic

__all__ = ["PermutationResult", "permutation_test", "permutation_tests"]

# a block's working set: 1.5 MiB, below a typical core's 2 MiB L2 cache
_BLOCK_BYTES = 3 * 2**19
_MIN_BLOCK_DRAWS = 128
_MAX_BLOCK_DRAWS = 2048
# a settling range is checked after every eighth of its draws, within these bounds
_MIN_STEP_DRAWS = 256
_MAX_STEP_DRAWS = 1024


@dataclass(frozen=True)
class PermutationResult:
    observed: TestResult
    p1: float
    p2: float
    p_value: float
    n_perm: int
    seed: int


def _block_draws(n: int, n_runs: int) -> int:
    """Draws scored per block at n pooled values in n_runs tie runs.

    A draw takes 4 bytes per pooled value in the relabel and 8 per run in
    each (draws, runs) count and moment array, so a block of
    3 * 2**19 // (4 n + 8 n_runs) draws keeps them near 1.5 MiB.  It is at
    least 128 draws, so that each block's fixed cost stays small, and at
    most 2048.  On tie-free data (n_runs = n) the rule is the same, but
    the block's arrays are (draws, n1) sorted ranks, not (draws, runs)
    counts, so they stay below that size.
    """
    return min(_MAX_BLOCK_DRAWS, max(_MIN_BLOCK_DRAWS, _BLOCK_BYTES // (4 * n + 8 * n_runs)))


def _batch_permutations(u: np.ndarray, values: np.ndarray, n1: int) -> np.ndarray:
    """The values a row-wise Fisher-Yates shuffle driven by uniform rows puts in arm 1.

    Row k of u holds n - n1 uniforms and makes the first n - n1 swaps of a
    Fisher-Yates shuffle of `values`, where step s swaps position
    i = n-1-s with floor(u[s]*(i+1)).  Those swaps settle positions
    n1..n-1, and the later swaps only reorder arm 1, so row k holds the
    values the full shuffle leaves in its first n1 positions, in some order.
    Position i is never read after step i, so a step only copies position i
    into the drawn one instead of swapping them.
    """
    m = u.shape[0]
    n = values.size
    # column-major working array: perm[i * m + k] is position i of row k
    perm = np.repeat(values, m)
    # flat_j[step, k] = floor(u[k, step] * (i + 1)) * m + k, built in one array
    flat_j = np.empty((n - n1, m), dtype=np.intp)
    np.multiply(u.T, np.arange(n, n1, -1)[:, None], out=flat_j, casting="unsafe")
    flat_j *= m
    flat_j += np.arange(m)
    for step, i in enumerate(range(n - 1, n1 - 1, -1)):
        perm[flat_j[step]] = perm[i * m : (i + 1) * m]
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
        _batch_permutations(uniforms(perm_key(seed), first_draw, n_draws, n - n1),
                            labels.astype(np.int32), n1),
        labels,
    )
    stats = [statistic(mm, kind) for kind in kinds]
    n_le = np.array([np.count_nonzero(s <= o) for s, o in zip(stats, observed)], dtype=np.int64)
    n_ge = np.array([np.count_nonzero(s >= o) for s, o in zip(stats, observed)], dtype=np.int64)
    return n_le, n_ge


def tally_range(labels: np.ndarray, n1: int, kinds, observed: np.ndarray, seed: int,
                first: int, stop: int, settle_above: int | None = None) -> np.ndarray:
    """(n_le, n_ge) per kind over draws [first, stop), one `tally_draws` call per step.

    A step is one cache-sized block (`_block_draws`).  With `settle_above`,
    a step is also an eighth of the range, within [256, 1024], and the loop
    stops once every kind's min(n_le, n_ge) is above `settle_above`: both
    tallies only grow, so a decision "min(n_le, n_ge) <= settle_above" can
    no longer change.
    """
    step = _block_draws(labels.size, int(labels.max()) + 1)
    if settle_above is not None:
        step = min(step, _MAX_STEP_DRAWS, max(_MIN_STEP_DRAWS, -(-(stop - first) // 8)))
    counts = np.zeros((2, len(kinds)), dtype=np.int64)
    for a in range(first, stop, step):
        counts += tally_draws(labels, n1, kinds, observed, seed, a, min(step, stop - a))
        if settle_above is not None and np.all(counts.min(axis=0) > settle_above):
            break
    return counts


def permutation_tests(data: TwoSamples, kinds, n_perm: int = 10_000, seed: int = DEFAULT_SEED,
                      threads: int = 1) -> list[PermutationResult]:
    """Studentized permutation tests for several statistics, one per kind.

    Every kind is tallied over the same draws in one pass, so each result
    equals `permutation_test` for its kind alone.  `threads` workers (>= 1)
    each tally one contiguous lane of whole blocks, so the pool never has
    more workers than blocks or CPUs.
    """
    kinds = list(kinds)
    if any(kind.family == "wmw" for kind in kinds):
        raise InvalidKind("the permutation approach is defined for the non-WMW statistics")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if not kinds:
        return []
    observed_results = [run_test(data, kind) for kind in kinds]
    labels = tie_runs(data.pooled()[None, :])[0][0]
    observed = np.array([res.statistic for res in observed_results])
    block = _block_draws(labels.size, int(labels.max()) + 1)
    n_blocks = -(-n_perm // block)
    lanes = worker_count(threads, n_blocks)
    bounds = [min(n_perm, n_blocks * i // lanes * block) for i in range(lanes + 1)]
    tasks = [(labels, data.n1, kinds, observed, seed, a, b)
             for a, b in zip(bounds[:-1], bounds[1:])]
    p1s, p2s = (np.sum(map_tasks(tally_range, tasks, threads), axis=0) / n_perm).tolist()
    return [PermutationResult(observed=res, p1=p1, p2=p2, p_value=min(1.0, 2.0 * min(p1, p2)),
                              n_perm=n_perm, seed=seed)
            for res, p1, p2 in zip(observed_results, p1s, p2s)]


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
        Worker processes for the draw loop, >= 1; see `permutation_tests`.
    """
    return permutation_tests(data, [kind], n_perm, seed, threads)[0]
