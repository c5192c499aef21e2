"""Studentized permutation versions of the non-WMW tests.

The pooled sample is randomly relabelled (n1 of its values, chosen
uniformly at random, -> arm 1, rest -> arm 2), the studentized statistic is
recomputed for every draw with the same degenerate-sample handling as on
real data, and the two-sided p-value is 2*min(p1, p2) where p1/p2 are the
fractions of permuted statistics <= / >= the observed one (exact ties count
in both tallies).

The pooled sample is labelled by tie run once (`TwoSamples.run_labels`; a
Monte Carlo chunk's replications in one `_batch.tie_runs` call).  A draw
matters only through how many arm-1 members each run gets, and the moments
are exact integer sums over those counts (`_batch.moments_from_counts`, or
run by run as a count lane draws them, `_batch.RunSums`).
`tally_range`, the one draw loop, builds one lane of one of two kinds for
the pooled sample, the only description of it its blocks see, and scores
draws in cache-sized blocks of that lane (`tally_draws`, one `statistics`
call for all kinds per block, no degrees of freedom); it can stop once a
decision is settled.  Draw k of a run is row k of the uniform matrix keyed
by the seed (`rng.uniforms`), so it depends only on (seed, k):

* A count lane (`_CountLane`) serves a sample of few tie runs: at most 16,
  at most a third of n2 and at most 2048 pooled values (`_counts_drawn`,
  which reads only the data).  Its row has one column per run but the
  last, and it draws the counts themselves from their exact multivariate
  hypergeometric law, run by run: run j takes the inverse CDF of its law
  given the arm-1 members still to place at column j, and the last run
  takes what is left.  Each conditional CDF row is exact, built from
  integer weights (`_cdf_row`), kept by the lane once a draw reaches it
  (`_KeptRows`), and looked up by a binary search.  A run's counts add
  its terms to four per-draw integer sums as soon as they are drawn.
* A relabel lane (`_RelabelLane`) serves every other sample, tie-free data
  included.  Its row has one column per relabelling swap (n2 of them), and
  it carries the run labels (int32) through the first n2 swaps of a
  Fisher-Yates shuffle, one scatter per swap, to count the arm-1 labels per
  run; on tie-free data a run label is a pooled rank, and the same sums are
  taken over the draw's sorted arm-1 ranks (`_batch.moments_from_perm`).

Both give a draw's counts the law of a uniformly random relabelling, from
different streams.  `permutation_tests` runs one lane of whole blocks per
worker, and the Monte Carlo engine one call per replication.  Tallies are
integer counts, so results are bit-identical for any lanes or blocking.
`run_test` scores the observed data through the same kernel and formulas,
and its statistic is the one the draws are tallied against, so a draw with
the observed arm-1 multiset reproduces it bit for bit and ties are exact by
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._batch import EffectSummary, RunSums, moments_from_perm
from ._pool import map_tasks, worker_count
from .errors import InvalidKind
from .ranks import TwoSamples
from .rng import DEFAULT_SEED, perm_key, uniforms
from .stat_tests import TestKind, TestResult, run_test, statistics

__all__ = ["PermutationResult", "permutation_test", "permutation_tests"]

# every array a block holds, together; see `_block_draws`
_BLOCK_BYTES = 5 * 2**20
_MIN_BLOCK_DRAWS = 128
_MAX_BLOCK_DRAWS = 2048
# a settling range is checked after every eighth of its draws, within these bounds
_MIN_STEP_DRAWS = 256
_MAX_STEP_DRAWS = 1024
# the widest pooled sample drawn as per-run counts, and its most tie runs; see `_counts_drawn`
_COUNT_MAX_N = 2048
_COUNT_MAX_RUNS = 16
# conditional CDF rows cached for later lanes and calls: every row one lane reaches, and
# at most 2048 rows of at most 2047 entries, 32 MiB
_CDF_ROWS = 2048


@dataclass(frozen=True)
class PermutationResult:
    observed: TestResult
    p1: float
    p2: float
    p_value: float
    n_perm: int
    seed: int


def _counts_drawn(n1: int, n2: int, n_runs: int) -> bool:
    """Whether a pooled sample in n_runs tie runs is drawn as per-run counts, not relabelled.

    Per block, a run of counts costs about as much as three relabelling
    swaps, and a relabel makes one swap per arm-2 value, so counts are
    drawn when 3 n_runs <= n2.  At that boundary (24/24 on 8 levels, 39/39
    on 13, 48/48 on 16) a lane took 0.65-0.93 of the relabel's time with
    its rows cached and about as long with none; on five levels it took
    0.3 of it cold at 200/200 and 0.55 at 1024/1024.  At most 16 runs and
    2048 pooled values keep the rows one lane reaches (under a thousand:
    about nine standard deviations of the members left, per run) inside
    the row cache, and each row cheap: its exact weights are N-bit
    integers, so a row costs about N bits per entry.
    """
    return 3 * n_runs <= n2 and n_runs <= _COUNT_MAX_RUNS and n1 + n2 <= _COUNT_MAX_N


def _block_draws(n1: int, n2: int, n_runs: int) -> int:
    """Draws scored per block for n1 + n2 = n pooled values in n_runs tie runs.

    A count lane's block is always the cap, 2048 draws: at most 16 runs
    hold its footprint to a few hundred bytes per draw (its uniforms, the
    search state and four int64 sums), and a sweep at 15, 30 and 200
    per arm found the cost per draw flat from 2048 to 8192 draws and
    1.3-1.4 times higher at 1024.  A relabelled draw holds 4 n bytes of
    relabel (int32 run labels), 8 n2 of scatter indices (`flat_j`) and 8
    bytes per uniform (n2 rounded up to a multiple of 4).  Its scorer adds
    12 n1 on tie-free data (the int32 sorted arm-1 ranks and their int64
    counts above) and otherwise 8 n1 of count keys and 32 per run (the
    counts and three (draws, runs) arrays of the count kernel).  A block
    holds 5 MiB of these in all, so the two arrays the scatter loop
    touches, the relabel and `flat_j`, stay near half of that, about a
    core's 2 MiB L2 cache.  At 200 and 300 per arm, a block costs the same
    per draw anywhere from about 500 to 1000 draws; fewer pay more
    per-block overhead in the loop of n2 scatters, and more spill the
    relabel out of cache.  A block is kept within [128, 2048] draws.
    """
    if _counts_drawn(n1, n2, n_runs):
        return _MAX_BLOCK_DRAWS
    n = n1 + n2
    per_draw = 4 * n + 8 * n2 + 32 * -(-n2 // 4)
    per_draw += 12 * n1 if n_runs == n else 8 * n1 + 32 * n_runs
    return min(_MAX_BLOCK_DRAWS, max(_MIN_BLOCK_DRAWS, _BLOCK_BYTES // per_draw))


@lru_cache(maxsize=_CDF_ROWS)
def _cdf_row(s: int, rest: int, m: int) -> np.ndarray:
    """P(X <= k) for k = 0, 1, ..., X ~ Hyp(s, rest, m), padded with 1.0 to 2**b - 1 entries.

    X is the number of arm-1 members a run of s values gets when m of the
    s + rest values still to place go to arm 1, and b is s's bit length.
    The weights C(s, k) C(rest, m - k) are exact Python ints, stepped by
    their integer ratio and summed; each entry is one int / int division,
    so it is the float nearest the exact probability.  Entries past
    min(s, m) are exactly 1.0, and so is every entry once one rounds to it.
    """
    lo, hi = max(0, m - rest), min(s, m)
    total = math.comb(s + rest, m)
    w = math.comb(s, lo) * math.comb(rest, m - lo)
    row = np.ones((1 << s.bit_length()) - 1)
    cum = 0
    entries = []
    for k in range(lo, hi):
        cum += w
        entry = cum / total
        if entry == 1.0:
            break
        entries.append(entry)
        w = w * ((s - k) * (m - k)) // ((k + 1) * (rest - m + k + 1))
    row[:lo] = 0.0
    row[lo : lo + len(entries)] = entries
    row.flags.writeable = False
    return row


class _KeptRows:
    """One run's conditional CDF rows that a count lane's draws have reached, kept across blocks.

    Row m is P(X <= k) for X ~ Hyp(s, rest, m), k = 0, 1, ... (`_cdf_row`),
    and m is at most `most`.  The rows are laid end to end in `table` in
    the order the draws first reached them, and `start[m]` is row m's
    offset there, or -1 while no draw has reached it.  A block that reaches
    new m values appends only their rows, so the table holds just the rows
    reached and asks the row cache for each of them once.
    """

    def __init__(self, s: int, rest: int, most: int):
        self.s, self.rest = s, rest
        self.width = (1 << s.bit_length()) - 1
        self.start = np.full(most + 1, -1, dtype=np.int64)
        self.table = np.empty(0)

    def draw(self, left: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per draw k, the inverse CDF of Hyp(s, rest, left[k]) at u[k].

        That is how many entries of row left[k] are <= u[k], found by a
        binary search over the row, one gather per bit of s.
        """
        start = self.start[left]
        if start.min() < 0:
            new = np.flatnonzero(np.bincount(left[start < 0]))
            self.start[new] = self.table.size + self.width * np.arange(new.size)
            self.table = np.concatenate(
                [self.table, *(_cdf_row(self.s, self.rest, m) for m in new.tolist())])
            start = self.start[left]
        at = start.copy()
        for bit in range(self.s.bit_length() - 1, -1, -1):
            step = 1 << bit
            # reads entry at + step - 1; `at` is at most width + 1 - 2 * step into its
            # row, so that entry is in the row
            at += (self.table[step - 1 :].take(at) <= u) * step
        at -= start
        return at


class _CountLane:
    """A pooled sample with few tie runs, whose draws are its runs' arm-1 counts.

    Draw k reads row k of the seed's stream with one column per run but the
    last.  Run j gets the inverse CDF of its law given the arm-1 members
    still to place, Hyp(sizes[j], values in later runs, members left), at
    column j, and the last run takes what is left: an exact draw from the
    multivariate hypergeometric law of a random relabelling's counts.

    A block walks the runs once (`_runs`).  Each draw's count in run j is
    looked up in the CDF rows the lane keeps for run j (`_KeptRows`), and
    run j's terms go straight into four per-draw sums (`RunSums.step`), so
    a block holds no (draws, runs) matrix and builds no row table.  The
    kept rows grow as the blocks reach new rows, so a lane belongs to one
    draw loop, as a relabel lane's buffers do.
    """

    def __init__(self, sizes: np.ndarray, n1: int):
        self.n1 = n1
        self.kernel = RunSums(sizes, n1)
        later = (int(sizes.sum()) - np.cumsum(sizes)).tolist()
        self.rows = [_KeptRows(s, rest, n1) for s, rest in zip(sizes[:-1].tolist(), later)]

    def _runs(self, seed: int, first_draw: int, n_draws: int):
        """Per run, in order: each draw's arm-1 count in it and in lower runs, (n_draws,) each."""
        # column j of the block as one contiguous row
        u = np.ascontiguousarray(uniforms(perm_key(seed), first_draw, n_draws, len(self.rows)).T)
        placed = np.zeros(n_draws, dtype=np.int64)
        for rows, column in zip(self.rows, u):
            a = rows.draw(self.n1 - placed, column)
            yield a, placed
            placed = placed + a
        yield self.n1 - placed, placed

    def counts(self, seed: int, first_draw: int, n_draws: int) -> np.ndarray:
        """Each draw's arm-1 count per run, (n_draws, runs)."""
        return np.column_stack([a for a, _ in self._runs(seed, first_draw, n_draws)])

    def moments(self, seed: int, first_draw: int, n_draws: int) -> EffectSummary:
        """Moments of draws [first_draw, first_draw + n_draws)."""
        sums = np.zeros((4, n_draws), dtype=np.int64)
        for j, (a, placed) in enumerate(self._runs(seed, first_draw, n_draws)):
            self.kernel.step(sums, j, a, placed)
        return self.kernel.summary(sums)


class _RelabelLane:
    """The pooled sample and the relabel's buffers, owned by one draw loop.

    `values` holds the pooled sample's tie-run labels (`tie_runs`) as int32,
    the first n1 of them arm 1, and `sizes` its run sizes; the buffers hold
    blocks of up to `draws` relabellings and are reused by each block, so
    whatever a block reads off them must be consumed before the next block
    starts.
    """

    def __init__(self, labels: np.ndarray, sizes: np.ndarray, n1: int, draws: int):
        n = labels.size
        self.values = labels.astype(np.int32)
        self.sizes = sizes
        self.n1 = n1
        self.perm = np.empty(n * draws, dtype=np.int32)
        self.flat_j = np.empty((n - n1) * draws, dtype=np.intp)
        self.cols = np.arange(draws)
        # step s of a draw picks among the i + 1 = n - s positions 0..i
        self.bound = np.arange(n, n1, -1)[:, None]

    def moments(self, seed: int, first_draw: int, n_draws: int) -> EffectSummary:
        """Moments of draws [first_draw, first_draw + n_draws), read off the buffers."""
        # nested, so the uniforms are freed once relabelled
        return moments_from_perm(
            _batch_permutations(uniforms(perm_key(seed), first_draw, n_draws,
                                         self.values.size - self.n1), self),
            self.sizes,
        )


def _lane(labels: np.ndarray, sizes: np.ndarray, n1: int,
          draws: int) -> _CountLane | _RelabelLane:
    """The lane for one draw loop over a pooled sample's run labels and run sizes.

    A relabel lane holds blocks of up to `draws` draws.
    """
    if _counts_drawn(n1, labels.size - n1, sizes.size):
        return _CountLane(sizes, n1)
    return _RelabelLane(labels, sizes, n1, draws)


def _batch_permutations(u: np.ndarray, lane: _RelabelLane) -> np.ndarray:
    """The labels a row-wise Fisher-Yates shuffle driven by uniform rows puts in arm 1.

    Row k of u holds n - n1 uniforms and makes the first n - n1 swaps of a
    Fisher-Yates shuffle of `lane.values`, where step s swaps position
    i = n-1-s with floor(u[s]*(i+1)).  Those swaps settle positions
    n1..n-1, and the later swaps only reorder arm 1, so row k holds the
    labels the full shuffle leaves in its first n1 positions, in some order.
    Position i is never read after step i, so a step only copies position i
    into the drawn one instead of swapping them.  The shuffle runs in the
    lane's buffers and the result is a view of them, valid until the lane's
    next block.
    """
    m = u.shape[0]
    n, n1 = lane.values.size, lane.n1
    # column-major working array: perm[i * m + k] is position i of row k
    perm = lane.perm[: n * m]
    np.copyto(perm.reshape(n, m), lane.values[:, None])
    # flat_j[step, k] = floor(u[k, step] * (i + 1)) * m + k, built in one array
    flat_j = lane.flat_j[: (n - n1) * m].reshape(n - n1, m)
    np.multiply(u.T, lane.bound, out=flat_j, casting="unsafe")
    flat_j *= m
    flat_j += lane.cols[:m]
    for step, i in enumerate(range(n - 1, n1 - 1, -1)):
        perm[flat_j[step]] = perm[i * m : (i + 1) * m]
    return perm[: n1 * m].reshape(n1, m).T


def tally_draws(lane: _CountLane | _RelabelLane, kinds, observed: np.ndarray, seed: int,
                first_draw: int, n_draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts of permuted statistics <= / >= the observed one, per kind, over one block.

    The block is draws [first_draw, first_draw + n_draws) of the seed's
    stream, drawn by the lane (`_lane`); a relabel lane must hold at least
    n_draws draws.
    """
    stats = np.array(statistics(lane.moments(seed, first_draw, n_draws), kinds))
    return (np.count_nonzero(stats <= observed[:, None], axis=1),
            np.count_nonzero(stats >= observed[:, None], axis=1))


def tally_range(labels: np.ndarray, n1: int, kinds, observed: np.ndarray, seed: int,
                first: int, stop: int, settle_above: int | None = None) -> np.ndarray:
    """(n_le, n_ge) per kind over draws [first, stop), one `tally_draws` call per step.

    A step is one cache-sized block (`_block_draws`).  With `settle_above`,
    a step is also an eighth of the range, within [256, 1024], and the loop
    stops once every kind's min(n_le, n_ge) is above `settle_above`: both
    tallies only grow, so a decision "min(n_le, n_ge) <= settle_above" can
    no longer change.  Every step is drawn by one lane (`_lane`), which
    reads the run sizes counted here.
    """
    sizes = np.bincount(labels)
    step = _block_draws(n1, labels.size - n1, sizes.size)
    if settle_above is not None:
        step = min(step, _MAX_STEP_DRAWS, max(_MIN_STEP_DRAWS, -(-(stop - first) // 8)))
    lane = _lane(labels, sizes, n1, min(step, stop - first))
    counts = np.zeros((2, len(kinds)), dtype=np.int64)
    for a in range(first, stop, step):
        counts += tally_draws(lane, kinds, observed, seed, a, min(step, stop - a))
        if settle_above is not None and np.all(counts.min(axis=0) > settle_above):
            break
    return counts


def permutation_tests(data: TwoSamples, kinds, n_perm: int = 10_000, seed: int = DEFAULT_SEED,
                      threads: int = 1, *, observed=None) -> list[PermutationResult]:
    """Studentized permutation tests for several statistics, one per kind.

    Every kind is tallied over the same draws in one pass, so each result
    equals `permutation_test` for its kind alone.  `threads` workers (>= 1)
    each tally one contiguous lane of whole blocks, so the pool never has
    more workers than blocks or CPUs.  `observed` may hold the kinds'
    `run_test` results on `data`, already computed (under any alternative:
    only their statistics are tallied against); they are reported as given.
    """
    kinds = list(kinds)
    if any(kind.family == "wmw" for kind in kinds):
        raise InvalidKind("the permutation approach is defined for the non-WMW statistics")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if observed is not None and [res.kind for res in observed] != kinds:
        raise ValueError("observed must hold one run_test result per kind, in order")
    if not kinds:
        return []
    if observed is None:
        observed = [run_test(data, kind) for kind in kinds]
    labels, sizes = data.run_labels()
    statistics = np.array([res.statistic for res in observed])
    block = _block_draws(data.n1, data.n2, sizes.size)
    n_blocks = -(-n_perm // block)
    lanes = worker_count(threads, n_blocks)
    bounds = [min(n_perm, n_blocks * i // lanes * block) for i in range(lanes + 1)]
    tasks = [(labels, data.n1, kinds, statistics, seed, a, b)
             for a, b in zip(bounds[:-1], bounds[1:])]
    p1s, p2s = (np.sum(map_tasks(tally_range, tasks, threads), axis=0) / n_perm).tolist()
    return [PermutationResult(observed=res, p1=p1, p2=p2, p_value=min(1.0, 2.0 * min(p1, p2)),
                              n_perm=n_perm, seed=seed)
            for res, p1, p2 in zip(observed, p1s, p2s)]


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
