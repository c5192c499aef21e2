"""Studentized permutation versions of the non-WMW tests.

The pooled sample is randomly relabelled (n1 of its values, chosen
uniformly at random, -> arm 1, rest -> arm 2), the studentized statistic is
recomputed for every draw with the same degenerate-sample handling as on
real data, and the two-sided p-value is 2*min(p1, p2) where p1/p2 are the
fractions of permuted statistics <= / >= the observed one (exact ties count
in both tallies).

The pooled sample is labelled by tie run once: a dataset keeps its
tie-run record (`TwoSamples.run_labels`), asked for before the observed
statistics so that they are read off it too, and a Monte Carlo chunk's
replications are recorded in one `_batch.tie_runs` call.  A draw
matters only through how many arm-1 members each run gets, and the moments
are exact integer sums over those counts (`_batch.moments_from_counts`, or
run by run as a count lane draws them, `_batch.RunSums`).

`tally_streams`, the one draw loop, tallies pooled samples of one size,
each with its own seed: one user dataset (a range of draws per
`permutation_tests` worker) or the replications of a Monte Carlo chunk.
It sorts the samples into lanes (`_lanes`), the only description of them
its blocks see, and walks each lane in steps.  A step
stacks the next step of every sample still open into shared blocks of at
most the lane's block size (`_block_draws`), and one `tally_draws` call
scores each block: one `statistics` call for all kinds and samples, no
degrees of freedom, then a count of each sample's rows against its own
observed statistics.  Given a settle threshold, a sample closes once its
decision is fixed.  Draw k of a sample is row k of the uniform matrix keyed
by its seed (`rng.uniforms`), so it depends only on (seed, k):

* A count lane (`_CountLane`) serves samples of few tie runs: at most 16,
  at most a third of n2 and fewer than 2**21 pooled values
  (`_counts_drawn`, which reads only the data).  A sample's row has one
  column per run but the last, and it draws the counts themselves from
  their exact multivariate hypergeometric law, run by run: run j takes the
  inverse CDF of its law given the arm-1 members still to place at column
  j, and the last run takes what is left.  Each conditional CDF row is
  built in float64 from its mode outward, many rows in one pass, as the
  window of entries a uniform can fall between (`_cdf_windows`), kept by
  the lane once a draw reaches it (`_KeptRows`), and looked up by a binary
  search.  A run's counts add its terms to four per-draw integer sums as
  soon as they are drawn.
* A relabel lane (`_RelabelLane`) serves every other sample, tie-free data
  included; tie-free and tied samples take separate lanes, as they are
  scored apart.  A sample's row has one column per relabelling swap (n2 of
  them), and the lane carries the run labels (int32) through the first n2
  swaps of a Fisher-Yates shuffle, one scatter per swap, to count the
  arm-1 labels per run; a sample of at most 16 runs is then summed run by
  run as a count lane's is.  On tie-free data a run label is a pooled
  rank, and the same sums are taken over the draw's sorted arm-1 ranks
  (`_batch.moments_from_perm`).

Both give a draw's counts the law of a uniformly random relabelling, from
different streams.  Tallies are integer counts, and a sample's tallies
read only its own draws, so results are bit-identical for any lanes,
blocks, stacking or workers.  `run_test` scores the observed data through
the same kernel and formulas, and its statistic is the one the draws are
tallied against, so a draw with the observed arm-1 multiset reproduces it
bit for bit and ties are exact by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import EXACT_SUMS_BELOW, EffectSummary, RunSums, moments_from_perm, sample_rows
from ._pool import map_tasks, worker_count
from .errors import InvalidKind
from .ranks import TwoSamples
from .rng import DEFAULT_SEED, perm_key, uniforms
from .stat_tests import TestKind, TestResult, run_test, statistics

__all__ = ["PermutationResult", "permutation_test", "permutation_tests"]

# every array a relabel block holds, together; see `_block_draws`
_BLOCK_BYTES = 5 * 2**20
_MIN_BLOCK_DRAWS = 128
_MAX_BLOCK_DRAWS = 2048
# a count lane's block
_COUNT_BLOCK_DRAWS = 8192
# a settling sample is checked after every eighth of its draws, within these bounds
_MIN_STEP_DRAWS = 256
_MAX_STEP_DRAWS = 1024
# the most tie runs of a pooled sample drawn as per-run counts; see `_counts_drawn`
_COUNT_MAX_RUNS = 16
# (sample, members left) keys a count lane maps per run, 1 MiB of row starts and offsets: it
# serves at most this many over n1 + 1 samples
_COUNT_LANE_KEYS = 2**17
# CDF entries a count lane keeps over all its runs, 16 MiB
_KEPT_ENTRIES = 2**21


@dataclass(frozen=True)
class PermutationResult:
    observed: TestResult
    p1: float
    p2: float
    p_value: float
    n_perm: int
    seed: int


def _counts_drawn(n1: int, n2: int, n_runs):
    """Whether a pooled sample in n_runs tie runs is drawn as per-run counts, not relabelled.

    Elementwise for an array of run counts.  Per block, a run of counts
    costs about as much as three relabelling swaps, and a relabel makes one
    swap per arm-2 value, so counts are drawn when 3 n_runs <= n2.  At that
    boundary (24/24 on 8 levels, 39/39 on 13, 48/48 on 16) a 10k-draw `pm`
    test took 0.64-0.69 of the relabel's time, and on five levels 0.08 of
    it at 200/200 and 0.02 at 1024/1024 (2-vCPU VM, medians of 9).  At most
    16 runs keep the kept rows (`_KeptRows`) and the block's footprint
    small, and `RunSums`' int64 sums are exact only below EXACT_SUMS_BELOW
    pooled values.
    """
    return (3 * n_runs <= n2) & (n_runs <= _COUNT_MAX_RUNS) & (n1 + n2 < EXACT_SUMS_BELOW)


def _block_draws(n1: int, n2: int, n_runs: int) -> int:
    """Draws scored per block for n1 + n2 = n pooled values in (at most) n_runs tie runs.

    A count lane's block is always 8192 draws: at most 16 runs hold its
    footprint to a few hundred bytes per draw (its uniforms, the search
    state and four int64 sums), and each block pays about a dozen numpy
    calls per run whatever its size.  A 10k-draw `pm` test on five levels
    took 3.09 ms in blocks of 8192 against 3.37 ms in blocks of 2048 at
    15/15, and 3.39 against 3.58 ms at 200/200 (2-vCPU VM, alternating
    medians).  A relabelled draw holds 4 n bytes
    of relabel (int32 run labels), 8 n2 of scatter indices (`flat_j`) and 8
    bytes per uniform (n2 rounded up to a multiple of 4).  Its scorer adds
    12 n1 on tie-free data (the int32 sorted arm-1 ranks and their int64
    counts above) and otherwise 8 n1 of count keys and 32 per run (the
    counts and three (draws, runs) arrays of the count kernel).  A block
    holds 5 MiB of these in all, so the two arrays the scatter loop
    touches, the relabel and `flat_j`, stay near half of that, about a
    core's 2 MiB L2 cache.  At 200 and 300 per arm, a block costs the same
    per draw anywhere from about 500 to 1000 draws; fewer pay more
    per-block overhead in the loop of n2 scatters, and more spill the
    relabel out of cache.  A relabel block is kept within [128, 2048]
    draws: a 10k-draw test at 15/15 tie-free took 6.08 ms in one block
    against 4.42 ms in blocks of 2048.
    """
    if _counts_drawn(n1, n2, n_runs):
        return _COUNT_BLOCK_DRAWS
    n = n1 + n2
    per_draw = 4 * n + 8 * n2 + 32 * -(-n2 // 4)
    per_draw += 12 * n1 if n_runs == n else 8 * n1 + 32 * n_runs
    return min(_MAX_BLOCK_DRAWS, max(_MIN_BLOCK_DRAWS, _BLOCK_BYTES // per_draw))


def _half_span(s: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """How far from its mode a row of a run of s values, rest later, is summed.

    X ~ Hyp(s, rest, m) counts arm-1 members among the s run values, drawn
    without replacement from the n = s + rest still to place, and m - X
    among the rest.  By Serfling's bound, such a count strays t past its
    mean with probability at most exp(-2 t**2 / v), v = e (n + 1 - e) / n
    for e = min(s, rest); the mode is within 1 of the mean, so each tail
    past h = 1 + ceil(sqrt(30 ln 2 v)) of it holds under 2**-60, for any m.
    """
    n, e = s + rest, np.minimum(s, rest)
    return 1 + np.ceil(np.sqrt(30 * math.log(2) * e * (n + 1 - e) / n)).astype(np.int64)


def _cdf_windows(s: np.ndarray, rest: np.ndarray, m: np.ndarray, h: np.ndarray, width: int):
    """Each row's offset and window of P(X <= k), X ~ Hyp(s[i], rest[i], m[i]), in one pass.

    A row's weights, relative to its mode's, step outward from the mode by
    the exact ratio of neighbouring probabilities,
    (s - k)(m - k) / ((k + 1)(rest - m + k + 1)) from k to k + 1, each
    factor an integer below 2**53, so each ratio is one rounding, and 0
    from the support's edge on; they are multiplied out and summed in
    order by `cumprod` and `cumsum`, over h[i] (`_half_span`) of the mode
    on either side, and divided by their total.  A row thus depends only
    on its own (s, rest, m), whatever rows share its pass.  Its entries
    from the first at or above 2**-53 on, `width` of them padded with 1.0,
    are its window, and the number before that first one is its offset: a
    uniform of `rng.uniforms` lies in [2**-53, 1 - 2**-53], so the offset
    entries are all <= it, and entries past the window, 1.0 each, none.
    Returns the offsets (rows,) and windows (rows, width).
    """
    mode = (m + 1) * (s + 1) // (s + rest + 2)
    span = int(min(h.max(), s.max()))
    # column span + i is k = mode + i, and its ratio P(k + 1) / P(k) above the mode, its
    # inverse below; each factor is an integer below 2**53, so exact in float64
    i = np.arange(-span, span, dtype=float)
    k = mode[:, None] + i
    ratio = (s[:, None] - k) * (m[:, None] - k)
    k += 1
    k *= k + (rest - m)[:, None]
    np.divide(k[:, :span], ratio[:, :span], out=ratio[:, :span])
    ratio[:, span:] /= k[:, span:]
    # a ratio is 0 at the support's edge, and the factors change sign past it
    np.maximum(ratio, 0.0, out=ratio)
    ratio *= np.abs(i + 0.5) < h[:, None]
    cdf = np.ones((len(s), 2 * span + 1))
    ratio[:, :span][:, ::-1].cumprod(axis=1, out=cdf[:, :span][:, ::-1])
    ratio[:, span:].cumprod(axis=1, out=cdf[:, span + 1 :])
    cdf.cumsum(axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    below = (cdf < 2.0**-53).sum(axis=1)
    # past the span, a window reads its row's last entry, 1.0
    at = np.minimum(below[:, None] + np.arange(width), 2 * span)
    at += np.arange(0, cdf.size, 2 * span + 1)[:, None]
    return mode - span + below, cdf.take(at)


class _KeptRows:
    """One run's conditional CDF rows that a count lane's draws have reached, kept across blocks.

    Sample i's run holds s[i] values and rest[i] lie in later runs; its row
    m is P(X <= k) for X ~ Hyp(s[i], rest[i], m), kept as an offset and a
    window of `width` entries (`_cdf_windows`), and m is at most `most`.
    Key i * (most + 1) + m names that row.  The windows are laid end to end
    in `table`, at most `fit` of them (the limit's worth, and at least
    one), in the order the draws first reached them; `start[key]` is the
    row's place there, or -1 while no draw has reached it, and
    `shift[key]` its offset less that place.  A block builds only the rows
    of new keys, in one pass.  One whose new rows would pass `fit` empties
    the table and searches its draws in groups of keys, in key order, each
    group's rows built in one pass in place of the last group's.
    """

    def __init__(self, s: np.ndarray, rest: np.ndarray, most: int, limit: int):
        self.s, self.rest, self.most = s, rest, most
        self.h = _half_span(s, rest)
        # a row's entries strictly between 0 and 1 lie in its span and support, at most
        # min(s, 2 h) of them; 2**b - 1 of them take a search of b steps
        self.width = (1 << int(np.minimum(s, 2 * self.h).max()).bit_length()) - 1
        self.fit = max(1, limit // max(1, self.width))
        # int32: a place is below the limit plus a width, an offset at most `most`
        self.start = np.full(s.size * (most + 1), -1, dtype=np.int32)
        self.shift = np.empty_like(self.start)
        self.keys = np.empty(0, dtype=np.int64)
        self.table = np.empty(0)

    def draw(self, key: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per draw, the inverse CDF of row key[...] at u[...], both of one shape."""
        start = self.start.take(key)
        if start.min() >= 0:
            return self._search(key, start, u)
        reached = np.flatnonzero(np.bincount(key.ravel()))
        new = reached[self.start[reached] < 0]
        if self.keys.size + new.size <= self.fit:
            self._keep(new)
            return self._search(key, self.start.take(key), u)
        order = np.argsort(key, axis=None, kind="stable")
        key, got = key.ravel()[order], np.empty(key.shape, dtype=np.int64)
        cuts = [*np.searchsorted(key, reached[:: self.fit]).tolist(), key.size]
        for first, a, b in zip(range(0, reached.size, self.fit), cuts, cuts[1:]):
            self.start[self.keys] = -1
            self.keys = self.keys[:0]
            self._keep(reached[first : first + self.fit])
            part = key[a:b]
            got.flat[order[a:b]] = self._search(part, self.start.take(part), u.take(order[a:b]))
        return got

    def _search(self, key: np.ndarray, start: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each row's offset plus its window's entries <= u, by a binary search, a gather a bit."""
        at = start.astype(np.int64)
        for bit in range(self.width.bit_length() - 1, -1, -1):
            step = 1 << bit
            # reads entry at + step - 1; `at` is at most width + 1 - 2 * step into its
            # row, so that entry is in the row
            at += (self.table[step - 1 :].take(at) <= u) * step
        at += self.shift.take(key)
        return at

    def _keep(self, new: np.ndarray) -> None:
        """Build the rows of the keys `new` in one pass and keep them after the table's rows."""
        sample, m = np.divmod(new, self.most + 1)
        offset, rows = _cdf_windows(self.s[sample], self.rest[sample], m, self.h[sample],
                                    self.width)
        kept = self.keys.size * self.width
        end = kept + rows.size
        if end > self.table.size:
            grown = np.empty(max(end, min(2 * kept, self.fit * self.width)))
            grown[:kept] = self.table[:kept]
            self.table = grown
        self.table[kept:end] = rows.ravel()
        start = kept + self.width * np.arange(new.size)
        self.start[new] = start
        self.shift[new] = offset - start
        self.keys = np.concatenate([self.keys, new])


class _CountLane:
    """Pooled samples with few tie runs, whose draws are their runs' arm-1 counts.

    Each sample is drawn from its own seed's stream: its draw k reads row k
    with one column per run but the last.  Run j gets the inverse CDF of
    its law given the arm-1 members still to place, Hyp(size of run j,
    values in later runs, members left), at column j, and the last run
    takes what is left: an exact draw from the multivariate hypergeometric
    law of a random relabelling's counts.  A sample with fewer runs than
    the lane's most is padded in front with empty runs.  An empty run adds
    nothing to any sum, its rows are all 1.0 and its column reads 0, so it
    always draws 0, and the sample's own runs read its own columns.

    A block holds the same number of draws of each of some samples, as
    (samples, draws) arrays, and walks the runs once (`_runs`).  Each
    draw's count in run j is looked up in the CDF rows the lane keeps for
    run j (`_KeptRows`), and run j's terms go straight into four per-draw
    sums (`RunSums.step`), so a block holds no (draws, runs) matrix.  The
    kept rows grow as the blocks reach new rows, so a lane belongs to one
    draw loop, as a relabel lane's buffers do.
    """

    def __init__(self, sizes: list, n1: int, seeds: list):
        runs = max(len(s) for s in sizes)
        padded = np.zeros((len(sizes), runs), dtype=np.int64)
        for row, s in zip(padded, sizes):
            row[runs - len(s) :] = s
        self.n1 = n1
        self.pad = [runs - len(s) for s in sizes]
        self.keys = [perm_key(seed) for seed in seeds]
        self.kernel = RunSums(padded, n1)
        later = padded.sum(axis=1, keepdims=True) - np.cumsum(padded, axis=1)
        limit = _KEPT_ENTRIES // max(1, runs - 1)
        self.rows = [_KeptRows(padded[:, j], later[:, j], n1, limit) for j in range(runs - 1)]
        self.draws = _COUNT_BLOCK_DRAWS

    def _uniforms(self, samples: np.ndarray, first_draw: int, n_draws: int) -> np.ndarray:
        """Each sample's columns over the draws, (runs - 1, samples, draws); padding reads 0.

        Column j is one contiguous row: a copy of the strided uniforms costs
        less than the binary search's strided reads of them.
        """
        u = np.empty((len(self.rows), len(samples), n_draws))
        for i, sample in enumerate(samples.tolist()):
            pad = self.pad[sample]
            u[:pad, i] = 0.0
            u[pad:, i] = uniforms(self.keys[sample], first_draw, n_draws, len(self.rows) - pad).T
        return u

    def _runs(self, samples: np.ndarray, first_draw: int, n_draws: int):
        """Per run in order: each draw's arm-1 count in it and in lower runs, (samples, draws)."""
        u = self._uniforms(samples, first_draw, n_draws)
        # the key of each sample's row with all n1 members left; a draw's is this less those placed
        full = sample_rows(samples) * (self.n1 + 1) + self.n1
        placed = np.zeros((len(samples), n_draws), dtype=np.int64)
        for j, rows in enumerate(self.rows):
            a = rows.draw(full - placed, u[j])
            yield a, placed
            placed = placed + a
        yield self.n1 - placed, placed

    def counts(self, samples: np.ndarray, first_draw: int, n_draws: int) -> np.ndarray:
        """Each draw's arm-1 count per run, (samples * draws, runs), sample by sample."""
        return np.column_stack([a.reshape(-1) for a, _ in self._runs(samples, first_draw, n_draws)])

    def moments(self, samples: np.ndarray, first_draw: int, n_draws: int) -> EffectSummary:
        """Moments of draws [first_draw, first_draw + n_draws) of each sample, sample by sample."""
        return self.kernel.moments(self._runs(samples, first_draw, n_draws), samples, n_draws)


class _RelabelLane:
    """Pooled samples of one size, relabelled, and the relabel's buffers, owned by one draw loop.

    Column i of `values` holds sample i's tie-run labels (`tie_runs`) as
    int32, the first n1 of them arm 1, and `sizes` the run sizes, given as
    (samples, runs) and kept as (runs,) when every sample shares them
    (tie-free, or one sample).  Tied samples of at most 16 runs are scored
    run by run, as a count lane's are (`RunSums`), from each draw's arm-1
    count per run; any others by `moments_from_perm`.  The buffers hold
    blocks of up to `draws` relabellings and are reused by each block, so
    whatever a block reads off them must be consumed before the next block
    starts.
    """

    def __init__(self, labels: np.ndarray, sizes: np.ndarray, n1: int, seeds: list, draws: int):
        n, runs = labels.shape[1], sizes.shape[1]
        self.values = labels.T.astype(np.int32)
        self.sizes = sizes[0] if len(sizes) == 1 or runs == n else sizes
        self.n1, self.draws = n1, draws
        self.keys = [perm_key(seed) for seed in seeds]
        self.kernel = None
        if runs <= _COUNT_MAX_RUNS and runs < n < EXACT_SUMS_BELOW:
            self.kernel = RunSums(sizes, n1)
        self.perm = np.empty(n * draws, dtype=np.int32)
        self.flat_j = np.empty((n - n1) * draws, dtype=np.intp)
        self.cols = np.arange(draws)
        # step s of a draw picks among the i + 1 = n - s positions 0..i
        self.bound = np.arange(n, n1, -1)[:, None]

    def moments(self, samples: np.ndarray, first_draw: int, n_draws: int) -> EffectSummary:
        """Moments of draws [first_draw, first_draw + n_draws) of each sample, off the buffers."""
        n2 = self.values.shape[0] - self.n1
        # nested, so the uniforms are freed once relabelled
        arm1 = _batch_permutations([uniforms(self.keys[i], first_draw, n_draws, n2)
                                    for i in samples.tolist()], self, samples)
        if self.kernel is not None:
            return self.kernel.moments(self._runs(arm1, len(samples), n_draws), samples, n_draws)
        sizes = self.sizes
        if sizes.ndim > 1:
            sizes = np.repeat(sizes[samples], n_draws, axis=0)
        return moments_from_perm(arm1, sizes)

    def _runs(self, arm1: np.ndarray, n_samples: int, n_draws: int):
        """Per run in order: each draw's arm-1 count in it and in lower runs, (samples, draws)."""
        m = n_samples * n_draws
        # one bincount, run-major: the key of a label in row k is label * m + k
        keys = arm1.T.astype(np.intp)
        keys *= m
        keys += self.cols[:m]
        counts = np.bincount(keys.reshape(-1), minlength=self.sizes.shape[-1] * m)
        placed = np.zeros((n_samples, n_draws), dtype=np.int64)
        for a in counts.reshape(-1, n_samples, n_draws):
            yield a, placed
            placed = placed + a


def _lanes(labels: np.ndarray, sizes: np.ndarray, n1: int, seeds: list,
           n_draws: int) -> list:
    """(members, lane) for pooled samples of one size, each drawn by one lane.

    `labels` holds each sample's run labels and `sizes` its run sizes,
    padded with empty runs at the end (`tie_runs`).  Samples whose counts
    are drawn share count lanes of at most `_COUNT_LANE_KEYS // (n1 + 1)`
    samples, and the others one tie-free and one tied relabel lane, whose
    buffers hold a block of the lane's size (`_block_draws` at its most
    runs) or all the draws its samples take, n_draws each, if fewer.
    """
    n = labels.shape[1]
    runs = np.count_nonzero(sizes, axis=1)
    counted = _counts_drawn(n1, n - n1, runs)
    lanes = []
    members = np.flatnonzero(counted)
    most = max(1, _COUNT_LANE_KEYS // (n1 + 1))
    for first in range(0, members.size, most):
        part = members[first : first + most].tolist()
        lanes.append((np.array(part), _CountLane([sizes[i, : runs[i]] for i in part], n1,
                                                 [seeds[i] for i in part])))
    for part in np.flatnonzero(~counted & (runs == n)), np.flatnonzero(~counted & (runs < n)):
        if part.size:
            width = int(runs[part].max())
            draws = min(_block_draws(n1, n - n1, width), part.size * n_draws)
            lanes.append((part, _RelabelLane(labels[part], sizes[part, :width], n1,
                                             [seeds[i] for i in part.tolist()], draws)))
    return lanes


def _batch_permutations(u: list, lane: _RelabelLane, samples) -> np.ndarray:
    """The labels a row-wise Fisher-Yates shuffle driven by uniform rows puts in arm 1.

    u holds one block of d uniform rows per sample in `samples`, and the
    block's rows are those blocks' rows in turn.  A row holds n - n1
    uniforms and makes the first n - n1 swaps of a Fisher-Yates shuffle of
    its sample's labels, where step s swaps position i = n-1-s with
    floor(u[s]*(i+1)).  Those swaps settle positions n1..n-1, and the later
    swaps only reorder arm 1, so the row holds the labels the full shuffle
    leaves in its first n1 positions, in some order.  Position i is never
    read after step i, so a step only copies position i into the drawn one
    instead of swapping them.  The shuffle runs in the lane's buffers and
    the result is a view of them, valid until the lane's next block.
    """
    d = u[0].shape[0]
    m = len(u) * d
    n, n1 = lane.values.shape[0], lane.n1
    # column-major working array: perm[i * m + k] is position i of row k
    perm = lane.perm[: n * m]
    np.copyto(perm.reshape(n, len(u), d), lane.values[:, samples, None])
    # flat_j[step, k] = floor(u[k, step] * (i + 1)) * m + k, built in one array
    flat_j = lane.flat_j[: (n - n1) * m].reshape(n - n1, m)
    for i, block in enumerate(u):
        np.multiply(block.T, lane.bound, out=flat_j[:, i * d : (i + 1) * d], casting="unsafe")
    flat_j *= m
    flat_j += lane.cols[:m]
    for step, i in enumerate(range(n - 1, n1 - 1, -1)):
        perm[flat_j[step]] = perm[i * m : (i + 1) * m]
    return perm[: n1 * m].reshape(n1, m).T


def tally_draws(lane: _CountLane | _RelabelLane, kinds, observed: np.ndarray, samples: np.ndarray,
                first_draw: int, n_draws: int) -> np.ndarray:
    """Counts of permuted statistics <= / >= the observed ones over one block, (2, kinds, samples).

    The block is draws [first_draw, first_draw + n_draws) of each of the
    lane's `samples`, scored in one pass; `observed` holds their observed
    statistics, (kinds, samples).  A relabel lane must hold the block.
    """
    stats = np.array(statistics(lane.moments(samples, first_draw, n_draws), kinds))
    stats = stats.reshape(len(kinds), len(samples), n_draws)
    observed = observed[:, :, None]
    return np.array(((stats <= observed).sum(axis=2), (stats >= observed).sum(axis=2)))


def tally_streams(labels: np.ndarray, sizes: np.ndarray, n1: int, kinds, observed: np.ndarray,
                  seeds: list, first: int, stop: int,
                  settle_above: int | None = None) -> np.ndarray:
    """(n_le, n_ge) per kind and sample over draws [first, stop) of each sample's stream.

    Pooled samples of one size are given by their run labels and run sizes
    (samples, n) and (samples, runs), as `tie_runs` records them, with their
    observed statistics (kinds, samples) and one seed each; the result is
    (2, kinds, samples).  Each lane (`_lanes`) is walked in steps of one
    block, or of the whole range if it is shorter.  With `settle_above`, a
    step is also at most an eighth of the range, within [256, 1024], and a
    sample closes once every kind's
    min(n_le, n_ge) is above `settle_above`: both tallies only grow, so a
    decision "min(n_le, n_ge) <= settle_above" can no longer change.  Each
    step stacks the open samples' next steps into as few blocks of the
    lane's size as hold them, one `tally_draws` call each.
    """
    counts = np.zeros((2, len(kinds), len(seeds)), dtype=np.int64)
    for members, lane in _lanes(labels, sizes, n1, seeds, stop - first):
        step = lane.draws
        if settle_above is not None:
            step = min(step, _MAX_STEP_DRAWS, max(_MIN_STEP_DRAWS, -(-(stop - first) // 8)))
        # a step never passes the range, so a block stacks as many samples as its size holds
        step = max(1, min(step, stop - first))
        stacked = lane.draws // step
        lane_observed = observed[:, members]
        tallied = np.zeros((2, len(kinds), members.size), dtype=np.int64)
        open_ = np.arange(members.size)
        for a in range(first, stop, step):
            for i in range(0, open_.size, stacked):
                block = open_[i : i + stacked]
                tallied[:, :, block] += tally_draws(lane, kinds, lane_observed[:, block], block, a,
                                                    min(step, stop - a))
            if settle_above is not None:
                # a closed sample's tallies stay above the threshold, so it stays closed
                open_ = np.flatnonzero((tallied.min(axis=0) <= settle_above).any(axis=0))
                if not open_.size:
                    break
        counts[:, :, members] = tallied
    return counts


def permutation_tests(data: TwoSamples, kinds, n_perm: int = 10_000, seed: int = DEFAULT_SEED,
                      threads: int = 1) -> list[PermutationResult]:
    """Studentized permutation tests for several statistics, one per kind.

    Every kind is tallied over the same draws in one pass, so each result
    equals `permutation_test` for its kind alone.  The dataset's tie-run
    record is asked for before its observed statistics, so `data.moments`
    reads it and a fresh dataset is sorted once.  `threads` workers (>= 1)
    each tally one contiguous range of whole blocks, so the pool never has
    more workers than blocks or CPUs.
    """
    kinds = list(kinds)
    if any(kind.family == "wmw" for kind in kinds):
        raise InvalidKind("the permutation approach is defined for the non-WMW statistics")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if not kinds:
        return []
    labels, sizes = data.run_labels()
    observed = [run_test(data, kind) for kind in kinds]
    statistics = np.array([res.statistic for res in observed])
    block = _block_draws(data.n1, data.n2, sizes.size)
    n_blocks = -(-n_perm // block)
    workers = worker_count(threads, n_blocks)
    bounds = [min(n_perm, n_blocks * i // workers * block) for i in range(workers + 1)]
    tasks = [(labels[None], sizes[None], data.n1, kinds, statistics[:, None], [seed], a, b)
             for a, b in zip(bounds[:-1], bounds[1:])]
    p1s, p2s = (np.sum(map_tasks(tally_streams, tasks, threads), axis=0)[:, :, 0] / n_perm).tolist()
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
