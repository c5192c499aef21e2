"""The tie-run count kernel: every plug-in moment, as one `EffectSummary`.

A dataset enters only through its tie runs: the pooled values sorted into
runs of equal values, each with its size and its count of arm-1 members.
With `a` and `b` a run's arm-1 and arm-2 counts and A, B the counts in lower
runs, an arm-2 value sits at 2*n1*F1 = 2A + a and an arm-1 value at
2*n2*(1 - F2) = 2*n2 - 2B - b, so p, tau1, tau2 and beta are integer sums
over runs, divided once (`_moments_from_sums`).  `moments_from_counts`
reduces a (rows, runs) matrix of counts at once; a permutation count lane,
which draws each relabelling's counts one run at a time, adds each run's
terms to the sums as soon as it has drawn them (`RunSums`, the kernel's run
step), so the same integers come out with no matrix held.  `tie_runs`
takes datasets as two arms and returns their whole tie-run record: each
pooled value's run label, in place, from one argsort per row, and each
run's size and arm-1 count (`arm1_counts`, which counts any subset of
labels per run).  It records a user dataset, which `TwoSamples` keeps for
its moments, its permutation test and its plus/minus-ECDF moments; a
permutation chunk; and a batch the key sort below cannot score.  A
simulated batch of discrete data needs no sort at all: given as indices on
one sorted support (`moments_from_codes`), each support value is a run,
and its members are counted per arm; a value a row does not use is an
empty run, which adds 0 to every sum.  Datasets with the same runs and
counts get bit-identical moments whichever entry point produced them: a
simulated batch (`moments_from_values` or `moments_from_codes`),
permutation draws (`moments_from_perm`) or one user dataset
(`moments_from_values`, or `moments_from_counts` on the record a
`TwoSamples` keeps).  A permutation draw
arrives as the run labels of its arm-1 values, which the relabel carries
through the shuffle in place of indices, so its counts are one `bincount`
with no gather.  A batch's summary holds one row per dataset in each
field; one dataset's holds floats, equal to the row the same dataset would
fill in a batch.

On tie-free data every run holds one value and its label is the value's
pooled rank, so a dataset is fully described by its n1 sorted arm-1 ranks,
and the same integer sums are taken over those n1 terms instead of N runs
(`_moments_from_ranks`).  `moments_from_perm` takes that path whenever every
draw it scores is tie-free.  Values (`moments_from_values`) are sorted
once, in place, as integer keys that carry each value's arm in bit 0
(`_moments_from_keys`): if no two neighbours share a key but for that bit,
every row is tie-free and the sorted arm bits mark the arm-1 ranks.
Values that tie are not key-sorted when the first values already show a
repeat (`_keys_cannot_count`).  One dataset that ties is then scored off
its sorted values (`_moments_from_sorted`): a run starts wherever the
sorted pooled values change, and one `searchsorted` into the sorted arm 1
counts each run's arm-1 members.  A batch that ties takes the run path.
Only this module picks a dataset's route, and only the key fold reads
float bits.
A batch's keys live in buffers each thread keeps for its next batch
(`_thread_buffers`), at most 2**20 values each; one dataset's are fresh
arrays, freed on return.  The moments are bit-identical on every path.

Every sum is below N**3 for N pooled values, so it is exact in int64 while
N < 2**21; larger samples accumulate in float64 instead, through the count
kernel only.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["EffectSummary", "tie_runs", "arm1_counts", "moments_from_counts", "RunSums",
           "moments_from_values", "moments_from_codes", "moments_from_perm"]

# pooled size from which int64 sums (bounded by N**3) could overflow
EXACT_SUMS_BELOW = 2**21


@dataclass(frozen=True)
class EffectSummary:
    """Every plug-in moment: floats for one dataset, one array row per dataset for a batch.

    ``p_hat`` is P(X1 < X2) + P(X1 = X2)/2 over all cross pairs, ``beta_hat``
    the fraction of cross pairs tied, ``tau0/1/2`` the second-moment integrals
    of the empirical CDFs, ``sigma1_sq, sigma2_sq`` the per-arm placement
    variances, ``sigma1/2_given_n_sq`` the split of the unbiased variance the
    trace-type df read, and ``var_wmw_raw`` the rank-test variance before its
    all-tied floor, a pooled-rank invariant.  The degeneracy flags and the
    boundary-adjusted estimate are read off the moments, so they too are
    scalars for one dataset and arrays for a batch.

    No permutation statistic reads ``sigma1/2_given_n_sq`` or
    ``var_wmw_raw``, so they are computed from the other fields on first
    read and kept; ``s_wmw``, the run sizes' sum of squared centred
    mid-ranks that ``var_wmw_raw`` divides, is shared by a batch whose rows
    share their run sizes.
    """

    n1: int
    n2: int
    p_hat: float | np.ndarray
    beta_hat: float | np.ndarray
    tau0_hat: float | np.ndarray
    tau1_hat: float | np.ndarray
    tau2_hat: float | np.ndarray
    sigma1_sq: float | np.ndarray
    sigma2_sq: float | np.ndarray
    s_wmw: int | float | np.ndarray = field(repr=False)

    @cached_property
    def sigma1_given_n_sq(self):
        return self._given_n_sq(self.n2, self.tau1_hat)

    @cached_property
    def sigma2_given_n_sq(self):
        return self._given_n_sq(self.n1, self.tau2_hat)

    def _given_n_sq(self, n_other: int, tau):
        p = self.p_hat
        return ((n_other * tau - 0.5 * self.tau0_hat - (n_other - 0.5) * (p * p))
                / ((self.n1 - 1) * (self.n2 - 1)))

    @cached_property
    def var_wmw_raw(self):
        n1, n2 = self.n1, self.n2
        n = n1 + n2
        return np.broadcast_to(self.s_wmw / (4.0 * (n - 1) * n * n1 * n2),
                               np.shape(self.p_hat))[()]

    @property
    def all_tied(self):
        """True iff every pooled observation has the same value."""
        return self.beta_hat == 1.0

    @property
    def sep_high(self):
        return self.p_hat == 1.0

    @property
    def sep_low(self):
        return self.p_hat == 0.0

    @property
    def separated(self):
        """True iff one arm lies strictly above the other (p_hat is 0 or 1)."""
        return self.sep_high | self.sep_low

    @cached_property
    def p_hat_adjusted(self):
        """Effect estimate with the separated-sample adjustment applied.

        For completely separated arms the estimate is moved off the boundary
        to 1 - 1/(n1*n2) (or 1/(n1*n2)), as if one observation of the pair of
        arms interleaved; otherwise p_hat is returned unchanged.  Cached:
        every statistic but the rank test's reads it.
        """
        eps = 1.0 / (self.n1 * self.n2)
        return np.where(self.sep_high, 1.0 - eps, np.where(self.sep_low, eps, self.p_hat))[()]

    @cached_property
    def _raw_variances(self) -> dict:
        """Raw variance estimates by kind, kept here by `variance.variance_raw`."""
        return {}


def tie_runs(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tie-run record of datasets given as two arms, shaped as for `moments_from_values`.

    Returns each pooled value's run label, arm 1 first, in the values' own
    positions, (..., n1 + n2); each dataset's run sizes, (..., runs); and
    its arm-1 count per run, (..., runs).  A dataset's runs are labelled
    from 0 in increasing value order; in a batch, a row with fewer runs
    than the widest is padded with empty runs, which add nothing to any
    sum.  Each row's sort order is made one index into the flat block,
    which gathers the sorted values and scatters their labels back.
    """
    pooled = np.concatenate([x1, x2], axis=-1)
    *lead, n = pooled.shape
    order = np.argsort(pooled.reshape(-1, n), axis=1)
    order += np.arange(0, pooled.size, n)[:, None]
    ordered = pooled.take(order)
    run = np.zeros(order.shape, dtype=np.intp)
    # a new run starts where a sorted value differs from its predecessor
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run[:, 1:])
    np.cumsum(run, axis=1, out=run)
    labels = np.empty_like(run)
    labels.reshape(-1)[order.reshape(-1)] = run.reshape(-1)
    n_runs = int(run[:, -1].max()) + 1
    record = labels, arm1_counts(run, n_runs), arm1_counts(labels[:, : x1.shape[-1]], n_runs)
    return tuple(array.reshape(*lead, -1) for array in record)


def arm1_counts(labels: np.ndarray, n_runs: int) -> np.ndarray:
    """Members of each of n_runs runs among each row's labels: (rows, k) to (rows, n_runs)."""
    rows = labels.shape[0]
    keys = labels + np.arange(rows)[:, None] * n_runs if rows > 1 else labels
    # order="K": a transposed block is read without a copy
    return np.bincount(keys.ravel(order="K"), minlength=rows * n_runs).reshape(rows, n_runs)


def moments_from_counts(a: np.ndarray, sizes: np.ndarray, n1: int, n2: int) -> EffectSummary:
    """Moments from arm-1 counts per tie run.

    `a` is (rows, runs) for a batch, whose summary holds arrays, or (runs,)
    for one dataset, whose summary holds floats.  `sizes` holds the run
    sizes, either shared by every row (runs,) or per row (rows, runs).
    """
    if n1 + n2 >= EXACT_SUMS_BELOW:
        a, sizes = a.astype(float), sizes.astype(float)
    b = sizes - a
    s_wmw, g2_shift = _run_shape(sizes, n1, n2)
    f1 = np.cumsum(a, axis=-1)
    f1 *= 2
    f1 -= a
    g2 = f1 + g2_shift
    return _moments_from_sums(
        s_wmw,
        np.einsum("...j,...j->...", b, f1),
        np.einsum("...j,...j,...j->...", a, g2, g2),
        np.einsum("...j,...j,...j->...", b, f1, f1),
        np.einsum("...j,...j->...", a, b),
        n1, n2,
    )


def _run_shape(sizes: np.ndarray, n1: int, n2: int) -> tuple:
    """The terms run sizes alone fix, per row or for one dataset: s_wmw and each run's g2 shift.

    With `below` the values in lower runs, a run's pooled mid-rank is
    below + (size + 1) / 2, so it adds size (2 below + size - N)**2 to
    s_wmw, and an arm-1 value in it sits at g2 = f1 + 2 (n2 - below) - size.
    """
    below = np.cumsum(sizes, axis=-1) - sizes
    centred = 2 * below + sizes - (n1 + n2)
    return np.einsum("...j,...j,...j->...", sizes, centred, centred), 2 * (n2 - below) - sizes


class RunSums:
    """The count kernel one run at a time, for draws of pooled samples that share n1 and n2.

    A row's arm-1 count a in run j and its arm-1 count A in lower runs fix
    run j's terms: with b = size - a and f1 = 2A + a, run j adds b f1 to
    s_p, a g2**2 to s_tau1 (g2 = f1 + 2 (n2 - values below) - size), b f1**2
    to s_tau2 and a b to s_beta, the summands of `moments_from_counts`.
    `step` adds them to four int64 sums as soon as run j's counts are
    known, so no (rows, runs) matrix is held, and `moments` divides the
    sums once.  `sizes` holds each sample's run sizes, (samples, runs);
    s_wmw and each run's g2 shift depend on them alone and are taken once
    per sample (`_run_shape`).  A row belongs to one sample, and `step`
    reads its run's size and g2 shift per row.  Every pooled sample must
    be below EXACT_SUMS_BELOW.
    """

    def __init__(self, sizes: np.ndarray, n1: int):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.n1, self.n2 = n1, int(self.sizes[0].sum()) - n1
        self.s_wmw, self.g2_shift = _run_shape(self.sizes, n1, self.n2)

    def step(self, sums: np.ndarray, j: int, a: np.ndarray, placed: np.ndarray,
             samples: np.ndarray) -> None:
        """Add run j's terms to `sums`, (s_p, s_tau1, s_tau2, s_beta) stacked on the rows' shape.

        `a` holds each row's arm-1 count in run j and `placed` its arm-1
        count in lower runs, int64; `samples` holds each row's sample,
        shaped to broadcast against them.
        """
        s_p, s_tau1, s_tau2, s_beta = sums
        f1 = placed * 2
        f1 += a
        b = self.sizes[samples, j] - a
        s_beta += a * b
        b *= f1
        s_p += b
        b *= f1
        s_tau2 += b
        f1 += self.g2_shift[samples, j]
        f1 *= f1
        f1 *= a
        s_tau1 += f1

    def moments(self, runs, samples: np.ndarray, n_draws: int) -> EffectSummary:
        """Moments of n_draws rows of each of `samples`, sample by sample.

        `runs` yields, run by run in order, each row's arm-1 count in the
        run and in lower runs, (samples, n_draws) int64 each.
        """
        sums = np.zeros((4, len(samples), n_draws), dtype=np.int64)
        rows = sample_rows(samples)
        for j, (a, placed) in enumerate(runs):
            self.step(sums, j, a, placed, rows)
        return _moments_from_sums(np.repeat(self.s_wmw[samples], n_draws), *sums.reshape(4, -1),
                                  self.n1, self.n2)


def sample_rows(samples: np.ndarray):
    """Each row's sample, to broadcast against (samples, draws) arrays: one sample as a scalar.

    Operands broadcast from a scalar cost less than from a (1, 1) array.
    """
    return int(samples[0]) if len(samples) == 1 else samples[:, None]


def _moments_from_ranks(ranks: np.ndarray, n1: int, n2: int) -> EffectSummary:
    """Moments of tie-free datasets from each one's sorted arm-1 pooled ranks, (rows, n1) or (n1,).

    With L_i the i-th smallest arm-1 rank (from 0), c_i = n2 + i - L_i
    arm-2 values lie above it, so s_p = 2 sum c_i, s_tau1 = 4 sum c_i**2,
    s_tau2 = 4 sum (2i + 1) c_i (an arm-2 value with A arm-1 values below
    adds 4 A**2 = 4 sum_{i<A} (2i + 1)) and s_beta = 0: the count kernel's
    integer sums, so every moment is bit-identical to it, from n1 terms per
    row instead of N.
    """
    n = n1 + n2
    i = np.arange(n1)
    c = (n2 + i) - ranks
    # the row subscript, none for one dataset ("...j" is slower on a batch)
    r = "i" * (c.ndim - 1)
    return _moments_from_sums(
        # one value per run: sum over pooled ranks j of (2j + 1 - n)**2
        (n - 1) * n * (n + 1) // 3,
        2 * c.sum(axis=-1),
        4 * np.einsum(f"{r}j,{r}j->{r}", c, c),
        4 * np.einsum(f"{r}j,j->{r}", c, 2 * i + 1),
        np.zeros(c.shape[:-1], dtype=np.int64),
        n1, n2,
    )


def _moments_from_sums(s_wmw, s_p, s_tau1, s_tau2, s_beta, n1: int, n2: int) -> EffectSummary:
    """Every moment from the five sums, divided once; the sums are per row or scalars."""
    p = s_p / (2 * n1 * n2)
    tau1 = s_tau1 / (4 * n1 * n2 * n2)
    tau2 = s_tau2 / (4 * n1 * n1 * n2)
    beta = s_beta / (n1 * n2)
    p2 = p * p
    # centred placement moments are >= 0 up to rounding; clip so sqrt/df never see -1e-17
    sigma1_sq = n1 / (n1 - 1) * np.maximum(0.0, tau1 - p2)
    sigma2_sq = n2 / (n2 - 1) * np.maximum(0.0, tau2 - p2)
    return EffectSummary(
        n1=n1, n2=n2, p_hat=p, beta_hat=beta, tau0_hat=p - 0.25 * beta, tau1_hat=tau1,
        tau2_hat=tau2, sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq, s_wmw=s_wmw,
    )


def moments_from_values(x1: np.ndarray, x2: np.ndarray) -> EffectSummary:
    """Moments of datasets given as values: a batch as (reps, n1) and (reps, n2),
    whose summary holds arrays, or one dataset as (n1,) and (n2,), whose
    summary holds floats.

    Unless the first values already repeat one (`_keys_cannot_count`),
    tie-free values are scored from one in-place sort of keys that carry
    the arm (`_moments_from_keys`).  What it does not score, values that
    tie or N >= EXACT_SUMS_BELOW, is counted by tie run: one dataset off
    its sorted values (`_moments_from_sorted`), a batch off its tie-run
    record (`tie_runs`).  The moments are the same bits on every route.
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    n1, n2 = x1.shape[-1], x2.shape[-1]
    if n1 + n2 < EXACT_SUMS_BELOW and not _keys_cannot_count(x1, x2):
        m = _moments_from_keys(x1, x2)
        if m is not None:
            return m
    if x1.ndim == 1:
        return _moments_from_sorted(x1, x2)
    _, sizes, a = tie_runs(x1, x2)
    return moments_from_counts(a, sizes, n1, n2)


# the bits of a float64 below the sign
_MAGNITUDE = np.int64(2**63 - 1)


def _moments_from_keys(x1: np.ndarray, x2: np.ndarray) -> EffectSummary | None:
    """Moments from one in-place sort of integer keys, or None for the run path.

    Arms are shaped as for `moments_from_values`.  A value's key is its
    float64 bits read as an int64 k with the sign folded, m = k >> 63,
    k = ((k & MAG) ^ m) - m, so keys order as the values do and -0.0 and
    +0.0 share key 0.  Bit 0 is then set for an arm-1 value and cleared for
    an arm-2 value, and each row is sorted in place.  If no two neighbours
    share key >> 1, no two values are equal, sorted position k is pooled
    rank k, and the positions with bit 0 set are the arm-1 ranks
    `_moments_from_ranks` scores.  Otherwise (a tie, or two values one unit
    apart in the last place) it returns None.  Values must not be NaN.  The
    keys and the other int64 temporary come from `_thread_buffers`.
    """
    lead, n1 = x1.shape[:-1], x1.shape[-1]
    rows = x1.size // n1
    n = n1 + x2.shape[-1]
    keys, spare = _thread_buffers(rows, n)
    np.copyto(keys[:, :n1].view(np.float64), x1)
    np.copyto(keys[:, n1:].view(np.float64), x2)
    np.right_shift(keys, 63, out=spare)
    keys &= _MAGNITUDE
    keys ^= spare
    keys -= spare
    keys[:, :n1] |= 1
    keys[:, n1:] &= -2
    keys.sort(axis=1)
    # neighbours share key >> 1 iff their keys differ in bit 0 at most
    gaps = spare.reshape(-1)[: rows * (n - 1)].reshape(rows, n - 1)
    np.bitwise_xor(keys[:, 1:], keys[:, :-1], out=gaps)
    if gaps.view(np.uint64).min() < 2:
        return None
    from_arm1 = spare.reshape(-1).view(np.bool_)[: rows * n]
    np.bitwise_and(keys.reshape(-1), 1, out=from_arm1, casting="unsafe")
    ranks = np.flatnonzero(from_arm1).reshape(*lead, n1)
    if rows > 1:
        ranks -= np.arange(rows)[:, None] * n
    return _moments_from_ranks(ranks, n1, n - n1)


def _keys_cannot_count(x1: np.ndarray, x2: np.ndarray) -> bool:
    """True if the first values prove that `_moments_from_keys` returns None on these arms.

    Arms are shaped as for `moments_from_values`.  The peek reads the
    first 32 values of each arm in the first dataset, or in the first
    64 // N datasets of N < 64 pooled values each: a row that repeats a
    value there fails the key sort, of one dataset or of a batch.  A tie
    the peek does not see pays for a failed key sort; the peek never skips
    one that scores.
    """
    n1, n2 = x1.shape[-1], x2.shape[-1]
    # a batch's first rows, as slices of each lead axis, and each row's first 32 values
    peek = (slice(max(1, 64 // (n1 + n2))),) * (x1.ndim - 1) + (slice(32),)
    head = np.concatenate((x1[peek], x2[peek]), axis=-1)
    head.sort(axis=-1)
    return bool((head[..., 1:] == head[..., :-1]).any())


def _moments_from_sorted(x1: np.ndarray, x2: np.ndarray) -> EffectSummary:
    """Moments of one dataset, (n1,) and (n2,) arms, from its sorted pooled values and arm 1.

    A tie run starts wherever the sorted pooled values change.  No arm-1
    value lies between two neighbouring runs, so a run's arm-1 count is
    the arm-1 values up to its value less those up to the previous run's
    value: one `searchsorted` into the sorted arm 1.  Only copies are
    sorted, so the arms are left as they were.
    """
    pooled = np.concatenate((x1, x2))
    pooled.sort()
    # bounds[r] is where run r starts, and the last bound is N
    bounds = np.flatnonzero(np.concatenate(([True], pooled[1:] != pooled[:-1], [True])))
    upto = np.searchsorted(np.sort(x1), pooled[bounds[:-1]], side="right")
    return moments_from_counts(np.diff(upto, prepend=0), np.diff(bounds), x1.size, x2.size)


# pooled values a thread's scoring buffers hold at most: a Monte Carlo chunk's bound
BUFFER_VALUES = 2**20

_held = threading.local()


def _thread_buffers(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (rows, n) int64 arrays in memory the calling thread keeps for its next call.

    Each is grown on demand up to BUFFER_VALUES values, the pooled values of
    a Monte Carlo chunk, so a thread keeps at most 16 MiB.  One row, a user
    dataset scored once, and a request larger than that get fresh arrays,
    which are not kept, so scoring one dataset leaves the buffers as they
    were.  Per thread, because library callers may score batches from
    several threads at once.
    """
    size = rows * n
    if rows == 1 or size > BUFFER_VALUES:
        return np.empty((rows, n), np.int64), np.empty((rows, n), np.int64)
    held = getattr(_held, "buffers", None)
    if held is None or held.shape[1] < size:
        held = _held.buffers = np.empty((2, size), np.int64)
    return held[0, :size].reshape(rows, n), held[1, :size].reshape(rows, n)


def moments_from_codes(codes1: np.ndarray, codes2: np.ndarray, n_values: int) -> EffectSummary:
    """Moments for a batch of discrete datasets, (reps, n1) and (reps, n2) indices on one support.

    The support holds n_values values in increasing order, and each value is
    one tie run: its arm-1 and arm-2 members are one `bincount` per arm.  A
    value that a row does not use is an empty run, which adds nothing to any
    sum, so the moments equal `moments_from_values` on the values bit for bit.
    """
    n1, n2 = codes1.shape[1], codes2.shape[1]
    a = arm1_counts(codes1, n_values)
    return moments_from_counts(a, a + arm1_counts(codes2, n_values), n1, n2)


def moments_from_perm(arm1_labels: np.ndarray, sizes: np.ndarray) -> EffectSummary:
    """Moments for relabellings of pooled samples of one size, one row of arm-1 run labels each.

    A row of `arm1_labels` holds the run labels of the values one
    relabelling puts in arm 1.  `sizes` holds the run sizes (`tie_runs`),
    as the draw loop's lane holds them: (runs,) when every row relabels
    one pooled sample, or each row's own (rows, runs).
    """
    runs = sizes.shape[-1]
    n = int(sizes.reshape(-1, runs)[0].sum())
    n1 = arm1_labels.shape[1]
    n2 = n - n1
    if n < EXACT_SUMS_BELOW and runs == n:
        # tie-free: a value's run label is its pooled rank
        # sorted in a C-ordered copy: the relabel hands over a transposed view
        ranks = np.array(arm1_labels, order="C")
        ranks.sort(axis=1)
        return _moments_from_ranks(ranks, n1, n2)
    return moments_from_counts(arm1_counts(arm1_labels, runs), sizes, n1, n2)
