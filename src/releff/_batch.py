"""The tie-run count kernel: every plug-in moment, for a batch of datasets.

A dataset enters only through its tie runs: the pooled values sorted into
runs of equal values, each with its size and its count of arm-1 members.
With `a` and `b` a run's arm-1 and arm-2 counts and A, B the counts in lower
runs, an arm-2 value sits at 2*n1*F1 = 2A + a and an arm-1 value at
2*n2*(1 - F2) = 2*n2 - 2B - b, so p, tau1, tau2 and beta are integer sums
over runs, divided once.  Datasets with the same runs and counts get
bit-identical moments whichever entry point produced them: a simulated
batch (`moments_from_values`), permutation draws (`moments_from_perm`) or
one user dataset (`TwoSamples.moments`).

Every sum is below N**3 for N pooled values, so it is exact in int64 while
N < 2**21; larger samples accumulate in float64 instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BatchMoments", "MomentFlags", "tie_runs", "run_counts", "moments_from_counts",
           "moments_from_values", "moments_from_perm"]

# pooled size from which int64 sums (bounded by N**3) could overflow
EXACT_SUMS_BELOW = 2**21


class MomentFlags:
    """Degeneracy read off the moments: arrays for a batch, scalars for one dataset."""

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


@dataclass
class BatchMoments(MomentFlags):
    """The fields of `EffectSummary`, one row per dataset, plus the rank-test variance."""

    n1: int
    n2: int
    p_hat: np.ndarray
    beta_hat: np.ndarray
    tau0_hat: np.ndarray
    tau1_hat: np.ndarray
    tau2_hat: np.ndarray
    sigma1_sq: np.ndarray
    sigma2_sq: np.ndarray
    sigma1_given_n_sq: np.ndarray
    sigma2_given_n_sq: np.ndarray
    var_wmw_raw: np.ndarray


def tie_runs(ordered: np.ndarray) -> np.ndarray:
    """Run index of each value of sorted rows, counting from 0 in every row."""
    start = np.zeros(ordered.shape[:-1] + (1,), dtype=np.intp)
    return np.concatenate([start, np.cumsum(ordered[..., 1:] != ordered[..., :-1], axis=-1)], axis=-1)


def run_counts(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arm-1 counts and sizes of each row's tie runs, both (rows, runs).

    Runs are in increasing value order; a row with fewer runs than the
    widest is padded with empty runs, which add nothing to any sum.
    """
    pooled = np.concatenate([x1, x2], axis=1)
    rows, n1 = x1.shape
    order = np.argsort(pooled, axis=1)
    run = tie_runs(np.take_along_axis(pooled, order, axis=1))
    width = int(run[:, -1].max()) + 1
    run += np.arange(rows)[:, None] * width
    sizes = np.bincount(run.ravel(), minlength=rows * width).reshape(rows, width)
    a = np.bincount(run[order < n1], minlength=rows * width).reshape(rows, width)
    return a, sizes


def moments_from_counts(a: np.ndarray, sizes: np.ndarray, n1: int, n2: int) -> BatchMoments:
    """Moments from arm-1 counts per tie run, `a` of shape (rows, runs).

    `sizes` holds the run sizes, either shared by every row (runs,) or per
    row (rows, runs).
    """
    n = n1 + n2
    if n >= EXACT_SUMS_BELOW:
        a, sizes = a.astype(float), sizes.astype(float)
    b = sizes - a
    below = np.cumsum(sizes, axis=-1) - sizes
    f1 = np.cumsum(a, axis=1)
    f1 *= 2
    f1 -= a
    g2 = f1 + (2 * (n2 - below) - sizes)
    # pooled mid-rank of a run is below + (size + 1) / 2
    centred = 2 * below + sizes - n
    s_wmw = np.einsum("...j,...j,...j->...", sizes, centred, centred)
    s_p = np.einsum("ij,ij->i", b, f1)
    p = s_p / (2 * n1 * n2)
    tau1 = np.einsum("ij,ij,ij->i", a, g2, g2) / (4 * n1 * n2 * n2)
    tau2 = np.einsum("ij,ij,ij->i", b, f1, f1) / (4 * n1 * n1 * n2)
    beta = np.einsum("ij,ij->i", a, b) / (n1 * n2)
    tau0 = p - 0.25 * beta
    p2 = p * p
    # centred placement moments are >= 0 up to rounding; clip so sqrt/df never see -1e-17
    sigma1_sq = n1 / (n1 - 1) * np.maximum(0.0, tau1 - p2)
    sigma2_sq = n2 / (n2 - 1) * np.maximum(0.0, tau2 - p2)
    denom = (n1 - 1) * (n2 - 1)
    return BatchMoments(
        n1=n1, n2=n2, p_hat=p, beta_hat=beta, tau0_hat=tau0, tau1_hat=tau1, tau2_hat=tau2,
        sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq,
        sigma1_given_n_sq=(n2 * tau1 - 0.5 * tau0 - (n2 - 0.5) * p2) / denom,
        sigma2_given_n_sq=(n1 * tau2 - 0.5 * tau0 - (n1 - 0.5) * p2) / denom,
        var_wmw_raw=np.broadcast_to(s_wmw / (4.0 * (n - 1) * n * n1 * n2), p.shape),
    )


def moments_from_values(x1: np.ndarray, x2: np.ndarray) -> BatchMoments:
    """Moments for a batch of datasets given as (reps, n1) and (reps, n2)."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    return moments_from_counts(*run_counts(x1, x2), x1.shape[1], x2.shape[1])


def moments_from_perm(arm1: np.ndarray, run_of: np.ndarray, sizes: np.ndarray) -> BatchMoments:
    """Moments for relabellings of one pooled sample, one row of arm-1 indices each.

    `run_of` maps each pooled index to its tie run and `sizes` lists the run
    sizes in increasing value order.
    """
    m, n1 = arm1.shape
    n_runs = sizes.size
    keys = run_of[arm1.T] + np.arange(m) * n_runs  # arm1.T is contiguous as relabelled
    a = np.bincount(keys.ravel(), minlength=m * n_runs).reshape(m, n_runs)
    return moments_from_counts(a, sizes, n1, int(sizes.sum()) - n1)
