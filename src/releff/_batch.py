"""Vectorized evaluation of effect moments, variances and test statistics.

One row per dataset (simulation replication or permutation draw).  The
formulas mirror the scalar modules exactly, including the degenerate-sample
handling; tests assert row-wise agreement with the scalar path.

`moments_from_values` ranks each simulated dataset.  `moments_from_perm`
takes relabellings of one pooled sample and derives every moment from the
per-tie-run count of arm-1 members, as integer sums divided once; tie-free
data is the case where every run has size one.  Both share the tail that
turns (p, tau1, tau2, beta) into variances, so the permutation engine can
compare permuted statistics with the observed one exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr
from scipy.stats import rankdata

from .dof import DfKind, MIN_ARM_SIZE, fallback_df
from .errors import SizeTooSmall
from .stat_tests import TestKind
from .variance import VarianceKind

__all__ = ["BatchMoments", "moments_from_values", "moments_from_perm", "stat_arrays", "p_value_arrays"]


@dataclass
class BatchMoments:
    n1: int
    n2: int
    p_hat: np.ndarray
    beta_hat: np.ndarray
    tau0: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    sigma1_sq: np.ndarray
    sigma2_sq: np.ndarray
    sigma1n_sq: np.ndarray
    sigma2n_sq: np.ndarray
    var_wmw_raw: np.ndarray
    all_tied: np.ndarray
    sep_high: np.ndarray
    sep_low: np.ndarray

    @property
    def separated(self) -> np.ndarray:
        return self.sep_high | self.sep_low

    @property
    def p_eff(self) -> np.ndarray:
        """Effect estimate with the boundary adjustment for separated arms."""
        eps = 1.0 / (self.n1 * self.n2)
        p = np.where(self.sep_high, 1.0 - eps, self.p_hat)
        return np.where(self.sep_low, eps, p)

    def variance_raw(self, kind: VarianceKind) -> np.ndarray:
        n1, n2 = self.n1, self.n2
        if kind is VarianceKind.WMW:
            return self.var_wmw_raw
        if kind is VarianceKind.N:
            return (
                n2 * self.tau1 + n1 * self.tau2 - self.tau0
                - (n1 + n2 - 1) * self.p_hat**2
            ) / ((n1 - 1) * (n2 - 1))
        if kind is VarianceKind.BM:
            return self.sigma1_sq / n1 + self.sigma2_sq / n2
        if kind is VarianceKind.PM:
            return (
                self.p_hat * (1.0 - self.p_hat)
                + (n2 - 1) * self.sigma1_sq
                + (n1 - 1) * self.sigma2_sq
            ) / (n1 * n2)
        raise ValueError(f"no batch path for variance kind {kind!r}")

    def variance_value(self, kind: VarianceKind) -> np.ndarray:
        """Raw estimate with the degenerate-sample floors applied."""
        n1, n2 = self.n1, self.n2
        raw = self.variance_raw(kind)
        if kind is VarianceKind.WMW:
            return np.where(self.all_tied, 1.0 / (4.0 * n1 * n2), raw)
        return np.maximum(raw, 1.0 / (n1 * n1 * n2 * n2))


def _assemble(p, tau1, tau2, beta, var_wmw_raw, all_tied, sep_high, sep_low, n1, n2):
    tau0 = p - 0.25 * beta
    p2 = p * p
    sigma1_sq = n1 / (n1 - 1) * np.maximum(0.0, tau1 - p2)
    sigma2_sq = n2 / (n2 - 1) * np.maximum(0.0, tau2 - p2)
    denom = (n1 - 1) * (n2 - 1)
    sigma1n = (n2 * tau1 - 0.5 * tau0 - (n2 - 0.5) * p2) / denom
    sigma2n = (n1 * tau2 - 0.5 * tau0 - (n1 - 0.5) * p2) / denom
    return BatchMoments(
        n1=n1, n2=n2, p_hat=p, beta_hat=beta, tau0=tau0, tau1=tau1, tau2=tau2,
        sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq,
        sigma1n_sq=sigma1n, sigma2n_sq=sigma2n,
        var_wmw_raw=var_wmw_raw, all_tied=all_tied, sep_high=sep_high, sep_low=sep_low,
    )


def moments_from_values(x1: np.ndarray, x2: np.ndarray) -> BatchMoments:
    """Moments for a batch of datasets given as (reps, n1) and (reps, n2)."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    n1, n2 = x1.shape[1], x2.shape[1]
    n = n1 + n2
    pooled = np.concatenate([x1, x2], axis=1)
    rmin = rankdata(pooled, method="min", axis=1)
    rmax = rankdata(pooled, method="max", axis=1)
    ravg = 0.5 * (rmin + rmax)
    i1min = rankdata(x1, method="min", axis=1)
    i1max = rankdata(x1, method="max", axis=1)
    i2min = rankdata(x2, method="min", axis=1)
    i2max = rankdata(x2, method="max", axis=1)
    f2_at_x1 = (ravg[:, :n1] - 0.5 * (i1min + i1max)) / n2
    f1_at_x2 = (ravg[:, n1:] - 0.5 * (i2min + i2max)) / n1
    cross = (rmax[:, :n1] - rmin[:, :n1]) - (i1max - i1min)
    beta = cross.sum(axis=1) / (n1 * n2)
    var_wmw_raw = ((ravg - (n + 1) / 2.0) ** 2).sum(axis=1) / (n - 1) / (n * n1 * n2)
    all_tied = pooled.max(axis=1) == pooled.min(axis=1)
    sep_high = x1.max(axis=1) < x2.min(axis=1)
    sep_low = x2.max(axis=1) < x1.min(axis=1)
    p = f1_at_x2.mean(axis=1)
    tau1 = ((1.0 - f2_at_x1) ** 2).mean(axis=1)
    tau2 = (f1_at_x2**2).mean(axis=1)
    return _assemble(p, tau1, tau2, beta, var_wmw_raw, all_tied, sep_high, sep_low, n1, n2)


def moments_from_perm(arm1: np.ndarray, run_of: np.ndarray, sizes: np.ndarray) -> BatchMoments:
    """Moments for relabellings of one pooled sample, one row of arm-1 indices each.

    `run_of` maps each pooled index to its tie run and `sizes` lists the run
    sizes in increasing value order.  A row's moments depend only on `a`,
    its count of arm-1 members per run (`b = sizes - a` in arm 2).  With A
    and B the counts in lower runs, an arm-2 value in run r sits at
    2*n1*F1 = 2A + a and an arm-1 value at 2*n2*(1 - F2) = 2*n2 - 2B - b,
    so p, tau1, tau2 and beta are integer sums over runs, divided once:
    rows with the same arm-1 multiset get bit-identical moments.
    """
    m, n1 = arm1.shape
    n_runs = sizes.size
    n = int(sizes.sum())
    n2 = n - n1
    if 4 * n1 * n2 * max(n1, n2) >= 2**63:  # bounds every sum below
        raise ValueError(f"arms of {n1} and {n2} overflow the int64 permutation moments")
    keys = run_of[arm1.T] + np.arange(m) * n_runs  # arm1.T is contiguous as relabelled
    a = np.bincount(keys.ravel(), minlength=m * n_runs).reshape(m, n_runs)
    b = sizes - a
    below = np.cumsum(sizes) - sizes
    f1 = np.cumsum(a, axis=1)
    f1 *= 2
    f1 -= a
    g2 = f1 + (2 * (n2 - below) - sizes)
    s_p = np.einsum("ij,ij->i", b, f1)
    s_tau1 = np.einsum("ij,ij,ij->i", a, g2, g2)
    s_tau2 = np.einsum("ij,ij,ij->i", b, f1, f1)
    s_beta = np.einsum("ij,ij->i", a, b)
    # pooled mid-rank of run r is below + (size + 1) / 2
    var_wmw_raw = float(np.sum(sizes * (2 * below + sizes - n) ** 2)) / (4.0 * (n - 1) * n * n1 * n2)
    return _assemble(
        s_p / (2 * n1 * n2), s_tau1 / (4 * n1 * n2 * n2), s_tau2 / (4 * n1 * n1 * n2),
        s_beta / (n1 * n2), np.full(m, var_wmw_raw), np.full(m, n_runs == 1),
        s_p == 2 * n1 * n2, s_p == 0, n1, n2,
    )


def _df_arrays(m: BatchMoments, kind: DfKind) -> np.ndarray:
    n1, n2 = m.n1, m.n2
    if min(n1, n2) < MIN_ARM_SIZE[kind]:
        raise SizeTooSmall(f"{kind.value} needs at least {MIN_ARM_SIZE[kind]} per arm")
    if kind is DfKind.DF3:
        return np.full(m.p_hat.shape, 2.0 / (1.0 / (n1 - 1) + 1.0 / (n2 - 1)))
    if kind is DfKind.DF4:
        v1, v2 = m.sigma1n_sq, m.sigma2n_sq
        num = (v1 + v2) ** 2
        den = v1 * v1 / (n1 - 1) + v2 * v2 / (n2 - 1)
    else:
        shift = {DfKind.DF: 0, DfKind.DF1: 1, DfKind.DF2: 2}[kind]
        w1, w2 = n1 - shift, n2 - shift
        c1, c2 = w1 - 1, w2 - 1
        s1, s2 = m.sigma1_sq, m.sigma2_sq
        num = (s1 / w1 + s2 / w2) ** 2
        den = s1 * s1 / (w1 * w1 * c1) + s2 * s2 / (w2 * w2 * c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        df = num / den
    bad = ~np.isfinite(df) | (df <= 0.0)
    if np.any(bad):
        df = np.where(bad, fallback_df(n1, n2, kind), df)
    return df


def stat_arrays(m: BatchMoments, kind: TestKind) -> tuple[np.ndarray, np.ndarray | None]:
    """Statistic (and df array for t families) for every row of the batch."""
    if kind.family == "wmw":
        value = m.variance_value(VarianceKind.WMW)
        return (m.p_hat - 0.5) / np.sqrt(value), None
    value = m.variance_value(VarianceKind(kind.family.removesuffix("_logit")))
    p = m.p_eff
    if kind.is_logit:
        stat = p * (1.0 - p) * np.log(p / (1.0 - p)) / np.sqrt(value)
        return stat, None
    stat = (p - 0.5) / np.sqrt(value)
    df = _df_arrays(m, kind.df_kind)
    return stat, df


def p_value_arrays(stat: np.ndarray, df: np.ndarray | None) -> np.ndarray:
    """Two-sided p-values against the normal (df None) or t reference."""
    a = -np.abs(stat)
    if df is None:
        return np.minimum(1.0, 2.0 * ndtr(a))
    return np.minimum(1.0, 2.0 * stdtr(df, a))
