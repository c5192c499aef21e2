"""Test statistics for H0: p = 1/2 and their reference distributions.

Seven statistics: the rank-test z statistic (wmw), three t-approximated
statistics (n, bm, pm, each carrying a degrees-of-freedom variant, default
df2) and their logit delta-method counterparts (n_logit, bm_logit, pm_logit),
which are compared to the standard normal.

Degenerate inputs never produce NaN: for completely separated arms the
effect estimate is moved off the boundary and the floored variance is used,
so the statistics stay finite (and the logit stays defined); for all-tied
data every statistic is exactly zero.

The statistic and the p-value are written once, over the fields of an
`EffectSummary`: `stat_arrays` and `p_value_arrays` score a batch (arrays)
or one dataset (floats), and `run_test` is those two calls on the dataset's
cached summary plus the `degeneracy` flag of its variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri, stdtr

from .dof import DfKind, degrees_of_freedom
from .effect import EffectSummary, estimate_effect
from .errors import DomainError
from .ranks import TwoSamples
from .variance import Degeneracy, VarianceKind, degeneracy, floored, variance_raw

__all__ = [
    "TestKind",
    "TestResult",
    "run_test",
    "stat_arrays",
    "p_value_arrays",
    "normal_cdf",
    "t_cdf",
    "normal_quantile",
    "T_FAMILIES",
    "LOGIT_FAMILIES",
    "FAMILIES",
    "DEFAULT_BATTERY",
]

T_FAMILIES = ("n", "bm", "pm")
LOGIT_FAMILIES = ("n_logit", "bm_logit", "pm_logit")
FAMILIES = ("wmw",) + T_FAMILIES + LOGIT_FAMILIES


@dataclass(frozen=True)
class TestKind:
    """A test statistic choice; t-approximated families carry a DfKind."""

    family: str
    df_kind: DfKind | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown test family: {self.family!r}")
        if self.family in T_FAMILIES:
            if self.df_kind is None:
                object.__setattr__(self, "df_kind", DfKind.DF2)
            else:
                object.__setattr__(self, "df_kind", DfKind(self.df_kind))
        elif self.df_kind is not None:
            raise ValueError(f"{self.family} does not take degrees of freedom")

    @property
    def uses_t(self) -> bool:
        return self.family in T_FAMILIES

    @property
    def is_logit(self) -> bool:
        return self.family in LOGIT_FAMILIES

    @property
    def variance_kind(self) -> VarianceKind:
        return VarianceKind(self.family.removesuffix("_logit"))

    def label(self) -> str:
        if self.uses_t:
            return f"{self.family}:{self.df_kind.value}"
        return self.family

    @classmethod
    def parse(cls, text: str) -> "TestKind":
        """Parse labels like "wmw", "pm", "pm:df2", "bm_logit"."""
        text = text.strip().lower()
        if ":" in text:
            family, df = text.split(":", 1)
            return cls(family, DfKind(df))
        return cls(text)


DEFAULT_BATTERY = tuple(
    TestKind.parse(s) for s in ("wmw", "n:df2", "bm:df2", "pm:df2", "n_logit", "bm_logit", "pm_logit")
)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: float | None
    p_value: float
    kind: TestKind
    degenerate: Degeneracy
    effect: EffectSummary


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    if not math.isfinite(x):
        raise DomainError("normal_cdf needs a finite argument")
    return float(ndtr(x))


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with real-valued df > 0."""
    if df <= 0 or not math.isfinite(df):
        raise DomainError(f"t_cdf needs df > 0, got {df}")
    if not math.isfinite(x):
        raise DomainError("t_cdf needs a finite argument")
    return float(stdtr(df, x))


def normal_quantile(q: float) -> float:
    """Standard normal quantile; q must lie strictly inside (0, 1)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal_quantile needs 0 < q < 1, got {q}")
    return float(ndtri(q))


def _statistic(m: EffectSummary, variance_value, kind: TestKind):
    """The statistic from moments and a positive variance, for a batch or one dataset.

    The rank-test statistic uses the untouched effect estimate; the others use
    the boundary-adjusted estimate so that separated arms give finite values.
    """
    sd = np.sqrt(variance_value)
    if kind.family == "wmw":
        return (m.p_hat - 0.5) / sd
    p = m.p_hat_adjusted
    if kind.is_logit:
        return p * (1.0 - p) * np.log(p / (1.0 - p)) / sd
    return (p - 0.5) / sd


def stat_arrays(m: EffectSummary, kind: TestKind):
    """Statistic and df (None for normal references): arrays for a batch, floats for one dataset."""
    vk = kind.variance_kind
    stat = _statistic(m, floored(m, vk, variance_raw(m, vk)), kind)
    return stat, degrees_of_freedom(m, kind.df_kind) if kind.uses_t else None


def p_value_arrays(stat, df, alternative: str = "two-sided"):
    """p-values against the normal (df None) or t reference, for arrays or scalars."""
    cdf = ndtr if df is None else partial(stdtr, df)
    if alternative == "greater":
        return cdf(-stat)
    if alternative == "less":
        return cdf(stat)
    return np.minimum(1.0, 2.0 * cdf(-np.abs(stat)))


def run_test(data: TwoSamples, kind: TestKind, alternative: str = "two-sided") -> TestResult:
    """Run one test of H0: p = 1/2 on two samples.

    Parameters
    ----------
    data : TwoSamples
    kind : TestKind
        Which statistic to compute; t families use their attached DfKind.
    alternative : {"two-sided", "greater", "less"}
        Tail of the test. Only the two-sided version is exercised by the
        reproduction suite.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative: {alternative!r}")
    es = estimate_effect(data)
    stat, df = stat_arrays(es, kind)
    vk = kind.variance_kind
    return TestResult(
        statistic=float(stat),
        df=None if df is None else float(df),
        p_value=float(p_value_arrays(stat, df, alternative)),
        kind=kind,
        degenerate=degeneracy(es, vk, variance_raw(es, vk)),
        effect=es,
    )
