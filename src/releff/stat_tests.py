"""Test statistics for H0: p = 1/2 and their reference distributions.

Seven statistics: the rank-test z statistic (wmw), three t-approximated
statistics (n, bm, pm, each carrying a degrees-of-freedom variant, default
df2) and their logit delta-method counterparts (n_logit, bm_logit, pm_logit),
which are compared to the standard normal.

Degenerate inputs never produce NaN: for completely separated arms the
effect estimate is moved off the boundary and the floored variance is used,
so the statistics stay finite (and the logit stays defined); for all-tied
data every statistic is exactly zero.

A battery is scored in one call over the fields of an `EffectSummary`, for
a batch (arrays) or one dataset (floats): `statistics` computes each distinct
floored sd and numerator once, and `stat_arrays` adds each distinct df kind
once.  `run_test` is `stat_arrays` and `p_value_arrays` on the dataset's
cached summary plus the `degeneracy` flag of its variance; `variance_raw`
keeps each raw variance on the summary, so the tests of a battery on one
dataset and their flags share one computation per kind.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.special import ndtr, stdtr

from ._batch import EffectSummary
from .dof import DfKind, degrees_of_freedom
from .errors import ConfigError
from .ranks import TwoSamples, estimate_effect
from .variance import Degeneracy, VarianceKind, degeneracy, floored, variance_raw

__all__ = [
    "TestKind",
    "TestResult",
    "run_test",
    "statistics",
    "stat_arrays",
    "p_value_arrays",
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
            df = DfKind.DF2 if self.df_kind is None else self.df_kind
            object.__setattr__(self, "df_kind", DfKind(df))
        elif self.df_kind is not None:
            raise ValueError(f"{self.family} does not take degrees of freedom")

    @property
    def uses_t(self) -> bool:
        return self.family in T_FAMILIES

    @property
    def is_logit(self) -> bool:
        return self.family in LOGIT_FAMILIES

    @cached_property
    def variance_kind(self) -> VarianceKind:
        return VarianceKind(self.family.removesuffix("_logit"))

    def label(self) -> str:
        return f"{self.family}:{self.df_kind.value}" if self.uses_t else self.family

    @classmethod
    def parse(cls, text: str) -> "TestKind":
        """Parse labels like "wmw", "pm", "pm:df2", "pm : df2", "bm_logit"."""
        if not isinstance(text, str):
            raise ConfigError(f"test label must be a string, got {text!r}")
        text = text.strip().lower()
        if ":" in text:
            family, df = (part.strip() for part in text.split(":", 1))
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


def _numerator(m: EffectSummary, shape: str):
    """The numerator of the rank test ("wmw"), the t families ("t") or the logits ("logit")."""
    if shape == "wmw":
        return m.p_hat - 0.5
    p = m.p_hat_adjusted
    if shape == "logit":
        return p * (1.0 - p) * np.log(p / (1.0 - p))
    return p - 0.5


def statistics(m: EffectSummary, kinds) -> list:
    """One statistic per kind: arrays for a batch, floats for one dataset.

    Each distinct floored sd and numerator is computed once.  All but the
    rank test use the boundary-adjusted estimate, so separated arms stay finite.
    """
    sd, num, stats = {}, {}, []
    for kind in kinds:
        vk = kind.variance_kind
        shape = "wmw" if kind.family == "wmw" else "logit" if kind.is_logit else "t"
        if vk not in sd:
            sd[vk] = np.sqrt(floored(m, vk, variance_raw(m, vk)))
        if shape not in num:
            num[shape] = _numerator(m, shape)
        stats.append(num[shape] / sd[vk])
    return stats


def stat_arrays(m: EffectSummary, kinds) -> list:
    """(statistic, df) per kind, df None for normal references; each distinct df kind once."""
    df = {None: None}
    for kind in kinds:
        if kind.df_kind not in df:
            df[kind.df_kind] = degrees_of_freedom(m, kind.df_kind)
    return [(stat, df[kind.df_kind]) for stat, kind in zip(statistics(m, kinds), kinds)]


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
    [(stat, df)] = stat_arrays(es, [kind])
    return TestResult(
        statistic=float(stat),
        df=None if df is None else float(df),
        p_value=float(p_value_arrays(stat, df, alternative)),
        kind=kind,
        degenerate=degeneracy(es, kind.variance_kind, variance_raw(es, kind.variance_kind)),
        effect=es,
    )
