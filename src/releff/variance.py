"""Variance estimators for the relative-effect estimate.

Four main estimators (the classical rank-test variance, the unbiased
estimator, the Brunner-Munzel / DeLong estimator and the Perme-Manevski
"exact" estimator) plus Shirahata's four continuous-data estimators, each in
its general plus/minus-ECDF form and its continuity-reduced form, both one
display over an `EffectSummary` of the count kernel (see `var_shirahata`).

Degenerate inputs are handled the same way throughout:

* all pooled values tied  -> the rank-test variance is replaced by
  1/(4*n1*n2); the others fall back to the generic floor;
* completely separated arms -> variances collapse to zero and are floored at
  1/(n1^2*n2^2), the value a single interleaved observation would produce;
* otherwise a raw estimate below the floor is lifted to the floor.

The returned ``value`` is therefore always strictly positive.

`variance_raw` and `floored` are written once over the fields of an
`EffectSummary`, so they take a batch (arrays) or one dataset (floats)
alike, and `variance_raw` keeps each kind's estimate on the summary.  The
`var_*` functions wrap them for one dataset and add the flag `degeneracy`
reads off the summary, the same flag `run_test` reports.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from ._batch import EffectSummary
from .errors import SizeTooSmall, TiesInReducedForm
from .ranks import TwoSamples

__all__ = [
    "VarianceKind",
    "Degeneracy",
    "ShirahataKind",
    "ShirahataForm",
    "VarianceEstimate",
    "generic_floor",
    "var_wmw",
    "var_unbiased",
    "var_bm",
    "var_pm",
    "var_shirahata",
    "variance_raw",
    "floored",
    "degeneracy",
]


class VarianceKind(str, enum.Enum):
    WMW = "wmw"
    N = "n"
    BM = "bm"
    PM = "pm"
    SH_U = "sh_u"
    SH_B = "sh_b"
    SH_FP = "sh_fp"
    SH_J = "sh_j"


class Degeneracy(str, enum.Enum):
    NONE = "none"
    ALL_TIED = "all_tied"
    SEPARATED = "separated"
    FLOORED = "floored"


class ShirahataKind(str, enum.Enum):
    U = "u"    # unbiased
    B = "b"    # bootstrap
    FP = "fp"  # Fligner-Policello
    J = "j"    # jackknife


class ShirahataForm(str, enum.Enum):
    GENERAL = "general"
    CONTINUOUS_REDUCED = "continuous_reduced"


@dataclass(frozen=True)
class VarianceEstimate:
    kind: VarianceKind
    raw: float
    value: float
    degenerate: Degeneracy = Degeneracy.NONE


def generic_floor(n1: int, n2: int) -> float:
    """Lower bound 1/(n1^2 n2^2) applied to the non-rank-test estimators."""
    return 1.0 / (n1 * n1 * n2 * n2)


def variance_raw(m: EffectSummary, kind: VarianceKind):
    """Raw estimate of `kind` from the moments of a batch or of one dataset.

    Computed on the first call for a summary and kept on it, so every reader
    of one summary (the statistics of a battery, their `degeneracy` flags,
    the `var_*` wrappers, a Monte Carlo chunk's mean-variance columns) shares
    one computation.
    """
    cache = m._raw_variances
    if kind not in cache:
        cache[kind] = _raw_estimate(m, kind)
    return cache[kind]


def _raw_estimate(m: EffectSummary, kind: VarianceKind):
    n1, n2 = m.n1, m.n2
    if kind is VarianceKind.WMW:
        return m.var_wmw_raw
    if kind is VarianceKind.N:
        # Shirahata's U display in its tie-aware reduced form
        return _shirahata_display(ShirahataKind.U, m)
    if kind is VarianceKind.BM:
        return m.sigma1_sq / n1 + m.sigma2_sq / n2
    if kind is VarianceKind.PM:
        p = m.p_hat
        return (p * (1.0 - p) + (n2 - 1) * m.sigma1_sq + (n1 - 1) * m.sigma2_sq) / (n1 * n2)
    raise ValueError(f"no moment formula for variance kind {kind!r}")


def floored(m: EffectSummary, kind: VarianceKind, raw):
    """The raw estimate with the degenerate-sample floors applied; always > 0."""
    if kind is VarianceKind.WMW:
        return np.where(m.all_tied, 1.0 / (4.0 * m.n1 * m.n2), raw)
    return np.maximum(raw, generic_floor(m.n1, m.n2))


def degeneracy(es: EffectSummary, kind: VarianceKind, raw: float) -> Degeneracy:
    """Which degenerate-sample rule, if any, sets one dataset's estimate of `kind`."""
    if es.all_tied:
        return Degeneracy.ALL_TIED
    if kind is VarianceKind.WMW:
        return Degeneracy.NONE
    if es.separated:
        return Degeneracy.SEPARATED
    if raw < generic_floor(es.n1, es.n2):
        return Degeneracy.FLOORED
    return Degeneracy.NONE


def _estimate(kind: VarianceKind, raw, es: EffectSummary) -> VarianceEstimate:
    return VarianceEstimate(kind=kind, raw=float(raw), value=float(floored(es, kind, raw)),
                            degenerate=degeneracy(es, kind, raw))


def _main_estimate(es: EffectSummary, kind: VarianceKind) -> VarianceEstimate:
    if min(es.n1, es.n2) < 2:
        raise SizeTooSmall("variance estimation needs at least 2 observations per arm")
    return _estimate(kind, variance_raw(es, kind), es)


def var_wmw(data: TwoSamples) -> VarianceEstimate:
    """Rank-test variance of p_hat (valid under equal distributions).

    sigma_R^2 = sum (R_gi - (N+1)/2)^2 / (N-1), divided by N*n1*n2; this is
    identical to N^3/(N-1) * (int F^2 dF - 1/4) / (N*n1*n2) for every tie
    pattern.  If all N values coincide the raw estimate is zero and the value
    1/(4*n1*n2) is substituted.
    """
    return _main_estimate(data.moments, VarianceKind.WMW)


def var_unbiased(es: EffectSummary) -> VarianceEstimate:
    """Unbiased variance estimator, consistent for arbitrary distributions."""
    return _main_estimate(es, VarianceKind.N)


def var_bm(es: EffectSummary) -> VarianceEstimate:
    """Brunner-Munzel (equivalently DeLong) variance: s1^2/n1 + s2^2/n2."""
    return _main_estimate(es, VarianceKind.BM)


def var_pm(es: EffectSummary) -> VarianceEstimate:
    """Perme-Manevski variance: [p(1-p) + (n2-1)s1^2 + (n1-1)s2^2]/(n1 n2).

    For all-tied data the raw value is already the positive 1/(4*n1*n2); for
    separated arms the raw value is zero and the generic floor applies (a
    documented stand-in for the original authors' unspecified interval
    construction).
    """
    return _main_estimate(es, VarianceKind.PM)


def _shirahata_display(kind: ShirahataKind, m: EffectSummary):
    """Shirahata's four displays in their reduced form, read off (tau1, tau2, tau0, p)."""
    n1, n2 = m.n1, m.n2
    n = n1 + n2
    s1, s2, t, u2 = m.tau1_hat, m.tau2_hat, m.tau0_hat, m.p_hat * m.p_hat
    if kind is ShirahataKind.U:
        return (n2 * s1 + n1 * s2 - t - (n - 1) * u2) / ((n1 - 1) * (n2 - 1))
    if kind is ShirahataKind.B:
        return ((n2 - 1) * s1 + (n1 - 1) * s2 + t - (n - 1) * u2) / (n1 * n2)
    if kind is ShirahataKind.FP:
        return s1 / n1 + s2 / n2 - (t + (n + 1) * u2) / (n1 * n2)
    if kind is ShirahataKind.J:
        return s1 / (n1 - 1) + s2 / (n2 - 1) - (n - 2) * u2 / ((n1 - 1) * (n2 - 1))
    raise ValueError(f"unknown Shirahata kind: {kind!r}")


def var_shirahata(
    data: TwoSamples,
    kind: ShirahataKind,
    form: ShirahataForm = ShirahataForm.GENERAL,
) -> VarianceEstimate:
    """Shirahata-family variance estimator.

    The general form is valid for any tie pattern: it is the reduced display
    on the same data with every cross-arm tie broken arm 1 first, where the
    mid-ECDFs are Shirahata's plus/minus-ECDFs and beta is zero.  Each tie
    run with a arm-1 and b arm-2 members becomes a run of a arm-1 members
    followed by a run of b arm-2 members, and the count kernel reads the
    moments off those runs (`TwoSamples.plus_minus`, cached with the run
    count, so every call on one dataset shares one sort).  The
    continuity-reduced form reads the data's own moments and is only
    equivalent on tie-free data; requesting it on tied data emits a
    ``TiesInReducedForm`` warning.  On tie-free data the general U form
    coincides with the unbiased estimator and the general J form with the
    Brunner-Munzel estimator.
    """
    kind = ShirahataKind(kind)
    form = ShirahataForm(form)
    # before data.moments, so that one sort fills both summaries
    split, n_runs = data.plus_minus
    es = data.moments
    if form is ShirahataForm.GENERAL:
        raw = _shirahata_display(kind, split)
    else:
        if n_runs < data.n:
            warnings.warn(
                "continuity-reduced Shirahata form evaluated on tied data",
                TiesInReducedForm,
                stacklevel=2,
            )
        raw = _shirahata_display(kind, es)
    return _estimate(VarianceKind(f"sh_{kind.value}"), raw, es)
