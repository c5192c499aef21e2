"""Degrees-of-freedom estimators for the small-sample t-approximation.

Five variants: the Satterthwaite-type formula (DF) and its small-sample
shifts (DF1, DF2), the data-free trace formula (DF3), and the split-variance
trace formula (DF4).  All return real-valued (non-integer) degrees of
freedom.

When both per-arm variance components vanish (all pooled values tied, or
completely separated arms) the displays are 0/0; the convention then is to
substitute equal positive variances, which collapses each formula to a
data-free fallback.

`degrees_of_freedom` evaluates each display once over the fields of an
`EffectSummary`: an array for a batch, a float for one dataset.
"""
from __future__ import annotations

import enum

import numpy as np

from .effect import EffectSummary
from .errors import SizeTooSmall

__all__ = ["DfKind", "degrees_of_freedom", "MIN_ARM_SIZE"]


class DfKind(str, enum.Enum):
    DF = "df"
    DF1 = "df1"
    DF2 = "df2"
    DF3 = "df3"
    DF4 = "df4"


# smallest per-arm size for which the display has a positive denominator
MIN_ARM_SIZE = {
    DfKind.DF: 2,
    DfKind.DF1: 3,
    DfKind.DF2: 4,
    DfKind.DF3: 2,
    DfKind.DF4: 2,
}


def _display(kind: DfKind, n1, n2, s1, s2, v1, v2):
    """The display of `kind` over the per-arm variances (s1, s2) or the split (v1, v2).

    Each display reads (a1 + a2)^2 / (a1^2/c1 + a2^2/c2).  It is evaluated
    over the shares a_i / (a1 + a2), so squares of tiny variances cannot
    underflow; it is NaN or infinite where a1 + a2 vanishes.
    """
    if kind is DfKind.DF4:
        a1, a2, c1, c2 = v1, v2, n1 - 1, n2 - 1
    else:
        shift = {DfKind.DF: 0, DfKind.DF1: 1, DfKind.DF2: 2}[kind]
        w1, w2 = n1 - shift, n2 - shift
        a1, a2, c1, c2 = s1 / w1, s2 / w2, w1 - 1, w2 - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        total = a1 + a2
        r1, r2 = np.divide(a1, total), np.divide(a2, total)
        return np.divide(1.0, r1 * r1 / c1 + r2 * r2 / c2)


def fallback_df(n1: int, n2: int, kind: DfKind) -> float:
    """Fallback value of each display under equal positive variance components."""
    if kind is DfKind.DF:
        return (n1 + n2) ** 2 * (n1 - 1) * (n2 - 1) / (
            n1 * n1 * (n1 - 1) + n2 * n2 * (n2 - 1)
        )
    if kind in (DfKind.DF1, DfKind.DF2):
        return float(_display(kind, n1, n2, 1.0, 1.0, 1.0, 1.0))
    if kind is DfKind.DF3:
        return 2.0 / (1.0 / (n1 - 1) + 1.0 / (n2 - 1))
    if kind is DfKind.DF4:
        return 4.0 * (n1 - 1) * (n2 - 1) / (n1 + n2 - 2)
    raise ValueError(f"unknown df kind: {kind!r}")


def degrees_of_freedom(m: EffectSummary, kind: DfKind):
    """Degrees of freedom of `kind`: an array for a batch, a float for one dataset."""
    kind = DfKind(kind)
    n1, n2 = m.n1, m.n2
    need = MIN_ARM_SIZE[kind]
    if min(n1, n2) < need:
        raise SizeTooSmall(
            f"{kind.value} needs at least {need} observations per arm, got ({n1}, {n2})"
        )
    if kind is DfKind.DF3:
        return np.full(np.shape(m.p_hat), fallback_df(n1, n2, kind))[()]
    df = _display(kind, n1, n2, m.sigma1_sq, m.sigma2_sq, m.sigma1_given_n_sq, m.sigma2_given_n_sq)
    ok = np.isfinite(df) & (df > 0.0)
    return df if ok.all() else np.where(ok, df, fallback_df(n1, n2, kind))[()]
