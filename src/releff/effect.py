"""Relative-effect estimate and the moment quantities all variances consume.

`estimate_effect` returns every plug-in moment of one dataset:

* ``p_hat``     -- P(X1 < X2) + P(X1 = X2)/2 estimated over all cross pairs,
* ``beta_hat``  -- fraction of cross pairs exactly tied,
* ``tau0/1/2``  -- the second-moment integrals of the empirical CDFs,
* ``sigma1_sq, sigma2_sq``          -- per-arm variances of the placements,
* ``sigma1_given_n_sq, sigma2_given_n_sq`` -- the symmetric split of the
  unbiased variance estimator used by the trace-type degrees of freedom.

The values are the one row of `TwoSamples.moments`, which the tie-run count
kernel computes once per instance in O(N log N) time and O(N) memory.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from ._batch import MomentFlags
from .ranks import TwoSamples, mid_ranks

__all__ = ["EffectSummary", "estimate_effect", "p_hat_via_ranks"]


@dataclass(frozen=True)
class EffectSummary(MomentFlags):
    n1: int
    n2: int
    p_hat: float
    beta_hat: float
    tau0_hat: float
    tau1_hat: float
    tau2_hat: float
    sigma1_sq: float
    sigma2_sq: float
    sigma1_given_n_sq: float
    sigma2_given_n_sq: float


_MOMENTS = [f.name for f in fields(EffectSummary)][2:]


def estimate_effect(data: TwoSamples) -> EffectSummary:
    """Estimate the relative effect and all moment quantities from two arms.

    Each arm needs at least 2 observations.
    """
    data.require_min_size(2)
    m = data.moments
    return EffectSummary(data.n1, data.n2, *(float(getattr(m, name)[0]) for name in _MOMENTS))


def p_hat_via_ranks(data: TwoSamples) -> float:
    """Effect estimate from pooled mid-rank means: (R2bar - R1bar)/N + 1/2."""
    n1, n2 = data.n1, data.n2
    r = mid_ranks(data.pooled())
    return float((r[n1:].mean() - r[:n1].mean()) / (n1 + n2) + 0.5)
