"""Relative-effect estimate and the moment quantities all variances consume.

`estimate_effect` returns every plug-in moment of one dataset:

* ``p_hat``     -- P(X1 < X2) + P(X1 = X2)/2 estimated over all cross pairs,
* ``beta_hat``  -- fraction of cross pairs exactly tied,
* ``tau0/1/2``  -- the second-moment integrals of the empirical CDFs,
* ``sigma1_sq, sigma2_sq``          -- per-arm variances of the placements,
* ``sigma1_given_n_sq, sigma2_given_n_sq`` -- the symmetric split of the
  unbiased variance estimator used by the trace-type degrees of freedom,
* ``var_wmw_raw`` -- the rank-test variance before its all-tied floor.

The summary is `TwoSamples.moments`, which the tie-run count kernel
computes once per instance in O(N log N) time and O(N) memory.  A batch of
datasets gets the same `EffectSummary` type with one array row per dataset
(`_batch.moments_from_values`); the variance, df and statistic formulas read
either.
"""
from __future__ import annotations

from ._batch import EffectSummary
from .ranks import TwoSamples

__all__ = ["EffectSummary", "estimate_effect"]


def estimate_effect(data: TwoSamples) -> EffectSummary:
    """Estimate the relative effect and all moment quantities from two arms.

    Each arm needs at least 2 observations (`SizeTooSmall` otherwise).
    """
    return data.moments
