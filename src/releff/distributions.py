"""Distribution specs for the simulation study: sampling and exact effects.

Four families cover every scenario in the reproduction tables: normal,
exponential, binomial (Bernoulli via one trial) and the latent-Beta K-point
ordinal distribution (a Beta variate cut at an equally spaced grid into K
categories, encoded as 1.0..K).

`sample(spec, u)` maps open uniforms to values by inverse CDF: `ndtri` for
the normal, `-log(u)/rate` for the exponential and, for the two discrete
families, the support value at `index(spec, u)`, a search over the
cumulative masses.  A Monte Carlo chunk of a discrete pair keeps the
indices and never builds the values.  Besides sampling, the
module computes the exact moments (p, beta, tau0, tau1, tau2) of a pair of
specs (`exact_moments`: finite sums for discrete pairs, adaptive
quadrature for continuous pairs, cached per pair), the exact relative
effect p (closed forms for a normal or exponential pair, `exact_moments`
otherwise) and the population variance of the effect estimate, and
calibrates a free parameter to hit a target effect.

Only numpy and `scipy.special` load with the module; Binomial masses are
`binom(n, k) p^k (1 - p)^(n - k)` from `scipy.special`.  The heavier scipy
modules load on first use: `_continuous_moments` (the exact moments of an
unequal continuous pair) imports `scipy.integrate`, and
`solve_target_effect` imports `scipy.optimize`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import betainc, binom, ndtr, ndtri

from .errors import ConfigError, NoBracket, UnsupportedPair

__all__ = [
    "Normal",
    "Exponential",
    "Binomial",
    "BetaLatent",
    "DistSpec",
    "parse_dist",
    "dist_label",
    "sample",
    "index",
    "discrete_masses",
    "is_continuous",
    "exact_mw_parameter",
    "exact_moments",
    "population_variance",
    "solve_target_effect",
]


@dataclass(frozen=True)
class Normal:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError("sd must be > 0")


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be > 0")


@dataclass(frozen=True)
class Binomial:
    trials: int
    prob: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.prob < 1.0:
            raise ValueError("prob must lie in (0, 1)")


@dataclass(frozen=True)
class BetaLatent:
    """K ordered categories with masses P((k-1)/K <= Y < k/K), Y ~ Beta(alpha, beta)."""

    alpha: float
    beta: float
    k: int = 5

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("shape parameters must be > 0")
        if self.k < 2:
            raise ValueError("need at least 2 categories")


DistSpec = Union[Normal, Exponential, Binomial, BetaLatent]

_NUM = r"([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"
_PATTERNS = [
    (re.compile(rf"^N\({_NUM},{_NUM}\)$"), lambda g: Normal(float(g[0]), float(g[1]))),
    (re.compile(rf"^E\({_NUM}\)$"), lambda g: Exponential(float(g[0]))),
    (re.compile(rf"^B\(([0-9]+),{_NUM}\)$"), lambda g: Binomial(int(g[0]), float(g[1]))),
    (
        re.compile(rf"^BL\({_NUM},{_NUM},([0-9]+)\)$"),
        lambda g: BetaLatent(float(g[0]), float(g[1]), int(g[2])),
    ),
]


def parse_dist(text: str) -> DistSpec:
    """Parse labels like "N(0,1)", "E(1)", "B(5,0.6)", "BL(5,4,5)"."""
    if not isinstance(text, str):
        raise ConfigError(f"distribution spec must be a string, got {text!r}")
    s = text.strip().replace(" ", "").upper()
    for pattern, build in _PATTERNS:
        m = pattern.match(s)
        if m:
            return build(m.groups())
    raise ValueError(f"cannot parse distribution spec: {text!r}")


def _fmt(x: float) -> str:
    return format(x, "g")


def dist_label(spec: DistSpec) -> str:
    if isinstance(spec, Normal):
        return f"N({_fmt(spec.mean)},{_fmt(spec.sd)})"
    if isinstance(spec, Exponential):
        return f"E({_fmt(spec.rate)})"
    if isinstance(spec, Binomial):
        return f"B({spec.trials},{_fmt(spec.prob)})"
    return f"BL({_fmt(spec.alpha)},{_fmt(spec.beta)},{spec.k})"


def is_continuous(spec: DistSpec) -> bool:
    return isinstance(spec, (Normal, Exponential))


# largest discrete support `index` searches by comparisons, not `searchsorted`
_COMPARE_MAX_VALUES = 8


def sample(spec: DistSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Values of the spec at open uniforms u (any shape), by inverse CDF.

    Given `out`, an array of u's shape (u itself, to sample in place), the
    values are written there and `out` is returned.  The bits are those of
    mean + sd * ndtri(u) and -log(u) / rate either way: each step rounds
    once, and IEEE multiplication and addition commute.
    """
    if isinstance(spec, Normal):
        x = ndtri(u, out=out)
        x *= spec.sd
        x += spec.mean
        return x
    if isinstance(spec, Exponential):
        x = np.negative(np.log(u, out=out), out=out)
        x /= spec.rate
        return x
    return np.take(discrete_masses(spec)[0], index(spec, u), out=out)


def index(spec: DistSpec, u: np.ndarray) -> np.ndarray:
    """Positions in `discrete_masses(spec)[0]` of a discrete spec's values at open uniforms u."""
    edges = _cumulative_masses(spec)
    if edges.size >= _COMPARE_MAX_VALUES:
        return np.searchsorted(edges, u, side="right")
    # the number of edges <= u is searchsorted's index, found faster by
    # comparisons when there are only a few edges: each reads a C-ordered
    # copy of u once, and the counts (< _COMPARE_MAX_VALUES) add up in uint8
    u = np.asarray(u, order="C")
    idx = np.zeros(u.shape, dtype=np.uint8)
    for edge in edges:
        idx += (u >= edge).view(np.uint8)
    return idx.astype(np.intp)


@lru_cache(maxsize=256)
def discrete_masses(spec: DistSpec) -> tuple[np.ndarray, np.ndarray]:
    """Support values and probabilities of a discrete spec.

    Cached per spec (specs are frozen, hence hashable), so the arrays are
    read-only.
    """
    if isinstance(spec, Binomial):
        n, p = spec.trials, spec.prob
        k = np.arange(n + 1)
        masses = k.astype(float), binom(n, k) * p**k * (1.0 - p) ** (n - k)
    elif isinstance(spec, BetaLatent):
        grid = np.arange(spec.k + 1) / spec.k
        cdf = betainc(spec.alpha, spec.beta, grid)
        masses = np.arange(1, spec.k + 1, dtype=float), np.diff(cdf)
    else:
        raise UnsupportedPair(f"{dist_label(spec)} is not discrete")
    for a in masses:
        a.flags.writeable = False
    return masses


@lru_cache(maxsize=256)
def _cumulative_masses(spec: DistSpec) -> np.ndarray:
    """The cumulative masses of a discrete spec but the last, read-only, cached per spec."""
    edges = np.cumsum(discrete_masses(spec)[1])[:-1]
    edges.flags.writeable = False
    return edges


def _cdf_pdf(spec: DistSpec) -> tuple[Callable, Callable]:
    if isinstance(spec, Normal):
        mu, sd = spec.mean, spec.sd
        return (
            lambda x: ndtr((x - mu) / sd),
            lambda x: np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * np.sqrt(2 * np.pi)),
        )
    if isinstance(spec, Exponential):
        lam = spec.rate
        return (
            lambda x: np.where(x > 0, 1.0 - np.exp(-lam * np.maximum(x, 0.0)), 0.0),
            lambda x: np.where(x > 0, lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0),
        )
    raise UnsupportedPair(f"{dist_label(spec)} is not continuous")


def _support(spec: DistSpec) -> tuple[float, float]:
    return (-np.inf, np.inf) if isinstance(spec, Normal) else (0.0, np.inf)


def _discrete_moments(d1: DistSpec, d2: DistSpec):
    v1, f1 = discrete_masses(d1)
    v2, f2 = discrete_masses(d2)
    # normalized F1 and S2 on the respective supports
    c = (v2[:, None] > v1[None, :]) + 0.5 * (v2[:, None] == v1[None, :])
    p = float(f2 @ c @ f1)
    beta = float(f2 @ (v2[:, None] == v1[None, :]) @ f1)
    cdf1_at_v2 = c @ f1                       # F1(v2j), normalized
    surv2_at_v1 = f2 @ c                      # S2(v1i), normalized
    tau1 = float(surv2_at_v1**2 @ f1)
    tau2 = float(cdf1_at_v2**2 @ f2)
    return p, beta, tau1, tau2


def _continuous_moments(d1: DistSpec, d2: DistSpec):
    from scipy import integrate

    cdf1, pdf1 = _cdf_pdf(d1)
    cdf2, pdf2 = _cdf_pdf(d2)
    lo1, hi1 = _support(d1)
    lo2, hi2 = _support(d2)
    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    p = integrate.quad(lambda y: cdf1(y) * pdf2(y), lo2, hi2, **opts)[0]
    tau1 = integrate.quad(lambda x: (1.0 - cdf2(x)) ** 2 * pdf1(x), lo1, hi1, **opts)[0]
    tau2 = integrate.quad(lambda y: cdf1(y) ** 2 * pdf2(y), lo2, hi2, **opts)[0]
    return float(p), 0.0, float(tau1), float(tau2)


@lru_cache(maxsize=256)
def exact_moments(d1: DistSpec, d2: DistSpec):
    """Exact (p, beta, tau0, tau1, tau2) for a pair of specs.

    Cached per pair (specs are frozen, hence hashable), so a table
    integrates each distinct pair once however many sizes it runs.
    """
    if is_continuous(d1) and is_continuous(d2):
        p, beta, tau1, tau2 = _continuous_moments(d1, d2)
    elif not is_continuous(d1) and not is_continuous(d2):
        p, beta, tau1, tau2 = _discrete_moments(d1, d2)
    else:
        raise UnsupportedPair("mixed continuous/discrete pairs are not supported")
    return p, beta, p - 0.25 * beta, tau1, tau2


def exact_mw_parameter(d1: DistSpec, d2: DistSpec) -> float:
    """Exact relative effect p = P(X1 < X2) + P(X1 = X2)/2: a closed form for a
    normal or an exponential pair, `exact_moments` (cached) for any other."""
    if isinstance(d1, Normal) and isinstance(d2, Normal):
        return float(ndtr((d2.mean - d1.mean) / np.hypot(d1.sd, d2.sd)))
    if isinstance(d1, Exponential) and isinstance(d2, Exponential):
        return d1.rate / (d1.rate + d2.rate)
    return exact_moments(d1, d2)[0]


def population_variance(d1: DistSpec, d2: DistSpec, n1: int, n2: int) -> float:
    """Exact variance of the effect estimate for samples of sizes n1, n2."""
    if d1 == d2 and is_continuous(d1):
        return (n1 + n2 + 1) / (12.0 * n1 * n2)
    p, _, tau0, tau1, tau2 = exact_moments(d1, d2)
    return (tau0 + (n2 - 1) * tau1 + (n1 - 1) * tau2 - (n1 + n2 - 1) * p * p) / (n1 * n2)


def solve_target_effect(
    make_dist: Callable[[float], DistSpec],
    reference: DistSpec,
    target_p: float,
    bracket: tuple[float, float],
    tol: float = 1e-6,
) -> float:
    """Free parameter value such that p(make_dist(theta), reference) = target_p.

    Root-finds p(theta) - target_p over the bracket; the effect must be
    monotone in the parameter there.  The returned parameter reproduces the
    target effect to within `tol`.
    """
    from scipy.optimize import brentq

    def gap(theta: float) -> float:
        return exact_mw_parameter(make_dist(theta), reference) - target_p

    lo, hi = bracket
    glo, ghi = gap(lo), gap(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise NoBracket(
            f"target effect {target_p} not bracketed on [{lo}, {hi}] "
            f"(gap endpoints {glo:.4g}, {ghi:.4g})"
        )
    theta = brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16)
    if abs(gap(theta)) > tol:
        raise NoBracket(f"root refinement failed: residual {gap(theta):.3g} > {tol}")
    return float(theta)
