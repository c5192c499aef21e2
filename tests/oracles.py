"""Independent oracles for the library's tie-run count kernel.

`pairwise_moments` evaluates the effect moments from their pairwise
definitions over the n2 x n1 matrix of counts.  It costs O(n1*n2) time and
memory and shares no code with the library, which never builds that matrix.
The count functions, ECDF flavours, mid-ranks, the rank form of the effect
and the scalar Fisher-Yates `shuffle` are the textbook definitions the
estimators and the permutation relabel are checked against, and
`hypergeometric_law` is the exact law, as `Fraction`s, that the drawn
per-run counts of a permutation draw must follow, and `cdf_row` the
conditional CDF row a count lane draws one run's count from, built from
exact integer weights.  `statistic`
scores one test kind alone, from the library's variance formulas; the
battery scorer, which shares sds and numerators across kinds, must
reproduce it bit for bit.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.stats import rankdata

from releff.variance import floored, variance_raw


def pairwise_moments(x1, x2):
    """(p, beta, tau1, tau2) from the n2 x n1 matrix of counts."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    # c[j, i] = count(x2[j], x1[i])
    c = (x2[:, None] > x1[None, :]) + 0.5 * (x2[:, None] == x1[None, :])
    p = float(c.mean())
    beta = float((x2[:, None] == x1[None, :]).mean())
    f1_at_x2 = c.mean(axis=1)          # F1-hat evaluated at arm-2 points
    s2_at_x1 = c.mean(axis=0)          # S2-hat evaluated at arm-1 points
    tau1 = float(np.mean(s2_at_x1**2))
    tau2 = float(np.mean(f1_at_x2**2))
    return p, beta, tau1, tau2


def count(x: float, y: float) -> float:
    """Normalised count: 0 if x < y, 1/2 if x == y, 1 if x > y."""
    if x < y:
        return 0.0
    if x > y:
        return 1.0
    return 0.5


def count_plus(x: float, y: float) -> float:
    """Right-continuous count: 1 iff x >= y."""
    return 1.0 if x >= y else 0.0


def count_minus(x: float, y: float) -> float:
    """Left-continuous count: 1 iff x > y."""
    return 1.0 if x > y else 0.0


def _values(s) -> np.ndarray:
    """The observations of a `releff.Sample` or of any array-like."""
    return np.asarray(getattr(s, "values", s), dtype=float)


def mid_ranks(pooled) -> np.ndarray:
    """Mid-ranks R_i = 1/2 + sum_j count(x_i, x_j); ties share averaged positions."""
    return rankdata(_values(pooled), method="average")


def internal_ranks(s) -> np.ndarray:
    """Mid-ranks of a sample within itself (the within-arm ranks)."""
    return mid_ranks(s)


def ecdf(s, x: float, flavor: str = "normalized") -> float:
    """Empirical CDF of the sample at x.

    flavor: "normalized" averages the left/right versions at ties,
    "left" counts strictly smaller values, "right" counts values <= x.
    """
    v = _values(s)
    if flavor == "normalized":
        return float(np.mean((v < x) + 0.5 * (v == x)))
    if flavor == "left":
        return float(np.mean(v < x))
    if flavor == "right":
        return float(np.mean(v <= x))
    raise ValueError(f"unknown ecdf flavor: {flavor!r}")


def p_hat_via_ranks(data) -> float:
    """Effect estimate from pooled mid-rank means: (R2bar - R1bar)/N + 1/2."""
    n1, n2 = data.n1, data.n2
    r = mid_ranks(data.pooled())
    return float((r[n1:].mean() - r[:n1].mean()) / (n1 + n2) + 0.5)


def shuffle(values, u) -> np.ndarray:
    """Fisher-Yates shuffle: step s swaps position i = n-1-s with floor(u[s]*(i+1))."""
    v = np.array(values, dtype=float)
    for step, i in enumerate(range(v.size - 1, 0, -1)):
        j = int(u[step] * (i + 1))
        v[i], v[j] = v[j], v[i]
    return v


def hypergeometric_law(sizes, n1) -> dict:
    """{per-run arm-1 counts: probability}, with n1 of the pooled values drawn into arm 1.

    The pooled values fall in runs of the given sizes, and every n1-subset
    is equally likely: a count vector a has probability
    prod_j C(sizes[j], a[j]) / C(N, n1), as an exact `Fraction`.
    """
    total = math.comb(sum(sizes), n1)
    *head, last = sizes
    law = {}
    # the last run holds what the others leave
    for a in itertools.product(*(range(min(s, n1) + 1) for s in head)):
        if 0 <= n1 - sum(a) <= last:
            a = (*a, n1 - sum(a))
            law[a] = Fraction(math.prod(math.comb(s, k) for s, k in zip(sizes, a)), total)
    return law


def cdf_row(s: int, rest: int, m: int) -> list:
    """P(X <= k) for k = 0, 1, ..., min(s, m) - 1, X ~ Hyp(s, rest, m), each the nearest float.

    X is the number of arm-1 members a run of s values gets when m of the
    s + rest values still to place go to arm 1.  The weights
    C(s, k) C(rest, m - k) are exact Python ints, stepped by their integer
    ratio and summed; each entry is one int / int division, so it is the
    float nearest the exact probability.  Entries from min(s, m) on are 1.
    """
    lo, hi = max(0, m - rest), min(s, m)
    total = math.comb(s + rest, m)
    w = math.comb(s, lo) * math.comb(rest, m - lo)
    row = [0.0] * lo
    cum = 0
    for k in range(lo, hi):
        cum += w
        row.append(cum / total)
        w = w * ((s - k) * (m - k)) // ((k + 1) * (rest - m + k + 1))
    return row


def statistic(m, kind):
    """One kind's statistic on an `EffectSummary`: an array for a batch, a float for one dataset."""
    vk = kind.variance_kind
    sd = np.sqrt(floored(m, vk, variance_raw(m, vk)))
    if kind.family == "wmw":
        return (m.p_hat - 0.5) / sd
    p = m.p_hat_adjusted
    if kind.is_logit:
        return p * (1.0 - p) * np.log(p / (1.0 - p)) / sd
    return (p - 0.5) / sd
