"""Output checks: table layouts and an independent pairwise oracle.

Nothing here imports releff.  The oracle evaluates the relative effect and
the seven statistics of the default battery from their pairwise
definitions, written through placements and sample variances rather than
the library's tau moments, so it shares no code path with the program it
checks.  Memory stays small at n = 10^3 per arm because the pairwise
matrix is built in blocks of rows.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import stats

# Published layouts: rows, base replication count, rate columns, n_perm.
TABLE_LAYOUT = {
    "t1": (42, 100_000, 7, None),
    "t2": (28, 100_000, 7, None),
    "perm1": (20, 10_000, 6, 10_000),
    "perm2": (20, 10_000, 6, 10_000),
}

_BLOCK = 128
_REL_TOL = 1e-9
_P_TOL = 1e-7


class CheckFailed(Exception):
    """An output did not match its expected value or layout."""


def expected_reps(table_id: str, scale: float) -> int:
    return max(1, round(TABLE_LAYOUT[table_id][1] * scale))


def check_table(text: str, table_id: str, scale: float) -> int:
    """Validate one table's CSV; returns the number of rows."""
    n_rows, _, n_rates, n_perm = TABLE_LAYOUT[table_id]
    reps = expected_reps(table_id, scale)
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        raise CheckFailed(f"{table_id}: empty output")
    header, rows = table[0], table[1:]
    if len(rows) != n_rows:
        raise CheckFailed(f"{table_id}: {len(rows)} rows, expected {n_rows}")
    if "n_reps" not in header:
        raise CheckFailed(f"{table_id}: no n_reps column")
    reps_col = header.index("n_reps")
    rate_cols = range(4, reps_col)
    if len(rate_cols) != n_rates:
        raise CheckFailed(f"{table_id}: {len(rate_cols)} rate columns, expected {n_rates}")
    for row in rows:
        if len(row) != len(header):
            raise CheckFailed(f"{table_id}: ragged row {row}")
        for c in rate_cols:
            v = float(row[c])
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise CheckFailed(f"{table_id}: rate {row[c]!r} outside [0, 1]")
        if int(row[reps_col]) != reps:
            raise CheckFailed(f"{table_id}: n_reps {row[reps_col]}, expected {reps}")
        if n_perm is not None and int(row[header.index("n_perm")]) != n_perm:
            raise CheckFailed(f"{table_id}: n_perm {row[header.index('n_perm')]}")
    return n_rows


def p_hat_sorted(x1: np.ndarray, x2: np.ndarray) -> float:
    """P(X1 < X2) + P(X1 = X2)/2 by binary search; O(N log N), any n."""
    s1 = np.sort(x1)
    below = np.searchsorted(s1, x2, side="left").sum()
    upto = np.searchsorted(s1, x2, side="right").sum()
    return float((below + upto) / 2.0 / (x1.size * x2.size))


def _mid_ranks(z: np.ndarray) -> np.ndarray:
    _, inv, counts = np.unique(z, return_inverse=True, return_counts=True)
    before = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (before + (counts + 1) / 2.0)[inv]


def _satterthwaite_df2(s1: float, s2: float, n1: int, n2: int) -> float:
    w1, w2, c1, c2 = n1 - 2, n2 - 2, n1 - 3, n2 - 3
    num = (s1 / w1 + s2 / w2) ** 2
    den = s1 * s1 / (w1 * w1 * c1) + s2 * s2 / (w2 * w2 * c2)
    df = num / den if den > 0.0 else math.nan
    if not math.isfinite(df) or df <= 0.0:
        return _satterthwaite_df2(1.0, 1.0, n1, n2)
    return df


def oracle(x1: np.ndarray, x2: np.ndarray) -> dict:
    """p_hat plus {label: (statistic, df, p_value)} for the default battery."""
    n1, n2 = x1.size, x2.size
    n = n1 + n2
    # h[j, i] = 1, 1/2, 0 as x2[j] is above, tied with, below x1[i]
    s_at_x1 = np.zeros(n1)
    f_at_x2 = np.empty(n2)
    ties = 0
    for a in range(0, n2, _BLOCK):
        h = 0.5 * (1.0 + np.sign(x2[a:a + _BLOCK, None] - x1[None, :]))
        s_at_x1 += h.sum(axis=0)
        f_at_x2[a:a + _BLOCK] = h.mean(axis=1)
        ties += int(np.count_nonzero(h == 0.5))
    s_at_x1 /= n2
    p = float(f_at_x2.mean())
    beta = ties / (n1 * n2)
    s1 = float(np.var(s_at_x1, ddof=1))
    s2 = float(np.var(f_at_x2, ddof=1))
    floor = 1.0 / (n1 * n1 * n2 * n2)
    raw = {
        "n": (s1 * n2 * (n1 - 1) / n1 + s2 * n1 * (n2 - 1) / n2 - p * (1.0 - p) + beta / 4.0)
        / ((n1 - 1) * (n2 - 1)),
        "bm": s1 / n1 + s2 / n2,
        "pm": (p * (1.0 - p) + (n2 - 1) * s1 + (n1 - 1) * s2) / (n1 * n2),
    }
    var = {k: max(v, floor) for k, v in raw.items()}
    pooled = np.concatenate([x1, x2])
    if np.all(pooled == pooled[0]):
        var["wmw"] = 1.0 / (4.0 * n1 * n2)
    else:
        r = _mid_ranks(pooled)
        var["wmw"] = float(np.sum((r - (n + 1) / 2.0) ** 2) / (n - 1) / (n * n1 * n2))
    eps = 1.0 / (n1 * n2)
    p_adj = 1.0 - eps if p == 1.0 else eps if p == 0.0 else p
    df2 = _satterthwaite_df2(s1, s2, n1, n2)
    out = {"wmw": _normal((p - 0.5) / math.sqrt(var["wmw"]))}
    for fam in ("n", "bm", "pm"):
        t = (p_adj - 0.5) / math.sqrt(var[fam])
        out[f"{fam}:df2"] = (t, df2, float(min(1.0, 2.0 * stats.t.sf(abs(t), df2))))
        z = p_adj * (1.0 - p_adj) * math.log(p_adj / (1.0 - p_adj)) / math.sqrt(var[fam])
        out[f"{fam}_logit"] = _normal(z)
    return {"p_hat": p, "tests": out}


def _normal(z: float):
    return (z, None, float(min(1.0, 2.0 * stats.norm.sf(abs(z)))))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_result(label: str, statistic: float, df, p_value: float, p_hat: float,
                 expected_p_hat: float, expected: dict | None) -> None:
    """Validate one run_test result; `expected` is the oracle output or None."""
    if not math.isfinite(statistic):
        raise CheckFailed(f"{label}: non-finite statistic {statistic}")
    if not 0.0 <= p_value <= 1.0:
        raise CheckFailed(f"{label}: p-value {p_value} outside [0, 1]")
    if df is not None and not (math.isfinite(df) and df > 0.0):
        raise CheckFailed(f"{label}: bad df {df}")
    if not _close(p_hat, expected_p_hat, _REL_TOL):
        raise CheckFailed(f"{label}: p_hat {p_hat!r} != {expected_p_hat!r}")
    if expected is None:
        return
    if label not in expected["tests"]:
        raise CheckFailed(f"{label}: no oracle for this test")
    t, d, pv = expected["tests"][label]
    if not _close(statistic, t, _REL_TOL):
        raise CheckFailed(f"{label}: statistic {statistic!r} != oracle {t!r}")
    if (df is None) != (d is None) or (d is not None and not _close(df, d, _REL_TOL)):
        raise CheckFailed(f"{label}: df {df!r} != oracle {d!r}")
    if abs(p_value - pv) > _P_TOL * max(pv, 1e-12) + 1e-15:
        raise CheckFailed(f"{label}: p-value {p_value!r} != oracle {pv!r}")


def check_permutation(p1: float, p2: float, p_value: float, statistic: float) -> None:
    """p = min(1, 2 min(p1, p2)); ties count in both tallies, so p1 + p2 >= 1."""
    if not math.isfinite(statistic):
        raise CheckFailed(f"permutation: non-finite observed statistic {statistic}")
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise CheckFailed(f"permutation: tail fractions {p1}, {p2} outside [0, 1]")
    if p_value != min(1.0, 2.0 * min(p1, p2)):
        raise CheckFailed(f"permutation: p {p_value!r} != min(1, 2 min({p1!r}, {p2!r}))")
    if p1 + p2 < 1.0 - 1e-12:
        raise CheckFailed(f"permutation: p1 + p2 = {p1 + p2} < 1")
