"""Reproductions of the study tables at configurable scale.

Each table id names one `_Layout` record: the row/column layout of the
corresponding published table.  `scale` multiplies the replication counts so
desk-scale runs stay cheap (the emitted rows record the effective count).
Row seeds are derived from (seed, table, row), the table by its position in
`TABLE_IDS`, so rows are independent and reproducible.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from .distributions import (
    BetaLatent,
    Binomial,
    Exponential,
    Normal,
    dist_label,
    solve_target_effect,
)
from .errors import ConfigError
from .rng import DEFAULT_SEED, derived_seed
from .simulate import Scenario, run_scenarios
from .stat_tests import DEFAULT_BATTERY, TestKind

__all__ = ["TABLE_IDS", "BASE_REPS", "build_table"]

BASE_N_PERM = 10_000

# size layouts used by the published tables
SIZES_MAIN = [
    (7, 7), (10, 7), (7, 10), (10, 10), (15, 15), (30, 15), (15, 30),
    (30, 30), (15, 45), (15, 60), (15, 75), (45, 15), (60, 15), (75, 15),
]
SIZES_PERM = [
    (7, 7), (7, 10), (10, 7), (10, 10), (15, 15), (15, 30), (30, 15),
    (30, 30), (15, 45), (45, 15),
]

PERM_BATTERY = tuple(
    TestKind.parse(s) for s in ("n", "bm", "pm", "n_logit", "bm_logit", "pm_logit")
)

_MEAN_VARIANCE_CELLS = ("true_var", "var_n", "var_wmw", "var_bm", "var_pm", "sep")


def _normal_pairs(sds=(1.0, 3.0, 5.0)):
    for sd2 in sds:
        yield ("1", format(sd2, "g")), Normal(0.0, 1.0), Normal(0.0, sd2)


def _beta_pairs():
    for a1, b1 in ((5.0, 4.0), (1.2071, 1.0)):
        yield (format(a1, "g"), format(b1, "g")), BetaLatent(a1, b1, 5), BetaLatent(5.0, 4.0, 5)


def _power_pairs():
    """(dist1, dist2) pairs calibrated to a relative effect of 0.7."""
    ref_n1 = Normal(0.0, 1.0)
    mu_a = solve_target_effect(lambda m: Normal(m, 1.0), ref_n1, 0.7, (-5.0, 5.0))
    ref_n3 = Normal(0.0, 3.0)
    mu_b = solve_target_effect(lambda m: Normal(m, 1.0), ref_n3, 0.7, (-15.0, 15.0))
    ref_bl = BetaLatent(5.0, 4.0, 5)
    a_first = solve_target_effect(lambda a: BetaLatent(a, 4.0, 5), ref_bl, 0.7, (0.05, 60.0))
    a_second = solve_target_effect(lambda a: BetaLatent(a, 1.0, 5), ref_bl, 0.7, (0.05, 60.0))
    ref_e = Exponential(1.0)
    rate = solve_target_effect(lambda r: Exponential(r), ref_e, 0.7, (1e-3, 1e3))
    ref_b = Binomial(5, 0.6)
    q = solve_target_effect(lambda q: Binomial(5, q), ref_b, 0.7, (1e-6, 1.0 - 1e-6))
    for d1, d2 in [
        (Normal(mu_a, 1.0), ref_n1),
        (Normal(mu_b, 1.0), ref_n3),
        (BetaLatent(a_first, 4.0, 5), ref_bl),
        (BetaLatent(a_second, 1.0, 5), ref_bl),
        (Exponential(rate), ref_e),
        (Binomial(5, q), ref_b),
    ]:
        yield (dist_label(d1), dist_label(d2)), d1, d2


class _Layout(NamedTuple):
    base_reps: int
    params: tuple[str, str]
    pairs: Callable  # () -> ((param1, param2), dist1, dist2) per block of rows
    sizes: list[tuple[int, int]]
    tests: tuple[TestKind, ...]  # empty: the mean-variance table
    n_perm: int | None  # default permutation draws; None: asymptotic p-values


# the order sets every row seed
_LAYOUTS = {
    "t1": _Layout(100_000, ("sigma1", "sigma2"), _normal_pairs, SIZES_MAIN, DEFAULT_BATTERY, None),
    "t2": _Layout(100_000, ("alpha1", "beta1"), _beta_pairs, SIZES_MAIN, DEFAULT_BATTERY, None),
    "perm1": _Layout(10_000, ("sigma1", "sigma2"), lambda: _normal_pairs((1.0, 3.0)),
                     SIZES_PERM, PERM_BATTERY, BASE_N_PERM),
    "perm2": _Layout(10_000, ("alpha1", "beta1"), _beta_pairs, SIZES_PERM, PERM_BATTERY,
                     BASE_N_PERM),
    "app_var": _Layout(100_000, ("sigma1", "sigma2"), _normal_pairs, SIZES_MAIN, (), None),
    "power_p07": _Layout(10_000, ("dist1", "dist2"), _power_pairs, SIZES_PERM, PERM_BATTERY,
                         BASE_N_PERM),
}
TABLE_IDS = tuple(_LAYOUTS)
BASE_REPS = {tid: layout.base_reps for tid, layout in _LAYOUTS.items()}


def _cells(summary, tests) -> list[str]:
    if tests:
        return [f"{summary.rejection_rate[k.label()]:.5f}" for k in tests]
    return [
        f"{summary.true_variance:.8f}",
        *(f"{summary.mean_variance[k]:.8f}" for k in ("n", "wmw", "bm", "pm")),
        f"{summary.separation_frequency:.5f}",
    ]


def build_table(
    table_id: str,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    n_perm: int | None = None,
    threads: int = 1,
) -> tuple[list[str], list[list[str]]]:
    """Simulate one table; returns (header, rows) of formatted cells.

    The scenarios of all rows run in one `run_scenarios` call, so the chunks
    of the whole table are batched across the worker pool together.
    """
    if table_id not in _LAYOUTS:
        raise ConfigError(f"unknown table id {table_id!r}; choose from {', '.join(TABLE_IDS)}")
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must lie in (0, 1], got {scale}")
    layout = _LAYOUTS[table_id]
    n_reps = max(1, round(layout.base_reps * scale))
    perms = layout.n_perm if n_perm is None or layout.n_perm is None else n_perm
    counts = {"n_reps": str(n_reps)}
    if perms is not None:
        counts["n_perm"] = str(perms)
    cells = [k.label() for k in layout.tests] or list(_MEAN_VARIANCE_CELLS)
    header = ["n1", "n2", *layout.params, *cells, *counts, "seed"]

    salt = 0x7AB1E000 + TABLE_IDS.index(table_id)
    params, scenarios = [], []
    for (p1, p2), d1, d2 in layout.pairs():
        for n1, n2 in layout.sizes:
            params.append((p1, p2))
            scenarios.append(Scenario(d1, d2, n1, n2, n_reps, tests=layout.tests, n_perm=perms,
                                      master_seed=derived_seed(seed, len(scenarios), salt)))
    rows = []
    for (p1, p2), sc, summary in zip(params, scenarios, run_scenarios(scenarios, threads)):
        rows.append([str(sc.n1), str(sc.n2), p1, p2, *_cells(summary, layout.tests),
                     *counts.values(), str(sc.master_seed)])
    return header, rows
