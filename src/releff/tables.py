"""Reproductions of the study tables at configurable scale.

Each table id rebuilds the row/column layout of the corresponding published
table; `scale` multiplies the replication counts so desk-scale runs stay
cheap (the emitted rows record the effective count).  Row seeds are derived
from (seed, table, row) so rows are independent and reproducible.
"""
from __future__ import annotations

from .distributions import (
    BetaLatent,
    Binomial,
    Exponential,
    Normal,
    dist_label,
    population_variance,
    solve_target_effect,
)
from .errors import ConfigError
from .rng import DEFAULT_SEED, derived_seed
from .simulate import Scenario, run_scenarios
from .stat_tests import DEFAULT_BATTERY, TestKind

__all__ = ["TABLE_IDS", "BASE_REPS", "build_table"]

TABLE_IDS = ("t1", "t2", "perm1", "perm2", "app_var", "power_p07")

BASE_REPS = {
    "t1": 100_000,
    "t2": 100_000,
    "app_var": 100_000,
    "perm1": 10_000,
    "perm2": 10_000,
    "power_p07": 10_000,
}

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

_PARAMS = {
    "t1": ("sigma1", "sigma2"),
    "app_var": ("sigma1", "sigma2"),
    "perm1": ("sigma1", "sigma2"),
    "t2": ("alpha1", "beta1"),
    "perm2": ("alpha1", "beta1"),
    "power_p07": ("dist1", "dist2"),
}
_APP_VAR_CELLS = ("true_var", "var_n", "var_wmw", "var_bm", "var_pm", "sep")

_TABLE_SALT = {tid: 0x7AB1E000 + i for i, tid in enumerate(TABLE_IDS)}


def _reps(table_id: str, scale: float) -> int:
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must lie in (0, 1], got {scale}")
    return max(1, round(BASE_REPS[table_id] * scale))


def _row_seed(seed: int, table_id: str, row: int) -> int:
    return derived_seed(seed, row, _TABLE_SALT[table_id])


def _normal_pairs():
    for sd2 in (1.0, 3.0, 5.0):
        yield ("1", format(sd2, "g")), Normal(0.0, 1.0), Normal(0.0, sd2)


def _beta_pairs():
    for a1, b1 in ((5.0, 4.0), (1.2071, 1.0)):
        yield (format(a1, "g"), format(b1, "g")), BetaLatent(a1, b1, 5), BetaLatent(5.0, 4.0, 5)


def _power_blocks():
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
    return [
        (Normal(mu_a, 1.0), ref_n1),
        (Normal(mu_b, 1.0), ref_n3),
        (BetaLatent(a_first, 4.0, 5), ref_bl),
        (BetaLatent(a_second, 1.0, 5), ref_bl),
        (Exponential(rate), ref_e),
        (Binomial(5, q), ref_b),
    ]


def _rate_cells(summary, kinds) -> list[str]:
    return [f"{summary.rejection_rate[k.label()]:.5f}" for k in kinds]


def _mean_variance_cells(summary, sc: Scenario) -> list[str]:
    return [
        f"{population_variance(sc.dist1, sc.dist2, sc.n1, sc.n2):.8f}",
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

    The scenarios of all rows run in one `run_scenarios` call, so the whole
    table shares one worker pool.
    """
    if table_id not in TABLE_IDS:
        raise ConfigError(f"unknown table id {table_id!r}; choose from {', '.join(TABLE_IDS)}")
    n_reps = _reps(table_id, scale)
    if table_id in ("t1", "t2", "app_var"):
        blocks = _beta_pairs() if table_id == "t2" else _normal_pairs()
        sizes, perms = SIZES_MAIN, None
        tests = () if table_id == "app_var" else DEFAULT_BATTERY
    else:
        if table_id == "perm1":
            blocks = [(("1", format(sd2, "g")), Normal(0.0, 1.0), Normal(0.0, sd2))
                      for sd2 in (1.0, 3.0)]
        elif table_id == "perm2":
            blocks = _beta_pairs()
        else:
            blocks = [((dist_label(d1), dist_label(d2)), d1, d2) for d1, d2 in _power_blocks()]
        sizes, tests = SIZES_PERM, PERM_BATTERY
        perms = BASE_N_PERM if n_perm is None else n_perm
    cells = _APP_VAR_CELLS if table_id == "app_var" else [k.label() for k in tests]
    counts = ["n_reps"] if perms is None else ["n_reps", "n_perm"]
    header = ["n1", "n2", *_PARAMS[table_id], *cells, *counts, "seed"]

    params, scenarios = [], []
    for (p1, p2), d1, d2 in blocks:
        for n1, n2 in sizes:
            s = _row_seed(seed, table_id, len(scenarios))
            params.append((p1, p2))
            scenarios.append(Scenario(d1, d2, n1, n2, n_reps, tests=tests,
                                      n_perm=perms, master_seed=s))
    count_cells = [str(n_reps)] if perms is None else [str(n_reps), str(perms)]
    rows = []
    for (p1, p2), sc, summary in zip(params, scenarios, run_scenarios(scenarios, threads)):
        if table_id == "app_var":
            values = _mean_variance_cells(summary, sc)
        else:
            values = _rate_cells(summary, tests)
        rows.append([str(sc.n1), str(sc.n2), p1, p2, *values, *count_cells,
                     str(sc.master_seed)])
    return header, rows
