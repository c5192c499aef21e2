"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test is also a separate pytest item so the -v report carries the
same information.
"""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from releff import (
    BetaLatent,
    Binomial,
    Degeneracy,
    DfKind,
    Exponential,
    Normal,
    Scenario,
    ShirahataForm,
    ShirahataKind,
    TwoSamples,
    degrees_of_freedom,
    estimate_effect,
    run_scenario,
    run_test,
    solve_target_effect,
    var_bm,
    var_pm,
    var_shirahata,
    var_unbiased,
    var_wmw,
)
from releff import TestKind as TK
from releff.cli import main as cli_main
from oracles import mid_ranks, p_hat_via_ranks
from tests_util import random_dataset

SEED = 20260810


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def rate_tolerance(target: float, n_reps: int) -> float:
    return 5.0 * math.sqrt(target * (1.0 - target) / n_reps)


def test_criterion_1_exhaustive_unbiasedness():
    """Average of the raw unbiased estimate over all 3^6 joint samples."""
    p, beta = Fraction(1, 2), Fraction(1, 3)
    tau0 = p - beta / 4
    tau = sum(f**2 for f in (Fraction(5, 6), Fraction(1, 2), Fraction(1, 6))) / 3
    population = (tau0 + 2 * tau + 2 * tau - 5 * p * p) / 9
    assert population == Fraction(25, 486)
    total = 0.0
    for values in itertools.product((1.0, 2.0, 3.0), repeat=6):
        total += var_unbiased(estimate_effect(TwoSamples(values[:3], values[3:]))).raw
    mean = total / 3**6
    gap = abs(mean - float(population))
    report("criterion 1 (exhaustive unbiasedness, 729 samples)", gap < 1e-12,
           f"|mean - 25/486| = {gap:.2e}")


def test_criterion_2_identity_suite():
    """Five algebraic identities on 1,000 random tie-free datasets."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        x1, x2 = random_dataset(rng, lo=5, hi=30, tie_free=True)
        d = TwoSamples(x1, x2)
        es = estimate_effect(d)
        gaps = []
        gaps.append(abs(var_shirahata(d, ShirahataKind.U, ShirahataForm.GENERAL).raw
                        - var_unbiased(es).raw))
        gaps.append(abs(var_shirahata(d, ShirahataKind.J, ShirahataForm.GENERAL).raw
                        - var_bm(es).raw))
        gaps.append(abs(p_hat_via_ranks(d) - es.p_hat))
        n = d.n
        f_hat = (mid_ranks(d.pooled()) - 0.5) / n
        integral_form = n**3 / (n - 1) * (np.mean(f_hat**2) - 0.25) / (n * d.n1 * d.n2)
        gaps.append(abs(var_wmw(d).raw - integral_form))
        gaps.append(abs(es.sigma1_given_n_sq + es.sigma2_given_n_sq - var_unbiased(es).raw))
        worst = max(worst, *gaps)
    report("criterion 2 (identity suite, 1000 tie-free datasets)", worst < 1e-12,
           f"worst gap = {worst:.2e}")


@pytest.mark.parametrize(
    "label,n1,n2,sd2,kind,target",
    [
        ("3a n=15/15 s=(1,1) T_PM(df2)", 15, 15, 1.0, "pm:df2", 0.05012),
        ("3b n=45/15 s=(1,3) T_WMW", 45, 15, 3.0, "wmw", 0.12749),
        ("3b n=45/15 s=(1,3) T_PM(df2)", 45, 15, 3.0, "pm:df2", 0.05041),
        ("3c n=15/45 s=(1,3) T_WMW", 15, 45, 3.0, "wmw", 0.01618),
    ],
)
def test_criterion_3_table1_spot_rows(label, n1, n2, sd2, kind, target):
    n_reps = 20_000
    sc = Scenario(Normal(0, 1), Normal(0, sd2), n1, n2, n_reps,
                  tests=(TK.parse(kind),), master_seed=SEED)
    rate = run_scenario(sc, threads=2).rejection_rate[TK.parse(kind).label()]
    tol = rate_tolerance(target, n_reps)
    report(f"criterion {label}", abs(rate - target) < tol,
           f"rate {rate:.5f} vs {target:.5f} +- {tol:.5f}")


@pytest.mark.parametrize(
    "label,kind,target",
    [("4 T_WMW", "wmw", 0.10304), ("4 T_PM(df2)", "pm:df2", 0.04876)],
)
def test_criterion_4_table2_spot_row(label, kind, target):
    n_reps = 20_000
    sc = Scenario(BetaLatent(1.2071, 1, 5), BetaLatent(5, 4, 5), 15, 45, n_reps,
                  tests=(TK.parse(kind),), master_seed=SEED + 1)
    rate = run_scenario(sc, threads=2).rejection_rate[TK.parse(kind).label()]
    tol = rate_tolerance(target, n_reps)
    report(f"criterion {label} (n=15/45, alpha1=1.2071)", abs(rate - target) < tol,
           f"rate {rate:.5f} vs {target:.5f} +- {tol:.5f}")


def test_criterion_5_mean_variance_table():
    sc = Scenario(Normal(0, 1), Normal(0, 1), 7, 7, 20_000, tests=(), master_seed=SEED + 2)
    s = run_scenario(sc, threads=2)
    checks = [
        ("mean unbiased", s.mean_variance["n"], 0.025510, 0.0008),
        ("mean PM", s.mean_variance["pm"], 0.027907, 0.0008),
        ("separation freq", s.separation_frequency, 0.00057, 0.0006),
    ]
    for name, got, target, tol in checks:
        report(f"criterion 5 ({name}, n=7/7)", abs(got - target) < tol,
               f"{got:.6f} vs {target:.6f} +- {tol}")


@pytest.mark.parametrize(
    "label,n1,n2,sd2,kind,target",
    [
        ("6 perm T_PM(df2) n=10/10 s=(1,3)", 10, 10, 3.0, "pm:df2", 0.0603),
        ("6 perm T_N(df2) n=15/15 s=(1,1)", 15, 15, 1.0, "n:df2", 0.0507),
    ],
)
def test_criterion_6_permutation_spot_rows(label, n1, n2, sd2, kind, target):
    sc = Scenario(Normal(0, 1), Normal(0, sd2), n1, n2, n_reps=2000,
                  tests=(TK.parse(kind),), n_perm=2000, master_seed=SEED + 3)
    rate = run_scenario(sc, threads=2).rejection_rate[TK.parse(kind).label()]
    report(f"criterion {label}", abs(rate - target) < 0.015,
           f"rate {rate:.4f} vs {target:.4f} +- 0.015")


def test_criterion_7_effect_targeting():
    mu = solve_target_effect(lambda m: Normal(m, 1), Normal(0, 1), 0.7, (-5, 5))
    rate = solve_target_effect(lambda r: Exponential(r), Exponential(1), 0.7, (1e-3, 1e3))
    q = solve_target_effect(lambda q: Binomial(5, q), Binomial(5, 0.6), 0.7, (1e-6, 1 - 1e-6))
    a1 = solve_target_effect(lambda a: BetaLatent(a, 4, 5), BetaLatent(5, 4, 5), 0.7, (0.05, 60))
    got = (round(mu, 4), round(rate, 5), round(q, 5), round(a1, 5))
    want = (-0.7416, 2.33333, 0.43129, 2.86332)
    report("criterion 7 (effect-targeting calibrations)", got == want,
           f"{got} vs {want}")


def test_criterion_8_degenerate_inputs():
    kinds = [TK.parse(s) for s in
             ("wmw", "n:df2", "bm:df2", "pm:df2", "n_logit", "bm_logit", "pm_logit")]
    tied = TwoSamples([4.0] * 7, [4.0] * 7)
    sep = TwoSamples(np.arange(7.0), np.arange(7.0) + 50.0)
    es_tied, es_sep = estimate_effect(tied), estimate_effect(sep)
    checks = [
        ("WMW all-tied floor", var_wmw(tied).value == 1.0 / (4 * 49)),
        ("WMW all-tied raw", var_wmw(tied).raw == 0.0),
        ("unbiased all-tied floor", var_unbiased(es_tied).value == 1.0 / 49**2),
        ("BM separated floor", var_bm(es_sep).value == 1.0 / 49**2),
        ("PM separated floor", var_pm(es_sep).value == 1.0 / 49**2),
        ("PM separated flag", var_pm(es_sep).degenerate is Degeneracy.SEPARATED),
        ("unbiased all-tied flag", var_unbiased(es_tied).degenerate is Degeneracy.ALL_TIED),
        ("PM all-tied positive raw", var_pm(es_tied).raw == 1.0 / (4 * 49)),
        ("fallback df = 12", degrees_of_freedom(es_sep, DfKind.DF) == 12.0),
        ("fallback df tied = 12", degrees_of_freedom(es_tied, DfKind.DF) == 12.0),
    ]
    for data, es in ((tied, es_tied), (sep, es_sep)):
        for kind in kinds:
            res = run_test(data, kind)
            checks.append((f"{kind.label()} finite", math.isfinite(res.statistic)))
            checks.append((f"{kind.label()} p in [0,1]", 0.0 <= res.p_value <= 1.0))
    checks.append(("all-tied statistics zero",
                   all(run_test(tied, k).statistic == 0.0 for k in kinds)))
    ok = all(flag for _, flag in checks)
    bad = [name for name, flag in checks if not flag]
    report("criterion 8 (degenerate-input suite)", ok, f"failing: {bad}" if bad else "all exact")


def test_criterion_9_threads_byte_identical(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        '{"scenarios": [{"dist1": "N(0,1)", "dist2": "N(0,3)", "n1": 10, "n2": 15,'
        ' "n_reps": 4000, "seed": 31415}]}'
    )
    outputs = []
    for t in ("1", "4", "8"):
        out = tmp_path / f"out{t}.csv"
        code = cli_main(["simulate", str(cfg), "--threads", t, "--output", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("criterion 9 (thread-count determinism)", ok,
           f"{len(outputs[0])} bytes, identical across 1/4/8 threads" if ok else "MISMATCH")
