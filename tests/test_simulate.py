import json
import math

import numpy as np
import pytest

from releff import (
    BetaLatent,
    ConfigError,
    InvalidKind,
    Normal,
    Scenario,
    SizeTooSmall,
    TwoSamples,
    load_scenarios,
    run_scenario,
    run_test,
    population_variance,
)
from releff import TestKind as TK
from releff import simulate
from releff._batch import moments_from_values
from releff.permutation import tally_draws
from releff.stat_tests import p_value_arrays, stat_arrays
from releff.simulate import _draw_chunk, _simulate_chunk, scenario_from_dict
from releff.tables import PERM_BATTERY
from oracles import pairwise_moments
from tests_util import random_dataset

BATTERY = tuple(TK.parse(s) for s in ("wmw", "n:df2", "bm:df2", "pm:df2", "n_logit"))


class TestBatchKernel:
    def test_moments_match_pairwise_oracle(self, rng):
        for _ in range(30):
            x1, x2 = random_dataset(rng)
            n1, n2 = x1.size, x2.size
            m = moments_from_values(x1[None, :], x2[None, :])
            p, beta, tau1, tau2 = pairwise_moments(x1, x2)
            tau0 = p - beta / 4
            sigma1n = (n2 * tau1 - tau0 / 2 - (n2 - 0.5) * p * p) / ((n1 - 1) * (n2 - 1))
            assert m.p_hat[0] == pytest.approx(p, abs=1e-12)
            assert m.beta_hat[0] == pytest.approx(beta, abs=1e-12)
            assert m.tau1_hat[0] == pytest.approx(tau1, abs=1e-12)
            assert m.tau2_hat[0] == pytest.approx(tau2, abs=1e-12)
            assert m.sigma1_given_n_sq[0] == pytest.approx(sigma1n, abs=1e-12)

    def test_statistics_and_pvalues_match_run_test(self, rng):
        x1 = np.vstack([random_dataset(rng, lo=6, hi=6)[0] for _ in range(60)])
        x2 = np.vstack([random_dataset(rng, lo=9, hi=9)[0] for _ in range(60)])
        m = moments_from_values(x1, x2)
        for kind in BATTERY:
            stat, df = stat_arrays(m, kind)
            pvals = p_value_arrays(stat, df)
            for row in range(60):
                res = run_test(TwoSamples(x1[row], x2[row]), kind)
                assert stat[row] == pytest.approx(res.statistic, abs=1e-12)
                assert pvals[row] == pytest.approx(res.p_value, abs=1e-12)
                if df is not None:
                    assert df[row] == pytest.approx(res.df, abs=1e-10)

    def test_degenerate_rows(self):
        x1 = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [5.0, 6.0, 7.0]])
        x2 = np.array([[1.0, 1.0, 1.0], [7.0, 8.0, 9.0], [1.0, 2.0, 3.0]])
        m = moments_from_values(x1, x2)
        assert m.all_tied.tolist() == [True, False, False]
        assert m.sep_high.tolist() == [False, True, False]
        assert m.sep_low.tolist() == [False, False, True]
        assert m.p_hat_adjusted.tolist() == [0.5, 1 - 1 / 9, 1 / 9]


class TestPermutationObserved:
    @pytest.mark.parametrize("dist1,dist2,n1,n2,tied", [
        (Normal(0, 1), Normal(0, 3), 7, 10, False),
        (BetaLatent(5, 4, 5), BetaLatent(2, 3, 5), 15, 12, True),
    ], ids=["tie_free", "tied"])
    def test_observed_statistics_equal_run_test(self, monkeypatch, dist1, dist2, n1, n2, tied):
        """The statistics a permutation chunk tallies against, read off its
        batch of moments, are each replication's `run_test` statistics."""
        seen = []

        def spy(ctx, kinds, observed, *args):
            seen.append(observed.copy())
            return tally_draws(ctx, kinds, observed, *args)

        monkeypatch.setattr(simulate, "tally_draws", spy)
        sc = Scenario(dist1, dist2, n1, n2, n_reps=80, tests=PERM_BATTERY,
                      n_perm=1, master_seed=21)
        _simulate_chunk(sc, 0, sc.n_reps)
        x1, x2 = _draw_chunk(sc, 0, sc.n_reps)
        assert len(seen) == sc.n_reps
        for i, observed in enumerate(seen):
            d = TwoSamples(x1[i], x2[i])
            assert (np.unique(d.pooled()).size < d.n) == tied
            for idx, kind in enumerate(PERM_BATTERY):
                assert observed[idx] == run_test(d, kind).statistic, (i, kind.label())


class TestDeterminism:
    def test_same_seed_same_summary(self):
        sc = Scenario(Normal(0, 1), Normal(0, 3), 8, 12, n_reps=3000,
                      tests=BATTERY, master_seed=99)
        a, b = run_scenario(sc), run_scenario(sc)
        assert a == b

    def test_thread_count_invariance(self):
        sc = Scenario(Normal(0, 1), Normal(0, 3), 8, 12, n_reps=2500,
                      tests=BATTERY, master_seed=7)
        results = [run_scenario(sc, threads=t) for t in (1, 2, 4)]
        assert results[0] == results[1] == results[2]

    def test_thread_count_invariance_with_permutation(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 7, 7, n_reps=2100,
                      tests=(TK.parse("pm"),), n_perm=200, master_seed=11)
        assert run_scenario(sc, threads=1) == run_scenario(sc, threads=2)

    def test_threads_below_one_rejected(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 5, 6, n_reps=10, master_seed=5)
        for t in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                run_scenario(sc, threads=t)

    def test_draws_depend_only_on_rep_index(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 5, 6, n_reps=100, master_seed=5)
        x1a, x2a = _draw_chunk(sc, 40, 60)
        x1b, x2b = _draw_chunk(sc, 50, 60)
        assert np.array_equal(x1a[10:], x1b) and np.array_equal(x2a[10:], x2b)


class TestStatisticalBehaviour:
    def test_mean_unbiased_estimate_tracks_exact_variance(self):
        d = BetaLatent(5, 4, 5)
        sc = Scenario(d, d, 7, 7, n_reps=20000, tests=(), master_seed=2718)
        s = run_scenario(sc)
        exact = population_variance(d, d, 7, 7)
        assert s.true_variance == pytest.approx(exact)
        # 3 sigma band using the empirical spread of the estimator (~0.014)
        assert abs(s.mean_variance["n"] - exact) < 3 * 0.014 / math.sqrt(20000)

    def test_power_monotone_in_shift(self):
        rates = []
        for i, delta in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            sc = Scenario(Normal(delta, 1), Normal(0, 1), 30, 30, n_reps=4000,
                          tests=(TK.parse("pm"),), master_seed=60 + i)
            rates.append(run_scenario(sc).rejection_rate["pm:df2"])
        se = math.sqrt(0.05 * 0.95 / 4000)
        inversions = sum(1 for a, b in zip(rates, rates[1:]) if b < a - se)
        assert inversions == 0, rates
        assert rates[-1] > 0.9

    def test_single_rep_rate_is_zero_or_one(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 7, 7, n_reps=1,
                      tests=(TK.parse("wmw"),), master_seed=1)
        assert run_scenario(sc).rejection_rate["wmw"] in (0.0, 1.0)

    def test_mc_standard_error_formula(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 7, 7, n_reps=400,
                      tests=(), alpha=0.1, master_seed=1)
        assert run_scenario(sc).mc_standard_error == pytest.approx(
            math.sqrt(0.1 * 0.9 / 400)
        )


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(SizeTooSmall):
            Scenario(Normal(0, 1), Normal(0, 1), 1, 9, n_reps=10)
        with pytest.raises(SizeTooSmall):
            Scenario(Normal(0, 1), Normal(0, 1), 3, 9, n_reps=10,
                     tests=(TK.parse("pm:df2"),))
        with pytest.raises(InvalidKind):
            Scenario(Normal(0, 1), Normal(0, 1), 9, 9, n_reps=10,
                     tests=(TK.parse("wmw"),), n_perm=100)
        with pytest.raises(ValueError):
            Scenario(Normal(0, 1), Normal(0, 1), 9, 9, n_reps=0)

    def test_n_perm_below_one_rejected(self):
        for n_perm in (0, -5):
            with pytest.raises(ValueError, match="n_perm"):
                Scenario(Normal(0, 1), Normal(0, 1), 9, 9, n_reps=10,
                         tests=(TK.parse("pm"),), n_perm=n_perm)
            with pytest.raises(ConfigError, match="n_perm"):
                scenario_from_dict({"dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 9, "n2": 9,
                                    "n_reps": 10, "tests": ["pm"], "n_perm": n_perm})

    def test_from_dict_and_file(self, tmp_path):
        entry = {"dist1": "N(0,1)", "dist2": "BL(5,4,5)", "n1": 8, "n2": 9,
                 "n_reps": 12, "tests": ["wmw", "pm:df1"], "seed": 4}
        sc = scenario_from_dict(entry)
        assert sc.dist2 == BetaLatent(5, 4, 5)
        assert sc.tests[1].label() == "pm:df1"
        path = tmp_path / "s.cfg"
        path.write_text(json.dumps({"scenarios": [entry]}))
        loaded = load_scenarios(path)
        assert loaded == [sc]
        assert load_scenarios(path, seed_override=77)[0].master_seed == 77

    def test_bad_files(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("not json")
        with pytest.raises(ConfigError):
            load_scenarios(p)
        p.write_text(json.dumps([]))
        with pytest.raises(ConfigError):
            load_scenarios(p)
        p.write_text(json.dumps([{"dist1": "N(0,1)"}]))
        with pytest.raises(ConfigError):
            load_scenarios(p)
