import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtri

from releff import (
    BetaLatent,
    Binomial,
    ConfigError,
    Exponential,
    InvalidKind,
    Normal,
    Scenario,
    SizeTooSmall,
    TwoSamples,
    load_scenarios,
    run_scenario,
    run_scenarios,
    run_test,
    population_variance,
)
from releff import TestKind as TK
from releff import (DfKind, _batch, degrees_of_freedom, discrete_masses, permutation,
                    simulate, stat_tests, variance)
from releff._batch import arm1_counts, moments_from_values, tie_runs
from releff.permutation import tally_draws
from releff.rng import perm_key, rep_permutation_seed
from releff.stat_tests import p_value_arrays, stat_arrays
from releff.simulate import (_chunk_arms, _draw_chunk, _score_chunk, _simulate_chunk,
                             scenario_from_dict)
from releff.variance import VarianceKind
from releff.tables import PERM_BATTERY
from oracles import pairwise_moments
from tests_util import assert_same, one_lane, random_dataset, tally_one

SRC = Path(__file__).resolve().parents[1] / "src"
BATTERY = tuple(TK.parse(s) for s in ("wmw", "n:df2", "bm:df2", "pm:df2", "n_logit"))
DEFAULT_BATTERY_NO_WMW = tuple(k for k in simulate.DEFAULT_BATTERY if k.family != "wmw")


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
        for kind, (stat, df) in zip(BATTERY, stat_arrays(m, BATTERY)):
            pvals = p_value_arrays(stat, df)
            for row in range(60):
                res = run_test(TwoSamples(x1[row], x2[row]), kind)
                assert stat[row] == pytest.approx(res.statistic, abs=1e-12)
                assert pvals[row] == pytest.approx(res.p_value, abs=1e-12)
                if df is not None:
                    assert df[row] == pytest.approx(res.df, abs=1e-10)

    def test_chunk_computes_each_df_kind_once(self, monkeypatch):
        """A t1-style chunk scores its battery in one call: df2 once, not once per t family."""
        calls = []

        def spy(m, kind):
            calls.append(kind)
            return degrees_of_freedom(m, kind)

        monkeypatch.setattr(stat_tests, "degrees_of_freedom", spy)
        sc = Scenario(Normal(0, 1), Normal(0, 3), 15, 15, n_reps=simulate.CHUNK_REPS)
        _simulate_chunk(sc, 0, sc.n_reps)
        assert calls == [DfKind.DF2]

    @pytest.mark.parametrize("dist1,dist2", [
        (Normal(0, 1), Normal(0, 3)),
        (Binomial(5, 0.6), BetaLatent(5, 4, 5)),
    ], ids=["normal", "discrete"])
    def test_chunk_computes_each_variance_once(self, monkeypatch, dist1, dist2):
        """The mean-variance columns and the statistics share one raw variance per kind."""
        calls = []
        estimate = variance._raw_estimate

        def spy(m, kind):
            calls.append(kind)
            return estimate(m, kind)

        monkeypatch.setattr(variance, "_raw_estimate", spy)
        sc = Scenario(dist1, dist2, 15, 15, n_reps=300)
        _simulate_chunk(sc, 0, sc.n_reps)
        assert sorted(calls) == sorted(VarianceKind(k) for k in ("wmw", "n", "bm", "pm"))

    def test_tie_runs_contract(self, rng):
        """A batch labels each row as it would alone, pads with empty runs,
        and orders labels as the values they label."""
        up = np.nextafter(1.5, np.inf)
        rows = [np.repeat([3.0, 1.0, 2.0], 4), rng.normal(size=12),
                rng.integers(0, 5, size=12).astype(float), np.full(12, 7.0),
                # -0.0 and +0.0 are equal, so one run
                np.array([0.0, -0.0, 1.0, -0.0, -1.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.0, -0.0]),
                # last-place neighbours within and across both arms are distinct runs
                np.array([1.5, up, 2.0, 1.5, -3.0, up, 1.5, np.nextafter(2.0, -np.inf), up, 2.0,
                          -3.0, np.nextafter(-3.0, 0.0)])]
        rows = np.array(rows)
        labels, sizes, counts = tie_runs(rows[:, :5], rows[:, 5:])
        assert sizes.shape == counts.shape == (6, 12)
        for row, lab, size, count in zip(rows, labels, sizes, counts):
            alone, alone_sizes, alone_counts = tie_runs(row[:5], row[5:])
            assert np.array_equal(lab, alone)
            n_runs = alone_sizes.size
            assert np.array_equal(size[:n_runs], alone_sizes)
            assert np.array_equal(count[:n_runs], alone_counts)
            assert not size[n_runs:].any()
            assert np.array_equal(alone_counts, arm1_counts(alone[None, :5], n_runs)[0])
            assert alone_sizes.all() and np.array_equal(alone_sizes, np.bincount(alone))
            assert np.array_equal(np.sign(lab[:, None] - lab[None, :]),
                                  np.sign(row[:, None] - row[None, :]))
            # a dataset labels its pooled values as the one-row batch does
            data = TwoSamples(row[:5], row[5:])
            data_labels, data_sizes = data.run_labels()
            assert np.array_equal(data_labels, alone) and np.array_equal(data_sizes, alone_sizes)
            a, sizes = data.runs()
            assert np.array_equal(a, arm1_counts(alone[None, :5], n_runs)[0])
            assert np.array_equal(sizes, alone_sizes)

    def test_degenerate_rows(self):
        x1 = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [5.0, 6.0, 7.0]])
        x2 = np.array([[1.0, 1.0, 1.0], [7.0, 8.0, 9.0], [1.0, 2.0, 3.0]])
        m = moments_from_values(x1, x2)
        assert m.all_tied.tolist() == [True, False, False]
        assert m.sep_high.tolist() == [False, True, False]
        assert m.sep_low.tolist() == [False, False, True]
        assert m.p_hat_adjusted.tolist() == [0.5, 1 - 1 / 9, 1 / 9]


class TestDiscreteChunks:
    """A discrete pair is scored from indices on the union of the two supports
    when the union has at most n1 + n2 values, and from its values otherwise."""

    # 2 to 60 support values: comparisons up to 8, searchsorted above
    discrete_specs = st.one_of(
        st.builds(Binomial, st.sampled_from([1, 4, 5, 12]), st.floats(0.05, 0.95)),
        st.builds(BetaLatent, st.floats(0.2, 8.0), st.floats(0.2, 8.0), st.sampled_from([2, 5, 60])),
    )

    # supports 0..5 and 1..5: the union is neither arm's own
    @example(Binomial(5, 0.6), BetaLatent(5, 4, 5), 15, 45, 31)
    @example(BetaLatent(1.2071, 1, 5), BetaLatent(5, 4, 5), 45, 15, 31)
    # 41 and 13 values, counted; 201 and 13 values, wider than 9 + 7 and sorted
    @example(Binomial(40, 0.4), Binomial(12, 0.5), 30, 25, 31)
    @example(Binomial(200, 0.4), Binomial(12, 0.5), 9, 7, 31)
    # heavily tied rows on a 60-value support; mostly tie-free rows, sorted
    @example(BetaLatent(2, 2, 60), BetaLatent(2, 3, 60), 30, 30, 31)
    @example(BetaLatent(2, 2, 60), BetaLatent(2, 3, 60), 3, 4, 31)
    # many all-tied and separated rows
    @example(Binomial(1, 0.5), Binomial(1, 0.3), 2, 2, 31)
    @given(dist1=discrete_specs, dist2=discrete_specs, n1=st.integers(2, 45),
           n2=st.integers(2, 45), seed=st.integers(0, 2**63 - 1))
    def test_chunk_equals_values_scorer(self, dist1, dist2, n1, n2, seed):
        sc = Scenario(dist1, dist2, n1, n2, n_reps=200, tests=(), master_seed=seed)
        m = _score_chunk(sc, 0, sc.n_reps)
        arm1, arm2, n_values = _chunk_arms(sc, 0, sc.n_reps)
        x1, x2 = _draw_chunk(sc, 0, sc.n_reps)
        support = np.union1d(discrete_masses(dist1)[0], discrete_masses(dist2)[0])
        # counted arms are indices on the union support
        counted = support.size <= n1 + n2
        assert n_values == (support.size if counted else None)
        assert np.array_equal(support[arm1] if counted else arm1, x1)
        assert np.array_equal(support[arm2] if counted else arm2, x2)
        assert_same(m, moments_from_values(x1, x2))
        # indices sort as the values, so a permutation chunk labels the same runs
        assert np.array_equal(tie_runs(arm1, arm2)[0], tie_runs(x1, x2)[0])

    # arms of 9 and 12: a union support of up to 21 values is counted; only a
    # pair of continuous arms tries the key sort, a pair with a discrete arm
    # never; a permutation chunk labels its arms once and reads its moments
    # off those labels, whatever the pair
    @pytest.mark.parametrize("dist1,dist2,values_calls,key_calls", [
        (Binomial(5, 0.6), BetaLatent(5, 4, 5), 0, 0),
        (BetaLatent(5, 4, 5), BetaLatent(2, 3, 5), 0, 0),
        (BetaLatent(2, 2, 21), BetaLatent(2, 3, 21), 0, 0),
        (BetaLatent(2, 2, 22), BetaLatent(2, 3, 22), 1, 0),
        (Binomial(200, 0.4), Binomial(12, 0.5), 1, 0),
        (Normal(0, 1), Normal(0, 3), 1, 1),
        (Normal(3, 1), Binomial(5, 0.6), 1, 0),
        (BetaLatent(5, 4, 5), Exponential(1.0), 1, 0),
    ], ids=["discrete", "beta_latent", "support_21", "support_22", "wide_support", "continuous",
            "normal_binomial", "beta_latent_exp"])
    @pytest.mark.parametrize("n_perm", [None, 20])
    def test_only_discrete_pairs_skip_the_values_scorer(self, monkeypatch, dist1, dist2,
                                                        values_calls, key_calls, n_perm):
        seen, keyed, labelled = [], [], []
        key_scorer = _batch._moments_from_keys
        labeller = simulate.tie_runs

        def spy(x1, x2, **kwargs):
            seen.append(x1.shape)
            return moments_from_values(x1, x2, **kwargs)

        def key_spy(x1, x2):
            keyed.append(x1.shape)
            return key_scorer(x1, x2)

        def label_spy(x1, x2):
            labelled.append((x1.shape[0], x1.shape[1] + x2.shape[1]))
            return labeller(x1, x2)

        monkeypatch.setattr(simulate, "moments_from_values", spy)
        monkeypatch.setattr(_batch, "_moments_from_keys", key_spy)
        monkeypatch.setattr(simulate, "tie_runs", label_spy)
        tests = DEFAULT_BATTERY_NO_WMW if n_perm else simulate.DEFAULT_BATTERY
        sc = Scenario(dist1, dist2, 9, 12, n_reps=40, tests=tests, n_perm=n_perm, master_seed=8)
        _simulate_chunk(sc, 0, sc.n_reps)
        if n_perm is None:
            assert (len(seen), len(keyed), labelled) == (values_calls, key_calls, [])
        else:
            assert (seen, keyed, labelled) == ([], [], [(40, 21)])

    def test_permutation_chunk_labelled_once(self, monkeypatch):
        """The permutation scenario of configs/mixed_pairs.cfg, a continuous
        arm beside a discrete one, labels each chunk by one tie_runs call, for
        its lanes and its observed moments alike."""
        sc = load_scenarios(Path(__file__).resolve().parents[1] / "configs" / "mixed_pairs.cfg")[-1]
        assert sc.n_perm is not None
        calls = []
        labeller = _batch.tie_runs

        def spy(x1, x2):
            calls.append((x1.shape[0], x1.shape[1] + x2.shape[1]))
            return labeller(x1, x2)

        monkeypatch.setattr(_batch, "tie_runs", spy)
        monkeypatch.setattr(simulate, "tie_runs", spy)
        bounds = simulate._chunk_bounds(sc)
        for start, stop in bounds:
            _simulate_chunk(sc, start, stop)
        assert calls == [(stop - start, sc.n1 + sc.n2) for start, stop in bounds]


    def test_union_support_found_once_per_pair(self, monkeypatch):
        """The codes path reads each arm's support once per pair, not once per chunk."""
        calls = []
        masses = simulate.discrete_masses

        def spy(spec):
            calls.append(spec)
            return masses(spec)

        monkeypatch.setattr(simulate, "discrete_masses", spy)
        simulate._support_codes.cache_clear()
        sc = Scenario(Binomial(5, 0.6), BetaLatent(5, 4, 5), 9, 12, n_reps=90, tests=())
        for start in range(0, sc.n_reps, 30):
            _score_chunk(sc, start, start + 30)
        assert calls == [sc.dist1, sc.dist2]


class TestPermutationObserved:
    @pytest.mark.parametrize("dist1,dist2,n1,n2,tied", [
        (Normal(0, 1), Normal(0, 3), 7, 10, False),
        (BetaLatent(5, 4, 5), BetaLatent(2, 3, 5), 15, 12, True),
    ], ids=["tie_free", "tied"])
    def test_observed_statistics_equal_run_test(self, monkeypatch, dist1, dist2, n1, n2, tied):
        """The statistics a permutation chunk tallies against, read off its
        batch of moments, are each replication's `run_test` statistics: a
        block's column for a replication's stream is that replication's."""
        seen = {}

        def spy(lane, kinds, observed, samples, *args):
            for column, i in enumerate(samples.tolist()):
                seen[lane.keys[i]] = observed[:, column].copy()
            return tally_draws(lane, kinds, observed, samples, *args)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        sc = Scenario(dist1, dist2, n1, n2, n_reps=80, tests=PERM_BATTERY,
                      n_perm=1, master_seed=21)
        _simulate_chunk(sc, 0, sc.n_reps)
        x1, x2 = _draw_chunk(sc, 0, sc.n_reps)
        keys = [perm_key(rep_permutation_seed(sc.master_seed, r)) for r in range(sc.n_reps)]
        assert set(seen) == set(keys)
        for i, key in enumerate(keys):
            observed = seen[key]
            d = TwoSamples(x1[i], x2[i])
            assert (np.unique(d.pooled()).size < d.n) == tied
            for idx, kind in enumerate(PERM_BATTERY):
                assert observed[idx] == run_test(d, kind).statistic, (i, kind.label())


    def test_permutation_chunk_computes_no_degrees_of_freedom(self, monkeypatch):
        """A permutation chunk tallies statistics only, so it derives no df."""
        calls = []

        def spy(m, kind):
            calls.append(kind)
            return degrees_of_freedom(m, kind)

        monkeypatch.setattr(stat_tests, "degrees_of_freedom", spy)
        sc = Scenario(Normal(0, 1), Normal(0, 3), 7, 10, n_reps=20, tests=PERM_BATTERY,
                      n_perm=50, master_seed=21)
        _simulate_chunk(sc, 0, sc.n_reps)
        assert calls == []


class TestCurtailedPermutation:
    """A replication stops drawing once no test's decision can change."""

    N_PERM, ALPHA, STEP = 200, 0.05, 50
    C_STAR = 5  # min(1, 2 c / 200) <= 0.05 exactly for c <= 5

    @staticmethod
    def scripted_tally(le, ge, served):
        """A `tally_draws` stand-in: draw k of every replication's stream is
        <= / >= the observed statistic of test t iff le[k, t] / ge[k, t]."""

        def fake(lane, kinds, observed, samples, first_draw, n_draws):
            served.append((first_draw, n_draws))
            window = slice(first_draw, first_draw + n_draws)
            counts = np.stack((le[window].sum(axis=0), ge[window].sum(axis=0)))
            return np.repeat(counts[:, :, None], len(samples), axis=2)

        return fake

    @staticmethod
    def full_decision(le, ge, n_perm, alpha):
        c = np.minimum(le.sum(axis=0), ge.sum(axis=0))
        return (np.minimum(1.0, 2.0 * c / n_perm) <= alpha).astype(np.int64)

    @pytest.mark.parametrize("side", ["le", "ge"])
    @pytest.mark.parametrize("final", [C_STAR, C_STAR + 1], ids=["reject", "keep"])
    @pytest.mark.parametrize("deciding_draw", [149, 150, 199],
                             ids=["end_of_step3", "start_of_step4", "last_draw"])
    def test_boundary_decisions_match_full_tally(self, monkeypatch, side, final, deciding_draw):
        n = self.N_PERM
        tight = np.zeros(n, dtype=bool)  # the tally that decides test 0
        tight[: final - 1] = True
        tight[deciding_draw] = True
        # test 0 sits at the threshold; test 1 is settled in the first step
        # and the other tally of test 0 never can reject
        wide = np.ones(n, dtype=bool)
        le = np.stack([tight if side == "le" else wide, wide], axis=1)
        ge = np.stack([wide if side == "le" else tight, wide], axis=1)
        served = []
        monkeypatch.setattr(permutation, "tally_draws", self.scripted_tally(le, ge, served))
        monkeypatch.setattr(permutation, "_MAX_STEP_DRAWS", self.STEP)
        sc = Scenario(Normal(0, 1), Normal(0, 1), 7, 7, n_reps=1,
                      tests=(TK.parse("pm"), TK.parse("n")), alpha=self.ALPHA,
                      n_perm=n, master_seed=3)
        got = _simulate_chunk(sc, 0, 1).rejections
        assert got.tolist() == self.full_decision(le, ge, n, self.ALPHA).tolist()
        assert got.tolist() == [int(final == self.C_STAR), 0]
        # steps tile [0, drawn) in order; only a 6th count before the last
        # step settles the replication early
        drawn = served[-1][0] + served[-1][1]
        assert served == [(a, self.STEP) for a in range(0, drawn, self.STEP)]
        assert drawn == (150 if (final, deciding_draw) == (self.C_STAR + 1, 149) else n)

    @pytest.mark.parametrize("dist1,dist2,n1,n2", [
        (Normal(0, 1), Normal(0, 3), 7, 7),
        (BetaLatent(5, 4, 5), BetaLatent(5, 4, 5), 15, 45),
    ], ids=["normal_7_7", "beta_latent_15_45"])
    def test_rates_equal_full_tally_with_fewer_draws(self, monkeypatch, dist1, dist2, n1, n2):
        n_reps, n_perm = 64, 2000
        sc = Scenario(dist1, dist2, n1, n2, n_reps=n_reps, tests=PERM_BATTERY,
                      n_perm=n_perm, master_seed=17)
        x1, x2 = _draw_chunk(sc, 0, n_reps)
        m = moments_from_values(x1, x2)
        observed_all = np.array([stat for stat, _ in stat_arrays(m, PERM_BATTERY)])
        reference = np.zeros(len(PERM_BATTERY), dtype=np.int64)
        for r in range(n_reps):
            labels = tie_runs(x1[r], x2[r])[0]
            seed_r = rep_permutation_seed(sc.master_seed, r)
            n_le, n_ge = tally_one(one_lane(labels, n1, seed_r, n_perm), PERM_BATTERY,
                                   observed_all[:, r], 0, n_perm)
            reference += self.full_decision(n_le[None, :], n_ge[None, :], n_perm, sc.alpha)
        drawn = []

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            drawn.append(len(samples) * n_draws)
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        # below n_perm / 2, so a replication settled in its first step shows
        monkeypatch.setattr(permutation, "_MAX_STEP_DRAWS", 250)
        summary = run_scenario(sc)
        assert summary.rejection_rate == {
            kind.label(): float(reference[i]) / n_reps for i, kind in enumerate(PERM_BATTERY)
        }
        assert sum(drawn) / n_reps < n_perm / 2

    def test_step_capped_at_the_cache_sized_block(self, monkeypatch):
        """At 150/150 tie-free the block is below the default step; every
        block stays within it and the decisions equal one full tally."""
        n_reps, n_perm = 4, 10_000
        sc = Scenario(Normal(0, 1), Normal(0.25, 1), 150, 150, n_reps=n_reps,
                      tests=PERM_BATTERY, n_perm=n_perm, master_seed=29)
        block = permutation._block_draws(150, 150, 300)
        assert block < min(permutation._MAX_STEP_DRAWS, n_perm // 8)
        x1, x2 = _draw_chunk(sc, 0, n_reps)
        m = moments_from_values(x1, x2)
        observed_all = np.array([stat for stat, _ in stat_arrays(m, PERM_BATTERY)])
        labels = tie_runs(x1, x2)[0]
        drawn = []

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            drawn.append(len(samples) * n_draws)
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        for r in range(n_reps):
            seed_r = rep_permutation_seed(sc.master_seed, r)
            lane = one_lane(labels[r], 150, seed_r, n_perm)
            n_le, n_ge = tally_one(lane, PERM_BATTERY, observed_all[:, r], 0, n_perm)
            with monkeypatch.context() as mp:
                mp.setattr(permutation, "tally_draws", spy)
                got = _simulate_chunk(sc, r, r + 1).rejections
            want = self.full_decision(n_le[None, :], n_ge[None, :], n_perm, sc.alpha)
            assert got.astype(np.int64).tolist() == want.tolist()
        assert drawn and max(drawn) <= block

    def test_default_step_scales_with_n_perm(self, monkeypatch):
        n_reps, n_perm = 64, 2000
        sc = Scenario(Normal(0, 1), Normal(0, 3), 7, 7, n_reps=n_reps, tests=PERM_BATTERY,
                      n_perm=n_perm, master_seed=17)
        steps, drawn = [], []

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            steps.append(n_draws)
            drawn.append(len(samples) * n_draws)
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        run_scenario(sc)
        assert max(steps) == 256
        assert sum(drawn) / n_reps < n_perm / 2


class TestRejectThreshold:
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.3, 0.5])
    def test_threshold_is_the_final_decision(self, alpha):
        """c <= c* is exactly the decision min(1, 2c / n_perm) <= alpha."""
        for n_perm in range(1, 6001):
            c = np.arange(n_perm + 1)
            c_star = simulate._reject_threshold(n_perm, alpha)
            assert np.array_equal(c <= c_star, np.minimum(1.0, 2.0 * c / n_perm) <= alpha), n_perm

    @pytest.mark.parametrize("alpha,want", [(0.001, 5 * 10**11), (0.05, 25 * 10**12),
                                            (0.5, 25 * 10**13)])
    def test_huge_n_perm_in_constant_memory(self, alpha, want):
        """c* for n_perm = 10**15 is the largest c with 2c / n_perm <= alpha,
        found without memory in proportion to n_perm."""
        n_perm = 10**15
        tracemalloc.start()
        try:
            c_star = simulate._reject_threshold(n_perm, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c_star == want
        assert 2.0 * c_star / n_perm <= alpha < 2.0 * (c_star + 1) / n_perm
        assert peak < 64 * 2**10


class TestRejectionScreen:
    """Rows with |stat| below the screen bound skip the p-value, and every count stays exact."""

    @staticmethod
    def boundary_stats(alpha):
        """Statistics on both sides of z* = -ndtri(alpha / 2), within 1e-12 of it, and spread around."""
        rng = np.random.default_rng(17)
        z = -ndtri(alpha / 2)
        if np.isfinite(z):
            near = z * (1 + np.linspace(-1e-12, 1e-12, 41))
            spread = rng.uniform(0, 2 * z, 200)
        else:
            near, spread = np.array([30.0, 38.0, 38.5, 39.0, 40.0]), np.array([0.0, 1.0, 1e3])
        stat = np.concatenate([near, -near, spread, -spread, [np.nan, np.inf, -np.inf]])
        return np.concatenate([stat, np.nextafter(stat, 0), np.nextafter(stat, 2 * stat)])

    @pytest.mark.parametrize("alpha", [5e-324, 1e-10, 0.05, 0.5, 0.999])
    @pytest.mark.parametrize("df", [None, 1e-3, 1.0, 2.5, 1e16, np.inf, np.nan])
    def test_screened_count_equals_full_count(self, alpha, df):
        stat = self.boundary_stats(alpha)
        dfs = None if df is None else np.full(stat.shape, df)
        want = int(np.count_nonzero(p_value_arrays(stat, dfs) <= alpha))
        assert simulate._rejections(stat, dfs, alpha, simulate._screen_bound(alpha)) == want
        if df is None:
            assert 0 < want < stat.size

    def test_underflowing_alpha_screens_nothing(self):
        """alpha / 2 underflows to 0 at 5e-324: ndtri gives -inf and every row is scored."""
        assert simulate._screen_bound(5e-324) is None
        assert simulate._rejections(np.array([1e3, -1e3, 1.0]), None, 5e-324, None) == 2

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5])
    def test_chunk_scores_only_open_rows(self, monkeypatch, alpha):
        sc = Scenario(Normal(0, 1), Normal(0.3, 1), 9, 12, n_reps=1024, alpha=alpha)
        m = moments_from_values(*_draw_chunk(sc, 0, 1024))
        want = [int(np.count_nonzero(p_value_arrays(stat, df) <= alpha))
                for stat, df in stat_arrays(m, sc.tests)]
        scored = []

        def spy(stat, df):
            scored.append(stat.size)
            return p_value_arrays(stat, df)

        monkeypatch.setattr(simulate, "p_value_arrays", spy)
        assert _simulate_chunk(sc, 0, 1024).rejections.tolist() == want
        assert len(scored) == len(sc.tests) and sum(scored) < len(sc.tests) * 1024


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

    def test_run_scenarios_shares_one_pool(self, monkeypatch):
        scenarios = [
            Scenario(Normal(0, 1), Normal(0, 3), 8, 12, n_reps=1500, tests=BATTERY, master_seed=3),
            Scenario(BetaLatent(5, 4, 5), BetaLatent(5, 4, 5), 7, 9, n_reps=900, tests=(),
                     master_seed=4),
            Scenario(Normal(0, 1), Normal(0, 1), 7, 7, n_reps=30, tests=(TK.parse("pm"),),
                     n_perm=50, master_seed=5),
        ]
        alone = [run_scenario(sc) for sc in scenarios]
        pools = []
        map_tasks = simulate.map_tasks

        def spy(fn, tasks, threads):
            pools.append(len(tasks))
            return map_tasks(fn, tasks, threads)

        monkeypatch.setattr(simulate, "map_tasks", spy)
        assert run_scenarios(scenarios, threads=2) == alone
        assert pools == [2 + 1 + 1]
        assert run_scenarios([], threads=2) == []

    def test_draws_depend_only_on_rep_index(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 5, 6, n_reps=100, master_seed=5)
        x1a, x2a = _draw_chunk(sc, 40, 60)
        x1b, x2b = _draw_chunk(sc, 50, 60)
        assert np.array_equal(x1a[10:], x1b) and np.array_equal(x2a[10:], x2b)


class TestChunkBound:
    """A chunk holds at most 2**20 pooled values, and 1024 replications whenever
    n1 + n2 <= 1024."""

    def test_large_arms_tile_small_chunks(self, monkeypatch):
        sc = Scenario(Normal(0, 1), Normal(0, 2), 3000, 3000, n_reps=400,
                      tests=(TK.parse("pm:df2"), TK.parse("bm_logit")), master_seed=8)
        chunks = []
        map_tasks = simulate.map_tasks

        def spy(fn, tasks, threads):
            chunks.append([(a, b) for _, a, b in tasks])
            return map_tasks(fn, tasks, threads)

        monkeypatch.setattr(simulate, "map_tasks", spy)
        assert run_scenario(sc, threads=1) == run_scenario(sc, threads=2)
        assert chunks[0] == chunks[1] and len(chunks[0]) > 1
        starts, stops = zip(*chunks[0])
        assert starts[0] == 0 and stops[-1] == sc.n_reps and starts[1:] == stops[:-1]
        assert all(0 < (b - a) * (sc.n1 + sc.n2) <= 2**20 for a, b in chunks[0])

    @pytest.mark.parametrize("n1,n2", [(2, 2), (15, 15), (15, 45), (512, 512), (1000, 24)])
    def test_small_arms_keep_full_chunks(self, n1, n2):
        sc = Scenario(Normal(0, 1), Normal(0, 1), n1, n2, n_reps=2500, tests=())
        assert simulate._chunk_bounds(sc) == [(0, 1024), (1024, 2048), (2048, 2500)]

    def test_huge_arm_gets_one_replication_per_chunk(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), 2**20, 2, n_reps=3, tests=())
        assert simulate._chunk_bounds(sc) == [(0, 1), (1, 2), (2, 3)]

    def test_bounded_chunk_peak(self):
        """At 1024 rows this chunk reads about 246 MiB; bounded, it holds about 42."""
        sc = Scenario(Normal(0, 1), Normal(0, 3), 3000, 3000, n_reps=2000)
        (start, stop), *_ = simulate._chunk_bounds(sc)
        _simulate_chunk(Scenario(Normal(0, 1), Normal(0, 3), 15, 15, n_reps=50), 0, 50)
        tracemalloc.start()
        try:
            _simulate_chunk(sc, start, stop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestScoringBuffers:
    """The key scorer keeps its (reps, N) arrays in per-thread buffers: reused
    across scenarios of any size, never shared between threads, and never
    larger than a chunk's 2**20 pooled values."""

    A = Scenario(Normal(0, 1), Normal(0, 3), 15, 45, n_reps=1500, master_seed=5)
    B = Scenario(Exponential(2.3333), Exponential(1.0), 30, 7, n_reps=1100, master_seed=6)

    @staticmethod
    def _json(summary):
        return json.dumps(dataclasses.asdict(summary), sort_keys=True)

    def test_reuse_across_sizes_equals_a_fresh_process(self):
        code = ("import dataclasses, json\n"
                "from releff import Normal, Scenario, run_scenario\n"
                "sc = Scenario(Normal(0, 1), Normal(0, 3), 15, 45, n_reps=1500, master_seed=5)\n"
                "print(json.dumps(dataclasses.asdict(run_scenario(sc)), sort_keys=True))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stdout.strip()
        got = [self._json(run_scenario(sc)) for sc in (self.A, self.B, self.A)]
        assert got[0] == got[2] == fresh

    def test_buffers_hold_at_most_a_chunk(self):
        big = Scenario(Normal(0, 1), Normal(0, 2), 3000, 3000, n_reps=200, tests=())
        (start, stop), *_ = simulate._chunk_bounds(big)
        _simulate_chunk(big, start, stop)
        kept = _batch._held.buffers
        assert (stop - start) * 6000 <= kept.shape[1] <= _batch.BUFFER_VALUES == 2**20
        # a larger batch is scored in fresh arrays, which are not kept
        keys, spare = _batch._thread_buffers(1, 2**20 + 1)
        assert _batch._held.buffers is kept
        assert not (np.shares_memory(keys, kept) or np.shares_memory(spare, kept))

    def test_threads_score_apart(self):
        """More threads than cores, switching often, scoring two continuous
        scenarios of different sizes at once: each gets its serial result."""
        scenarios = (self.A, self.B)
        want = [self._json(run_scenario(sc)) for sc in scenarios]
        n_threads = min((os.cpu_count() or 1) + 2, 32)
        got = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def work(i):
            start.wait(timeout=60)
            for _ in range(3):
                got[i].append(self._json(run_scenario(scenarios[i % 2])))

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want[i % 2]] * 3 for i in range(n_threads)]


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

    def test_permutation_scenario_at_the_exact_sums_bound_is_refused(self):
        """A scenario with draws is refused at 2**21 pooled values, where a
        draw's int64 sums could overflow; one value fewer, or no draws, builds."""
        entry = {"dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 2**20, "n2": 2**20,
                 "n_reps": 10, "tests": ["pm"], "n_perm": 100}
        with pytest.raises(ConfigError, match="2097152 pooled values"):
            scenario_from_dict(entry)
        assert scenario_from_dict({**entry, "n2": 2**20 - 1}).n_perm == 100
        assert scenario_from_dict({**entry, "n_perm": None}).n2 == 2**20

    def test_permutation_scenario_without_tests_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a scenario without tests drew permutations")

        monkeypatch.setattr(permutation, "tally_draws", no_draws)
        base = dict(dist1=Normal(0, 1), dist2=Normal(0, 1), n1=7, n2=7, n_reps=5, tests=())
        summary = run_scenario(Scenario(**base, n_perm=50))
        assert summary == run_scenario(Scenario(**base))
        assert summary.rejection_rate == {}

    def test_from_dict_and_file(self, tmp_path):
        entry = {"dist1": "N(0,1)", "dist2": "BL(5,4,5)", "n1": 8, "n2": 9,
                 "n_reps": 12, "tests": ["wmw", "pm:df1"], "seed": 4, "alpha": 0.1}
        sc = scenario_from_dict(entry)
        assert sc.dist2 == BetaLatent(5, 4, 5)
        assert sc.alpha == 0.1
        assert sc.tests[1].label() == "pm:df1"
        path = tmp_path / "s.cfg"
        path.write_text(json.dumps({"scenarios": [entry]}))
        loaded = load_scenarios(path)
        assert loaded == [sc]
        assert load_scenarios(path, seed_override=77)[0].master_seed == 77

    def test_spaces_around_the_df_colon(self, tmp_path):
        """A scenario file's test label may hold spaces around its colon."""
        entry = {"dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 8, "n2": 9, "n_reps": 12,
                 "tests": ["pm: df2", "bm : df1", "n :df"]}
        path = tmp_path / "s.cfg"
        path.write_text(json.dumps([entry]))
        sc, = load_scenarios(path)
        assert [kind.label() for kind in sc.tests] == ["pm:df2", "bm:df1", "n:df"]

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
