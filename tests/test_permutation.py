import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from releff import InvalidKind, TwoSamples, permutation_test, run_test, shuffle
from releff import TestKind as TK
from releff import permutation
from releff._batch import EXACT_SUMS_BELOW, moments_from_counts, moments_from_perm
from releff.permutation import PermContext, _batch_permutations, tally_draws
from releff.rng import perm_draw_stream, perm_uniforms
from releff.stat_tests import stat_arrays
from releff.tables import PERM_BATTERY
from tests_util import random_dataset

KINDS = [TK.parse(s) for s in ("n", "bm", "pm", "n_logit", "bm_logit", "pm_logit")]


def observed_stats(ctx, kinds):
    """The kernel's statistics for the observed relabelling (arm 1 = pooled[:n1])."""
    mm = moments_from_perm(np.arange(ctx.n1)[None, :], ctx.run_of, ctx.sizes)
    return np.array([stat_arrays(mm, k)[0][0] for k in kinds])


class TestShuffle:
    def test_single_element_is_identity(self):
        g = perm_draw_stream(7, 0, 1)
        assert shuffle([42.0], g).tolist() == [42.0]

    def test_golden_values(self):
        # regression-locked stream outputs for seed 2024
        out0 = shuffle(np.arange(10.0), perm_draw_stream(2024, 0, 10))
        out1 = shuffle(np.arange(10.0), perm_draw_stream(2024, 1, 10))
        assert out0.astype(int).tolist() == [2, 1, 7, 5, 0, 6, 8, 9, 3, 4]
        assert out1.astype(int).tolist() == [2, 3, 7, 0, 5, 1, 6, 4, 9, 8]

    def test_chi_square_uniformity_n3(self):
        counts = {p: 0 for p in itertools.permutations((0, 1, 2))}
        for k in range(60_000):
            out = shuffle(np.arange(3.0), perm_draw_stream(99, k, 3))
            counts[tuple(int(v) for v in out)] += 1
        expected = 60_000 / 6
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.999, df=5)

    def test_batch_matches_scalar_path(self):
        # the truncated relabel leaves arm 1 holding what the full shuffle
        # puts in its first n1 positions, for every split of the same stream
        n = 12
        u = perm_uniforms(555, 0, 20, n)
        values = np.arange(float(n))
        scalar = [shuffle(values, perm_draw_stream(555, k, n)) for k in range(20)]
        for n1 in range(1, n):
            batch = _batch_permutations(u, n, n1)
            for k in range(20):
                assert set(values[batch[k]]) == set(scalar[k][:n1])

    def test_draw_streams_tile_the_sequential_run(self):
        # lanes that regenerate [a, b) reproduce the same uniform rows
        full = perm_uniforms(31, 0, 50, 9)
        for a, b in [(0, 10), (10, 35), (35, 50)]:
            assert np.array_equal(perm_uniforms(31, a, b - a, 9), full[a:b])


class TestPermutationTest:
    def test_rejects_wmw(self):
        with pytest.raises(InvalidKind):
            permutation_test(TwoSamples([1, 2, 3], [4, 5, 6]), TK.parse("wmw"), 10, seed=1)

    def test_determinism(self, rng):
        x1, x2 = random_dataset(rng)
        d = TwoSamples(x1, x2)
        a = permutation_test(d, TK.parse("pm"), n_perm=500, seed=77)
        b = permutation_test(d, TK.parse("pm"), n_perm=500, seed=77)
        assert a == b

    def test_thread_count_does_not_change_tallies(self, rng):
        x1, x2 = random_dataset(rng, lo=8, hi=12)
        d = TwoSamples(x1, x2)
        seq = permutation_test(d, TK.parse("bm"), n_perm=5000, seed=5, threads=1)
        par = permutation_test(d, TK.parse("bm"), n_perm=5000, seed=5, threads=2)
        assert (seq.p1, seq.p2, seq.p_value) == (par.p1, par.p2, par.p_value)

    def test_threads_below_one_rejected(self):
        d = TwoSamples([1, 2, 5, 7], [3, 4, 6, 8])
        for t in (0, -2):
            with pytest.raises(ValueError, match="threads"):
                permutation_test(d, TK.parse("pm"), n_perm=10, seed=1, threads=t)

    def test_tie_counting_identity(self):
        # heavy ties: many permuted statistics equal the observed one, and
        # p1 + p2 = 1 + (fraction of exact ties) >= 1
        d = TwoSamples([1, 1, 2, 2], [1, 2, 2, 2])
        res = permutation_test(d, TK.parse("n"), n_perm=400, seed=3)
        assert res.p1 + res.p2 >= 1.0
        assert res.p_value == min(1.0, 2.0 * min(res.p1, res.p2))

    def test_clamped_at_one(self):
        d = TwoSamples([3, 3, 3, 3], [3, 3, 3, 3])
        res = permutation_test(d, TK.parse("pm"), n_perm=50, seed=11)
        assert res.p1 == res.p2 == 1.0  # every permuted statistic ties the observed 0
        assert res.p_value == 1.0

    def test_n_perm_one_is_well_defined(self):
        d = TwoSamples([1, 2, 5], [3, 4, 6])
        res = permutation_test(d, TK.parse("bm:df"), n_perm=1, seed=8)
        assert res.p1 in (0.0, 1.0) and res.p2 in (0.0, 1.0)
        assert res.p_value in (0.0, 1.0, 2.0 * min(res.p1, res.p2))

    def test_symmetric_null_has_large_p(self):
        # (3,3) needs a df variant defined at that size
        d = TwoSamples([1, 4, 9], [2, 6, 7])
        res = permutation_test(d, TK.parse("pm:df"), n_perm=2000, seed=21)
        assert res.p_value > 0.3

    def test_observed_statistic_is_the_tallied_one(self, rng, monkeypatch):
        """The reported observed statistic is the one the draws are tallied
        against, and the count kernel scores the observed arrangement to the
        same bits, so a draw with the observed arm-1 values ties it."""
        seen = []

        def spy(ctx, kinds, observed, *args):
            seen.append((ctx, observed.copy()))
            return tally_draws(ctx, kinds, observed, *args)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        for i in range(200):
            x1, x2 = random_dataset(rng, tie_free=i % 2 == 0)
            d = TwoSamples(x1, x2)
            for kind in PERM_BATTERY:
                seen.clear()
                res = permutation_test(d, kind, n_perm=1, seed=i)
                (ctx, observed), = seen
                assert res.observed.statistic == observed[0], kind.label()
                assert observed_stats(ctx, [kind])[0] == observed[0], kind.label()

    def test_observed_result_matches_run_test(self, rng):
        x1, x2 = random_dataset(rng)
        d = TwoSamples(x1, x2)
        res = permutation_test(d, TK.parse("pm"), n_perm=10, seed=2)
        assert dataclasses.asdict(res.observed) == dataclasses.asdict(run_test(d, TK.parse("pm")))


class TestBatchStatisticPath:
    def test_permuted_statistics_match_scalar_run_test(self, rng):
        """Each permuted arrangement scored by the kernel equals the scalar test."""
        for _ in range(10):
            x1, x2 = random_dataset(rng, lo=4, hi=9)
            d = TwoSamples(x1, x2)
            pooled = d.pooled()
            ctx = PermContext.from_pooled(pooled, d.n1)
            u = perm_uniforms(17, 0, 6, d.n)
            arm1_sets = _batch_permutations(u, d.n, d.n1)
            mm = moments_from_perm(arm1_sets, ctx.run_of, ctx.sizes)
            for kind in KINDS:
                stats = stat_arrays(mm, kind)[0]
                for row, arm1 in enumerate(arm1_sets):
                    in_arm1 = np.zeros(d.n, dtype=bool)
                    in_arm1[arm1] = True
                    scalar = run_test(
                        TwoSamples(pooled[in_arm1], pooled[~in_arm1]), kind
                    ).statistic
                    assert stats[row] == pytest.approx(scalar, abs=1e-12)

    def test_observed_stats_match_scalar(self, rng):
        for _ in range(20):
            x1, x2 = random_dataset(rng)
            d = TwoSamples(x1, x2)
            ctx = PermContext.from_pooled(d.pooled(), d.n1)
            obs = observed_stats(ctx, KINDS)
            for kind, got in zip(KINDS, obs):
                assert got == pytest.approx(run_test(d, kind).statistic, abs=1e-12)

    @pytest.mark.parametrize("n1,n2", [(15, 15), (15, 45), (7, 10)])
    def test_exact_ties_count_in_both_tallies(self, n1, n2):
        """A draw with the observed arm-1 multiset ties the observed statistic exactly."""
        rng = np.random.default_rng(1000 * n1 + n2)
        pooled = rng.choice(5, size=n1 + n2, p=[0.1, 0.2, 0.4, 0.2, 0.1]).astype(float)
        n, n_draws, seed = n1 + n2, 2048, 9
        ctx = PermContext.from_pooled(pooled, n1)
        observed = observed_stats(ctx, KINDS)
        target = np.sort(pooled[:n1])
        same = np.array([
            np.array_equal(np.sort(shuffle(pooled, perm_draw_stream(seed, k, n))[:n1]), target)
            for k in range(n_draws)
        ])
        assert same.sum() > 0
        n_le, n_ge = tally_draws(ctx, KINDS, observed, seed, 0, n_draws)
        assert np.all(n_le + n_ge - n_draws >= same.sum())
        mm = moments_from_perm(
            _batch_permutations(perm_uniforms(seed, 0, n_draws, n), n, n1), ctx.run_of, ctx.sizes
        )
        for idx, kind in enumerate(KINDS):
            stats = stat_arrays(mm, kind)[0]
            assert np.all(stats[same] == observed[idx]), kind.label()

    @pytest.mark.parametrize("a,sizes", [
        ([1_999_999, 1], [2_000_000, 2_000_000]),
        ([700_000, 1_000_000, 300_000], [1_000_000, 1_500_000, 1_500_000]),
        ([2_000_000, 0, 0], [2_000_001, 1_999_998, 1]),
    ], ids=["two_runs", "three_runs", "arm1_lowest"])
    def test_float_sums_past_int64_bound(self, a, sizes):
        """Arms of 2e6 each, past the int64 bound: float sums, still accurate."""
        n1 = n2 = 2_000_000
        assert n1 + n2 >= EXACT_SUMS_BELOW
        mm = moments_from_counts(np.array([a]), np.array(sizes), n1, n2)
        b = [s - x for s, x in zip(sizes, a)]
        lower1 = [sum(a[:r]) for r in range(len(a))]
        lower2 = [sum(b[:r]) for r in range(len(b))]
        # F1 at an arm-2 value of run r and S2 at an arm-1 value, tie-normalised
        f1 = [Fraction(2 * lo + x, 2 * n1) for lo, x in zip(lower1, a)]
        s2 = [1 - Fraction(2 * lo + y, 2 * n2) for lo, y in zip(lower2, b)]
        p = sum(y * f for y, f in zip(b, f1)) / n2
        tau1 = sum(x * s * s for x, s in zip(a, s2)) / n1
        tau2 = sum(y * f * f for y, f in zip(b, f1)) / n2
        beta = Fraction(sum(x * y for x, y in zip(a, b)), n1 * n2)
        got = (mm.p_hat[0], mm.tau1_hat[0], mm.tau2_hat[0], mm.beta_hat[0])
        for g, want in zip(got, (p, tau1, tau2, beta)):
            assert g == pytest.approx(float(want), rel=1e-12, abs=1e-15)

    def test_lane_split_reproduces_full_tally(self, rng):
        x1, x2 = random_dataset(rng, lo=6, hi=10)
        d = TwoSamples(x1, x2)
        ctx = PermContext.from_pooled(d.pooled(), d.n1)
        obs = observed_stats(ctx, KINDS)
        full_le, full_ge = tally_draws(ctx, KINDS, obs, seed=4, first_draw=0, n_draws=777)
        le = np.zeros_like(full_le)
        ge = np.zeros_like(full_ge)
        for a, b in [(0, 123), (123, 500), (500, 777)]:
            part_le, part_ge = tally_draws(ctx, KINDS, obs, seed=4, first_draw=a, n_draws=b - a)
            le += part_le
            ge += part_ge
        assert np.array_equal(le, full_le) and np.array_equal(ge, full_ge)


def test_exchangeability_calibration():
    """Under F1=F2 continuous at sizes (10,10) the permutation test holds level."""
    from releff import Normal, Scenario, run_scenario

    sc = Scenario(
        Normal(0, 1), Normal(0, 1), 10, 10, n_reps=2000,
        tests=(TK.parse("pm"),), n_perm=999, master_seed=314159,
    )
    rate = run_scenario(sc).rejection_rate["pm:df2"]
    assert abs(rate - 0.05) < 0.015
