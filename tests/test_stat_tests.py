import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from releff import Degeneracy, DfKind, TwoSamples, run_test
from releff import TestKind as TK
from releff import variance
from releff._batch import moments_from_values
from releff.dof import degrees_of_freedom
from releff.stat_tests import FAMILIES, T_FAMILIES, p_value_arrays, stat_arrays, statistics
from releff.variance import var_bm, var_pm, var_unbiased, var_wmw
from oracles import statistic as oracle_statistic
from tests_util import random_dataset

TOY = TwoSamples([1, 2, 3], [2, 3, 4])
ALL_KINDS = [TK.parse(s) for s in
             ("wmw", "n:df2", "bm:df2", "pm:df2", "n_logit", "bm_logit", "pm_logit")]


def t_density(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def t_cdf_oracle(x, df):
    """Independent quadrature oracle for the t CDF."""
    if x >= 0:
        return 1.0 - quad(t_density, x, np.inf, args=(df,))[0]
    return quad(t_density, -np.inf, x, args=(df,))[0]


class TestKindParsing:
    def test_defaults_and_labels(self):
        assert TK.parse("pm").df_kind is DfKind.DF2
        assert TK.parse("pm:df4").label() == "pm:df4"
        assert TK.parse("wmw").df_kind is None

    def test_rejects_df_on_normal_kinds(self):
        with pytest.raises(ValueError):
            TK("wmw", DfKind.DF)
        with pytest.raises(ValueError):
            TK("bm_logit", DfKind.DF2)
        with pytest.raises(ValueError):
            TK("anova")


class TestReferencePValues:
    """p_value_arrays against the normal (df None) and Student t references."""

    def test_normal_reference_values(self):
        assert p_value_arrays(0.0, None) == 1.0
        assert p_value_arrays(1.959964, None) == pytest.approx(0.05, abs=2e-6)
        # erfc-based oracle, exact to machine precision
        for x in (0.3, 1.0, 2.5, -4.0):
            assert p_value_arrays(x, None) == pytest.approx(math.erfc(abs(x) / math.sqrt(2)),
                                                            abs=1e-12)
            assert p_value_arrays(x, None, "greater") == pytest.approx(
                0.5 * math.erfc(x / math.sqrt(2)), abs=1e-12)

    def test_t_reference_values(self):
        assert p_value_arrays(0.0, 3.7) == 1.0
        # Cauchy: P(T_1 > 1) = 1/4
        assert p_value_arrays(1.0, 1.0, "greater") == pytest.approx(0.25, abs=1e-12)
        assert p_value_arrays(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        # quadrature-verified gap to the normal at df=60
        gap = p_value_arrays(2.0, 60.0, "less") - p_value_arrays(2.0, None, "less")
        assert abs(gap) == pytest.approx(0.0022664, abs=1e-6)
        for x, df in [(1.336306, 4.0), (-2.2, 6.5), (0.7, 11.0)]:
            assert p_value_arrays(x, df, "less") == pytest.approx(t_cdf_oracle(x, df), abs=1e-10)
            assert p_value_arrays(x, df) == pytest.approx(
                2 * (1 - t_cdf_oracle(abs(x), df)), abs=1e-10)

    def test_t_reference_converges_to_normal(self):
        grid = np.linspace(-5, 5, 41)
        gap = np.abs(p_value_arrays(grid, 1e6, "less") - p_value_arrays(grid, None, "less"))
        assert gap.max() < 1e-5

    @given(st.floats(min_value=-8.0, max_value=8.0),
           st.one_of(st.none(), st.floats(min_value=0.5, max_value=1e4)))
    def test_sides_agree(self, stat, df):
        greater = p_value_arrays(stat, df, "greater")
        less = p_value_arrays(stat, df, "less")
        assert greater + less == pytest.approx(1.0, abs=1e-12)
        assert p_value_arrays(stat, df) == min(1.0, 2.0 * min(greater, less))

    def test_arrays_match_scalars(self, rng):
        stat = rng.normal(scale=3.0, size=40)
        df = rng.uniform(1.0, 80.0, size=40)
        for alternative in ("two-sided", "greater", "less"):
            for dfs in (None, df):
                got = p_value_arrays(stat, dfs, alternative)
                want = [p_value_arrays(s, None if dfs is None else d, alternative)
                        for s, d in zip(stat, df)]
                assert np.array_equal(got, want)


class TestRunTest:
    def test_bm_with_df(self):
        res = run_test(TOY, TK("bm", DfKind.DF))
        assert res.statistic == pytest.approx((5 / 18) / math.sqrt(7 / 162), abs=1e-9)
        assert res.statistic == pytest.approx(1.33631, abs=1e-5)
        assert res.df == pytest.approx(4.0)
        assert res.p_value == pytest.approx(2 * (1 - t_cdf_oracle(res.statistic, 4.0)), abs=1e-9)
        assert res.p_value == pytest.approx(0.2524, abs=1e-4)

    def test_wmw_statistic(self):
        res = run_test(TOY, TK("wmw"))
        assert res.statistic == pytest.approx((5 / 18) / math.sqrt(3.3 / 54), abs=1e-9)
        assert res.df is None

    def test_bm_logit_statistic(self):
        res = run_test(TOY, TK("bm_logit"))
        expected = (14 / 81) * math.log(3.5) / math.sqrt(7 / 162)
        assert res.statistic == pytest.approx(expected, abs=1e-9)
        assert res.statistic == pytest.approx(1.04165, abs=1e-5)

    def test_identical_samples_never_reject(self):
        d = TwoSamples([1, 4, 9, 16], [1, 4, 9, 16])
        for kind in ALL_KINDS:
            res = run_test(d, kind)
            assert res.statistic == 0.0
            assert res.p_value == 1.0

    def test_one_sided_variants(self):
        res_g = run_test(TOY, TK("wmw"), alternative="greater")
        res_l = run_test(TOY, TK("wmw"), alternative="less")
        res_2 = run_test(TOY, TK("wmw"))
        assert res_g.p_value + res_l.p_value == pytest.approx(1.0, abs=1e-12)
        assert res_2.p_value == pytest.approx(2 * min(res_g.p_value, res_l.p_value), abs=1e-12)

    def test_arm_swap_antisymmetry(self, rng):
        for _ in range(50):
            x1, x2 = random_dataset(rng)
            a, b = TwoSamples(x1, x2), TwoSamples(x2, x1)
            for kind in ALL_KINDS:
                ra, rb = run_test(a, kind), run_test(b, kind)
                assert ra.statistic == pytest.approx(-rb.statistic, abs=1e-10)
                assert ra.p_value == pytest.approx(rb.p_value, abs=1e-10)

    def test_logit_sign_agrees_with_plain(self, rng):
        for _ in range(50):
            x1, x2 = random_dataset(rng)
            d = TwoSamples(x1, x2)
            plain = run_test(d, TK("pm")).statistic
            logit = run_test(d, TK("pm_logit")).statistic
            if run_test(d, TK("pm")).effect.p_hat != 0.5:
                assert np.sign(plain) == np.sign(logit)

    @given(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=2.0, max_value=40.0))
    def test_p_value_monotone_in_statistic(self, t, df):
        lo = p_value_arrays(abs(t), df)
        hi = p_value_arrays(abs(t) + 0.5, df)
        assert hi < lo


class TestExternalOracles:
    """scipy.stats ships independent implementations of two of the tests."""

    def test_bm_matches_scipy_brunnermunzel(self, rng):
        from scipy import stats as sps

        for _ in range(100):
            x1, x2 = random_dataset(rng)
            ours = run_test(TwoSamples(x1, x2), TK("bm", DfKind.DF))
            ref = sps.brunnermunzel(x1, x2, alternative="two-sided", distribution="t")
            assert abs(ours.statistic) == pytest.approx(abs(ref.statistic), abs=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_wmw_matches_scipy_mannwhitneyu(self, rng):
        from scipy import stats as sps

        for _ in range(100):
            x1, x2 = random_dataset(rng)
            ours = run_test(TwoSamples(x1, x2), TK("wmw"))
            ref = sps.mannwhitneyu(x2, x1, alternative="two-sided",
                                   method="asymptotic", use_continuity=False)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


class TestDegenerateInputs:
    def test_separated_statistics_finite_and_flagged(self):
        d = TwoSamples([1, 2, 3, 4, 5, 6, 7], [11, 12, 13, 14, 15, 16, 17])
        for kind in ALL_KINDS:
            res = run_test(d, kind)
            assert math.isfinite(res.statistic)
            assert 0.0 <= res.p_value <= 1.0
            if kind.family != "wmw":
                assert res.degenerate is Degeneracy.SEPARATED

    def test_separated_plain_statistic_uses_adjusted_effect(self):
        d = TwoSamples([1, 2, 3, 4, 5, 6, 7], [11, 12, 13, 14, 15, 16, 17])
        res = run_test(d, TK("n"))
        # adjusted p = 1 - 1/49, floored variance = 1/49^2
        assert res.statistic == pytest.approx((0.5 - 1 / 49) * 49, abs=1e-12)

    def test_all_tied_statistics_zero(self):
        d = TwoSamples([2] * 7, [2] * 7)
        for kind in ALL_KINDS:
            res = run_test(d, kind)
            assert res.statistic == 0.0
            assert res.p_value == 1.0
            assert res.degenerate is Degeneracy.ALL_TIED

    def test_never_nan(self, rng):
        cases = [
            (np.zeros(5), np.zeros(5)),
            (np.zeros(5), np.ones(5)),
            (np.arange(5.0), np.arange(5.0) + 100.0),
            (np.ones(5), np.r_[np.zeros(3), 2.0, 2.0]),
        ]
        for x1, x2 in cases:
            for kind in ALL_KINDS:
                res = run_test(TwoSamples(x1, x2), kind)
                assert math.isfinite(res.statistic)
                assert math.isfinite(res.p_value)


class TestBatteryScorer:
    """One battery call computes what each kind's formula gives alone."""

    KINDS = [TK(f) for f in FAMILIES if f not in T_FAMILIES] + [
        TK(f, df) for f in T_FAMILIES for df in DfKind]

    @staticmethod
    def assert_scores(m, kinds):
        want = [oracle_statistic(m, kind) for kind in kinds]
        want_df = [degrees_of_freedom(m, k.df_kind) if k.uses_t else None for k in kinds]
        for got in ([s for kind in kinds for s in statistics(m, [kind])], statistics(m, kinds)):
            for g, w, kind in zip(got, want, kinds, strict=True):
                assert np.array_equal(g, w), kind.label()
        for got in ([p for kind in kinds for p in stat_arrays(m, [kind])], stat_arrays(m, kinds)):
            for (stat, df), w, w_df, kind in zip(got, want, want_df, kinds, strict=True):
                assert np.array_equal(stat, w), kind.label()
                assert (df is None) == (w_df is None), kind.label()
                assert w_df is None or np.array_equal(df, w_df), kind.label()

    @given(seed=st.integers(0, 2**32 - 1), n1=st.integers(4, 9), n2=st.integers(4, 9),
           levels=st.sampled_from([None, 2, 5]),
           battery=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    def test_equals_per_kind_oracle(self, seed, n1, n2, levels, battery):
        """Every family x DfKind, on a batch with all-tied and separated
        rows and on each row's one-dataset summary, for the whole battery,
        each kind alone and any sub-battery (repeats, any order)."""
        rng = np.random.default_rng(seed)
        if levels is None:
            x1, x2 = rng.normal(size=(6, n1)), rng.normal(size=(6, n2))
        else:
            x1 = rng.integers(0, levels, size=(6, n1)).astype(float)
            x2 = rng.integers(0, levels, size=(6, n2)).astype(float)
        x1[0], x2[0] = 2.0, 2.0  # all tied
        x1[1], x2[1] = np.arange(n1), np.arange(n2) + n1  # separated, arm 2 above
        x1[2], x2[2] = np.arange(n1) + n2, np.arange(n2)  # separated, arm 1 above
        for m in [moments_from_values(x1, x2)] + [TwoSamples(a, b).moments
                                                   for a, b in zip(x1, x2)]:
            self.assert_scores(m, self.KINDS)
            self.assert_scores(m, battery)


class TestRawVarianceOnce:
    """Each raw variance is computed once per summary, however many readers it has."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        estimate = variance._raw_estimate

        def spy(m, kind):
            calls.append(kind)
            return estimate(m, kind)

        monkeypatch.setattr(variance, "_raw_estimate", spy)
        return calls

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
    def test_run_test_computes_its_variance_once(self, calls, kind):
        """The statistic and the `degeneracy` flag read one computation."""
        for x1, x2 in [([1, 2, 3, 5], [2, 3, 4, 8]), ([1] * 4, [2] * 5), ([2] * 4, [2] * 4)]:
            calls.clear()
            res = run_test(TwoSamples(x1, x2), kind)
            assert calls == [kind.variance_kind]
            assert res.degenerate is run_test(TwoSamples(x1, x2), kind).degenerate

    def test_battery_on_one_dataset_computes_each_variance_once(self, calls, rng):
        x1, x2 = random_dataset(rng, lo=6, hi=12)
        d = TwoSamples(x1, x2)
        results = [run_test(d, kind) for kind in ALL_KINDS]
        assert sorted(calls) == sorted({kind.variance_kind for kind in ALL_KINDS})
        for kind, res in zip(ALL_KINDS, results):
            alone = run_test(TwoSamples(x1, x2), kind)
            assert (res.statistic, res.df, res.p_value, res.degenerate) == (
                alone.statistic, alone.df, alone.p_value, alone.degenerate), kind.label()

    def test_variance_wrappers_share_the_summary_cache(self, calls, rng):
        """After a battery, the `var_*` wrappers on the same summary compute nothing."""
        x1, x2 = random_dataset(rng)
        d = TwoSamples(x1, x2)
        for kind in ALL_KINDS:
            run_test(d, kind)
        computed = len(calls)
        wrappers = (var_wmw, var_unbiased, var_bm, var_pm)
        cached = [f(d if f is var_wmw else d.moments) for f in wrappers]
        assert len(calls) == computed
        fresh = TwoSamples(x1, x2)
        assert cached == [f(fresh if f is var_wmw else fresh.moments) for f in wrappers]
