import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from releff import (
    Degeneracy,
    ShirahataForm,
    ShirahataKind,
    TiesInReducedForm,
    TwoSamples,
    estimate_effect,
    var_bm,
    var_pm,
    var_shirahata,
    var_unbiased,
    var_wmw,
)
from releff import ranks
from oracles import mid_ranks
from tests_util import random_dataset

arm = st.lists(st.integers(min_value=-5, max_value=5).map(float), min_size=2, max_size=15)

TOY = TwoSamples([1, 2, 3], [2, 3, 4])


def brute_shirahata_general(x1, x2, kind):
    """Evaluate the plus-function displays by explicit pair loops."""
    n1, n2 = len(x1), len(x2)
    n = n1 + n2
    t = np.mean([[1.0 if b >= a else 0.0 for a in x1] for b in x2])          # int F1+ dF2
    a_ = np.mean([np.mean([1.0 if b >= a else 0.0 for b in x2]) ** 2 for a in x1])
    b_ = np.mean([np.mean([1.0 if b >= a else 0.0 for a in x1]) ** 2 for b in x2])
    if kind is ShirahataKind.U:
        return (n2 * a_ + n1 * b_ - t - (n - 1) * t * t) / ((n1 - 1) * (n2 - 1))
    if kind is ShirahataKind.B:
        return ((n2 - 1) * a_ + (n1 - 1) * b_ + t - (n - 1) * t * t) / (n1 * n2)
    if kind is ShirahataKind.FP:
        return a_ / n1 + b_ / n2 - (t + (n + 1) * t * t) / (n1 * n2)
    return a_ / (n1 - 1) + b_ / (n2 - 1) - (n - 2) * t * t / ((n1 - 1) * (n2 - 1))


class TestWmw:
    def test_toy_value(self):
        # sum of squared mid-rank deviations is 16.5, so 16.5/5 / (6*9)
        ve = var_wmw(TOY)
        assert ve.raw == pytest.approx(3.3 / 54, abs=1e-15)
        assert ve.value == ve.raw
        assert ve.degenerate is Degeneracy.NONE

    def test_all_tied_floor(self):
        ve = var_wmw(TwoSamples([5, 5], [5, 5]))
        assert ve.raw == 0.0
        assert ve.value == 1 / 16
        assert ve.degenerate is Degeneracy.ALL_TIED

    def test_rank_form_equals_integral_form_tie_free(self, rng):
        for _ in range(200):
            x1, x2 = random_dataset(rng, tie_free=True)
            d = TwoSamples(x1, x2)
            n = d.n
            f_at_points = (mid_ranks(d.pooled()) - 0.5) / n
            integral_form = n**3 / (n - 1) * (np.mean(f_at_points**2) - 0.25)
            assert var_wmw(d).raw * (n * d.n1 * d.n2) == pytest.approx(
                integral_form, abs=1e-12
            )

    def test_forms_agree_under_ties_too(self, rng):
        for _ in range(100):
            x1, x2 = random_dataset(rng)
            d = TwoSamples(x1, x2)
            n = d.n
            f_at_points = (mid_ranks(d.pooled()) - 0.5) / n
            integral_form = n**3 / (n - 1) * (np.mean(f_at_points**2) - 0.25)
            assert var_wmw(d).raw * (n * d.n1 * d.n2) == pytest.approx(
                integral_form, abs=1e-12
            )


class TestUnbiased:
    def test_toy_value(self):
        ve = var_unbiased(estimate_effect(TOY))
        assert ve.raw == pytest.approx(23 / 648, abs=1e-15)
        assert ve.degenerate is Degeneracy.NONE

    def test_separated(self):
        ve = var_unbiased(estimate_effect(TwoSamples([1, 2, 3], [4, 5, 6])))
        assert ve.raw == pytest.approx(0.0, abs=1e-15)
        assert ve.value == 1 / 81
        assert ve.degenerate is Degeneracy.SEPARATED

    def test_all_tied(self):
        ve = var_unbiased(estimate_effect(TwoSamples([2, 2, 2], [2, 2])))
        assert ve.raw == pytest.approx(0.0, abs=1e-15)
        assert ve.value == 1 / 36
        assert ve.degenerate is Degeneracy.ALL_TIED

    def test_exhaustive_unbiasedness_uniform3(self):
        """Average over all 3^6 joint samples equals the exact population value."""
        # population moments for both arms uniform on {1,2,3}
        p, beta = Fraction(1, 2), Fraction(1, 3)
        tau0 = p - beta / 4
        surv = [Fraction(5, 6), Fraction(1, 2), Fraction(1, 6)]
        tau1 = tau2 = sum(s**2 for s in surv) / 3
        assert tau1 == Fraction(35, 108)
        pop = (tau0 + 2 * tau1 + 2 * tau2 - 5 * p**2) / 9
        assert pop == Fraction(25, 486)
        total = 0.0
        for values in itertools.product((1.0, 2.0, 3.0), repeat=6):
            es = estimate_effect(TwoSamples(values[:3], values[3:]))
            total += var_unbiased(es).raw
        assert total / 3**6 == pytest.approx(float(pop), abs=1e-12)


class TestBm:
    def test_toy_value(self):
        ve = var_bm(estimate_effect(TOY))
        assert ve.raw == pytest.approx(7 / 162, abs=1e-15)

    def test_separated_floor(self):
        ve = var_bm(estimate_effect(TwoSamples([0, 0], [1, 1])))
        assert (ve.raw, ve.value) == (0.0, 1 / 16)
        assert ve.degenerate is Degeneracy.SEPARATED

    def test_equals_jackknife_general_on_tie_free_data(self, rng):
        for _ in range(100):
            x1, x2 = random_dataset(rng, tie_free=True)
            d = TwoSamples(x1, x2)
            bm = var_bm(estimate_effect(d)).raw
            j = var_shirahata(d, ShirahataKind.J, ShirahataForm.GENERAL).raw
            assert bm == pytest.approx(j, abs=1e-12)


class TestPm:
    def test_toy_value(self):
        ve = var_pm(estimate_effect(TOY))
        assert ve.raw == pytest.approx(35 / 729, abs=1e-15)

    def test_all_tied_is_quarter_over_n1n2(self):
        ve = var_pm(estimate_effect(TwoSamples([3] * 7, [3] * 7)))
        assert ve.raw == pytest.approx(1 / 196, abs=1e-15)
        assert ve.value == ve.raw
        assert ve.degenerate is Degeneracy.ALL_TIED

    def test_separated_floor(self):
        ve = var_pm(estimate_effect(TwoSamples([1, 2, 3], [4, 5, 6])))
        assert ve.raw == pytest.approx(0.0, abs=1e-15)
        assert ve.value == 1 / 81
        assert ve.degenerate is Degeneracy.SEPARATED


class TestShirahata:
    def test_u_general_equals_unbiased_on_tie_free_data(self, rng):
        for _ in range(100):
            x1, x2 = random_dataset(rng, tie_free=True)
            d = TwoSamples(x1, x2)
            u = var_shirahata(d, ShirahataKind.U, ShirahataForm.GENERAL).raw
            assert u == pytest.approx(var_unbiased(estimate_effect(d)).raw, abs=1e-12)

    def test_hand_example(self):
        d = TwoSamples([1, 3], [2, 4])
        u = var_shirahata(d, ShirahataKind.U, ShirahataForm.GENERAL)
        assert u.raw == pytest.approx(1 / 16, abs=1e-15)
        assert u.raw == pytest.approx(var_unbiased(estimate_effect(d)).raw, abs=1e-15)

    @pytest.mark.parametrize("kind", list(ShirahataKind))
    @given(x1=arm, x2=arm)
    def test_general_form_matches_pair_loops(self, kind, x1, x2):
        d = TwoSamples(x1, x2)
        got = var_shirahata(d, kind, ShirahataForm.GENERAL).raw
        assert got == pytest.approx(brute_shirahata_general(x1, x2, kind), abs=1e-12)

    @pytest.mark.parametrize("kind", list(ShirahataKind))
    def test_reduced_equals_general_on_tie_free_data(self, rng, kind):
        for _ in range(50):
            x1, x2 = random_dataset(rng, tie_free=True)
            d = TwoSamples(x1, x2)
            general = var_shirahata(d, kind, ShirahataForm.GENERAL).raw
            reduced = var_shirahata(d, kind, ShirahataForm.CONTINUOUS_REDUCED).raw
            assert general == pytest.approx(reduced, abs=1e-12)

    @pytest.mark.parametrize("kind", list(ShirahataKind))
    def test_general_form_is_reduced_form_with_ties_broken_arm_1_first(self, kind):
        """On integer data, x2 + 0.5 puts every arm-2 member of a tie run just
        above its arm-1 members, and the reduced form there is the general form."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            n1, n2 = rng.integers(2, 201, size=2)
            levels = rng.integers(2, 7)
            x1 = rng.integers(0, levels, size=n1).astype(float)
            x2 = rng.integers(0, levels, size=n2).astype(float)
            general = var_shirahata(TwoSamples(x1, x2), kind, ShirahataForm.GENERAL).raw
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TiesInReducedForm)
                broken = TwoSamples(x1, x2 + 0.5)
                reduced = var_shirahata(broken, kind, ShirahataForm.CONTINUOUS_REDUCED).raw
            assert general == reduced

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("moments_first", [False, True])
    def test_every_kind_and_form_shares_one_sort(self, monkeypatch, tied, moments_first):
        """The 8 kind x form calls on one dataset sort it at most once, and each
        returns what it returns on a dataset of its own."""
        rng = np.random.default_rng(21)
        x1, x2 = rng.integers(0, 5, size=(2, 40)).astype(float) if tied else rng.normal(size=(2, 40))
        pairs = list(itertools.product(ShirahataKind, ShirahataForm))
        calls = []
        labeller = ranks.tie_runs

        def spy(pooled):
            calls.append(pooled.shape)
            return labeller(pooled)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TiesInReducedForm)
            alone = {pair: var_shirahata(TwoSamples(x1, x2), *pair) for pair in pairs}
            shared = TwoSamples(x1, x2)
            if moments_first:
                estimate_effect(shared)
            monkeypatch.setattr(ranks, "tie_runs", spy)
            for pair in reversed(pairs):
                assert var_shirahata(shared, *pair) == alone[pair], pair
        assert len(calls) == 1

    def test_reduced_warns_on_ties(self):
        # two tied pairs, then one
        for data in (TOY, TwoSamples([1, 2, 3], [3, 4, 5])):
            with pytest.warns(TiesInReducedForm):
                var_shirahata(data, ShirahataKind.U, ShirahataForm.CONTINUOUS_REDUCED)

    def test_reduced_is_silent_on_tie_free_data(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TiesInReducedForm)
            var_shirahata(TwoSamples([1, 2, 3], [4, 5, 6]), ShirahataKind.U, ShirahataForm.CONTINUOUS_REDUCED)

    def test_floors_apply_to_all_kinds(self):
        sep = TwoSamples([1, 2, 3], [4, 5, 6])
        for kind in ShirahataKind:
            ve = var_shirahata(sep, kind, ShirahataForm.GENERAL)
            assert ve.value == 1 / 81
            assert ve.degenerate is Degeneracy.SEPARATED


@given(x1=arm, x2=arm)
def test_positivity_and_floor_invariants(x1, x2):
    d = TwoSamples(x1, x2)
    es = estimate_effect(d)
    for ve in (var_wmw(d), var_unbiased(es), var_bm(es), var_pm(es)):
        assert ve.value > 0
        assert ve.value >= ve.raw
        if ve.degenerate is Degeneracy.NONE:
            assert ve.value == ve.raw


@given(x1=arm, x2=arm)
def test_arm_swap_symmetry(x1, x2):
    a = estimate_effect(TwoSamples(x1, x2))
    b = estimate_effect(TwoSamples(x2, x1))
    assert var_unbiased(a).raw == pytest.approx(var_unbiased(b).raw, abs=1e-12)
    assert var_bm(a).raw == pytest.approx(var_bm(b).raw, abs=1e-12)
    assert var_pm(a).raw == pytest.approx(var_pm(b).raw, abs=1e-12)
