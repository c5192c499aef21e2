from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from releff import SizeTooSmall, TwoSamples, estimate_effect
from oracles import count, p_hat_via_ranks, pairwise_moments

arm = st.lists(st.integers(min_value=-5, max_value=5).map(float), min_size=2, max_size=20)


def brute_effect(x1, x2):
    """Moment quantities straight from their pairwise definitions, in Fractions."""
    c = {(i, j): Fraction(count(x2[j], x1[i])) for i in range(len(x1)) for j in range(len(x2))}
    n1, n2 = len(x1), len(x2)
    p = sum(c.values()) / (n1 * n2)
    beta = Fraction(sum(a == b for a in x1 for b in x2), n1 * n2)
    s2_at_x1 = [sum(c[i, j] for j in range(n2)) / n2 for i in range(n1)]
    f1_at_x2 = [sum(c[i, j] for i in range(n1)) / n1 for j in range(n2)]
    tau1 = sum(v**2 for v in s2_at_x1) / n1
    tau2 = sum(v**2 for v in f1_at_x2) / n2
    return p, beta, tau1, tau2


TOY = TwoSamples([1, 2, 3], [2, 3, 4])


def test_toy_summary_exact_fractions():
    es = estimate_effect(TOY)
    assert es.p_hat == pytest.approx(7 / 9, abs=1e-15)
    assert es.beta_hat == pytest.approx(2 / 9, abs=1e-15)
    assert es.tau0_hat == pytest.approx(13 / 18, abs=1e-15)
    assert es.tau1_hat == pytest.approx(35 / 54, abs=1e-15)
    assert es.tau2_hat == pytest.approx(35 / 54, abs=1e-15)
    assert es.sigma1_sq == pytest.approx(7 / 108, abs=1e-15)
    assert es.sigma2_sq == pytest.approx(7 / 108, abs=1e-15)
    assert es.sigma1_given_n_sq == pytest.approx(23 / 1296, abs=1e-15)
    assert es.sigma2_given_n_sq == pytest.approx(23 / 1296, abs=1e-15)


def test_estimate_effect_is_the_cached_summary():
    d = TwoSamples([1, 2, 3], [2, 3, 4])
    assert estimate_effect(d) is d.moments


def test_identical_samples_give_half():
    assert estimate_effect(TwoSamples([1, 2], [1, 2])).p_hat == 0.5


def test_complete_separation():
    es = estimate_effect(TwoSamples([1, 2, 3], [4, 5, 6]))
    assert es.p_hat == 1.0
    assert es.beta_hat == 0.0
    assert es.tau1_hat == 1.0 and es.tau2_hat == 1.0
    assert es.separated and not es.all_tied
    assert es.p_hat_adjusted == 1.0 - 1.0 / 9


def test_all_tied_flags():
    es = estimate_effect(TwoSamples([5, 5], [5, 5]))
    assert es.all_tied and not es.separated
    assert es.p_hat == 0.5 and es.beta_hat == 1.0


def test_size_guard():
    with pytest.raises(SizeTooSmall):
        estimate_effect(TwoSamples([1.0, 2.0], [3.0]))


def test_moments_size_guard():
    for x1, x2 in (([1.0], [2.0, 3.0]), ([1.0, 2.0], [3.0])):
        with pytest.raises(SizeTooSmall):
            TwoSamples(x1, x2).moments


@given(arm, arm)
def test_moments_match_brute_force(x1, x2):
    es = estimate_effect(TwoSamples(x1, x2))
    p, beta, tau1, tau2 = brute_effect(x1, x2)
    assert es.p_hat == pytest.approx(float(p), abs=1e-12)
    assert es.beta_hat == pytest.approx(float(beta), abs=1e-12)
    assert es.tau1_hat == pytest.approx(float(tau1), abs=1e-12)
    assert es.tau2_hat == pytest.approx(float(tau2), abs=1e-12)


def test_p_hat_via_ranks_examples():
    assert p_hat_via_ranks(TOY) == pytest.approx(7 / 9, abs=1e-12)
    assert p_hat_via_ranks(TwoSamples([5], [5])) == 0.5
    assert p_hat_via_ranks(TwoSamples([0, 0], [1, 1])) == 1.0


def test_rank_identity_on_random_data(rng):
    from tests_util import random_dataset

    for _ in range(1000):
        x1, x2 = random_dataset(rng)
        d = TwoSamples(x1, x2)
        assert abs(p_hat_via_ranks(d) - estimate_effect(d).p_hat) < 1e-12


@given(arm, arm)
def test_antisymmetry(x1, x2):
    p12 = estimate_effect(TwoSamples(x1, x2)).p_hat
    p21 = estimate_effect(TwoSamples(x2, x1)).p_hat
    assert p12 + p21 == pytest.approx(1.0, abs=1e-12)


@given(arm, arm)
def test_monotone_invariance(x1, x2):
    def lift(v):
        return [np.expm1(t) + 2 * t for t in v]

    a = estimate_effect(TwoSamples(x1, x2))
    b = estimate_effect(TwoSamples(lift(x1), lift(x2)))
    for name in ("p_hat", "beta_hat", "tau0_hat", "tau1_hat", "tau2_hat",
                 "sigma1_sq", "sigma2_sq", "sigma1_given_n_sq", "sigma2_given_n_sq"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)


@given(arm, arm)
def test_ranges_and_split_identity(x1, x2):
    es = estimate_effect(TwoSamples(x1, x2))
    for v in (es.p_hat, es.beta_hat, es.tau0_hat, es.tau1_hat, es.tau2_hat):
        assert -1e-12 <= v <= 1 + 1e-12
    assert es.sigma1_sq >= 0 and es.sigma2_sq >= 0
    n1, n2 = es.n1, es.n2
    unbiased = (
        n2 * es.tau1_hat + n1 * es.tau2_hat - es.tau0_hat
        - (n1 + n2 - 1) * es.p_hat**2
    ) / ((n1 - 1) * (n2 - 1))
    assert es.sigma1_given_n_sq + es.sigma2_given_n_sq == pytest.approx(unbiased, abs=1e-12)


def test_kernel_matches_pairwise_oracle_at_900_1300(rng):
    x1 = rng.integers(0, 40, size=900).astype(float)
    x2 = rng.integers(0, 40, size=1300).astype(float)
    es = estimate_effect(TwoSamples(x1, x2))
    p, beta, tau1, _ = pairwise_moments(x1, x2)
    assert es.p_hat == pytest.approx(p, abs=1e-12)
    assert es.tau1_hat == pytest.approx(tau1, abs=1e-12)
    assert es.beta_hat == pytest.approx(beta, abs=1e-12)
