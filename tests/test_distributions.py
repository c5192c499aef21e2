import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import betainc, ndtri

from releff import (
    BetaLatent,
    Binomial,
    Exponential,
    NoBracket,
    Normal,
    UnsupportedPair,
    discrete_masses,
    dist_label,
    exact_moments,
    exact_mw_parameter,
    parse_dist,
    population_variance,
    sample,
    solve_target_effect,
)
from releff.distributions import index
from releff.rng import uniforms


class TestSpecsAndParsing:
    def test_roundtrip_labels(self):
        for spec in (Normal(0, 1), Normal(-0.7416, 1), Exponential(2.33333),
                     Binomial(5, 0.6), BetaLatent(1.2071, 1, 5)):
            assert parse_dist(dist_label(spec)) == spec

    def test_parse_flexible(self):
        assert parse_dist(" n(0, 3) ") == Normal(0, 3)
        assert parse_dist("bl(5,4,5)") == BetaLatent(5, 4, 5)
        with pytest.raises(ValueError):
            parse_dist("gamma(2,3)")

    def test_validation(self):
        with pytest.raises(ValueError):
            Normal(0, 0)
        with pytest.raises(ValueError):
            Exponential(-1)
        with pytest.raises(ValueError):
            Binomial(0, 0.5)
        with pytest.raises(ValueError):
            BetaLatent(1, 1, 1)

    def test_beta_latent_masses_sum_to_one(self):
        for spec in (BetaLatent(5, 4, 5), BetaLatent(1.2071, 1, 5), BetaLatent(2, 7, 10)):
            _, probs = discrete_masses(spec)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def open_uniforms(n, seed=20240817):
    return uniforms((seed, 0), 0, 1, n)[0]


class TestSampling:
    def test_normal_moments_at_scale(self):
        x = sample(Normal(0, 1), open_uniforms(1_000_000))
        assert abs(x.mean()) < 4e-3
        assert abs(x.std() - 1.0) < 4e-3

    def test_exponential_tail(self):
        x = sample(Exponential(1.0), open_uniforms(200_000))
        target = math.exp(-1)
        se = math.sqrt(target * (1 - target) / x.size)
        assert abs((x > 1.0).mean() - target) < 3 * se

    def test_binomial_support(self):
        x = sample(Binomial(5, 0.6), open_uniforms(10_000))
        assert set(np.unique(x)) <= set(float(k) for k in range(6))
        assert abs(x.mean() - 3.0) < 0.05

    def test_beta_latent_category_masses(self):
        spec = BetaLatent(5, 4, 5)
        x = sample(spec, open_uniforms(400_000))
        grid = np.arange(6) / 5
        masses = np.diff(betainc(5, 4, grid))
        for k in range(1, 6):
            freq = (x == float(k)).mean()
            se = math.sqrt(masses[k - 1] * (1 - masses[k - 1]) / x.size)
            assert abs(freq - masses[k - 1]) < 4 * se

    def test_beta_latent_values_in_range(self):
        x = sample(BetaLatent(0.3, 0.2, 5), open_uniforms(50_000))
        assert x.min() >= 1.0 and x.max() <= 5.0

    def test_extreme_uniforms_stay_finite(self):
        """The open-uniform map keeps every inverse CDF finite at both ends."""
        lo, hi = (0.5 * 2.0**-52, (2.0**52 - 0.5) * 2.0**-52)
        u = np.array([lo, hi])
        for spec in (Normal(0, 1), Exponential(2.0)):
            assert np.all(np.isfinite(sample(spec, u)))
        assert sample(Binomial(5, 0.6), u).tolist() == [0.0, 5.0]
        assert sample(BetaLatent(5, 4, 5), u).tolist() == [1.0, 5.0]

    @pytest.mark.parametrize("spec", [
        Binomial(5, 0.6), BetaLatent(5, 4, 5), Binomial(7, 0.3), BetaLatent(2, 7, 8),
        Binomial(8, 0.5), Binomial(200, 0.4),
    ], ids=lambda spec: dist_label(spec))
    def test_discrete_index_equals_searchsorted(self, spec):
        """Small supports index by comparisons, large ones by `searchsorted`;
        both give the inverse-CDF value, also for u exactly on a cumulative mass."""
        values, probs = discrete_masses(spec)
        edges = np.cumsum(probs)[:-1]
        u = np.concatenate([open_uniforms(3000), edges, np.nextafter(edges, 0.0)]).reshape(-1, 2)
        expected = values[np.searchsorted(edges, u, side="right")]
        assert np.array_equal(sample(spec, u), expected)

    @given(spec=st.one_of(
        st.builds(Binomial, st.integers(1, 10), st.floats(0.01, 0.99)),
        st.builds(BetaLatent, st.floats(0.2, 8.0), st.floats(0.2, 8.0), st.integers(2, 10)),
    ), data=st.data())
    def test_index_is_searchsorted_right(self, spec, data):
        """On any support size, shape and memory order of u, and for u exactly
        on a cumulative mass, `index` is the intp position searchsorted gives."""
        edges = np.cumsum(discrete_masses(spec)[1])[:-1]
        point = st.one_of(st.floats(0.0, 1.0), st.sampled_from(edges.tolist()))
        values = np.array(data.draw(st.lists(point, min_size=1, max_size=24)))
        shape = data.draw(st.sampled_from(["scalar", "0-d", "1-d", "2-d", "strided"]))
        if shape == "scalar":
            u = values[0]
        elif shape == "0-d":
            u = np.array(values[0])
        elif shape == "1-d":
            u = values
        else:
            u = np.column_stack([values, values[::-1]])
            u = u[:, ::2] if shape == "strided" else u
        got = index(spec, u)
        assert got.dtype == np.intp and got.shape == np.shape(u)
        assert np.array_equal(got, np.searchsorted(edges, u, side="right"))

    @pytest.mark.parametrize("spec", [
        Binomial(5, 0.6), BetaLatent(5, 4, 5), BetaLatent(2, 7, 8), Binomial(200, 0.4),
    ], ids=lambda spec: dist_label(spec))
    def test_sample_is_the_value_at_index(self, spec):
        """A discrete value is its support value at `index`, the position a chunk keeps."""
        u = open_uniforms(3000).reshape(-1, 3)
        idx = index(spec, u)
        assert idx.shape == u.shape
        assert np.array_equal(sample(spec, u), discrete_masses(spec)[0][idx])

    def test_sample_keeps_the_shape_of_u(self):
        u = open_uniforms(24).reshape(4, 6)
        for spec in (Normal(1, 2), Exponential(1.0), Binomial(3, 0.4), BetaLatent(2, 3, 4)):
            x = sample(spec, u)
            assert x.shape == (4, 6)
            assert np.array_equal(x[2], sample(spec, u[2]))

    @pytest.mark.parametrize("arm", ["normal", "power_p07 normal", "power_p07 exponential",
                                     "power_p07 binomial"])
    def test_in_place_sampling_is_sample(self, arm):
        """Sampling each arm's strided slice of a chunk's uniform block in place
        gives the bits of mean + sd * ndtri(u), -log(u) / rate or the support value."""
        from releff.tables import _power_pairs

        calibrated = [d1 for _, d1, _ in _power_pairs()]
        spec = {"normal": Normal(-1.25, 3.0), "power_p07 normal": calibrated[0],
                "power_p07 exponential": calibrated[4], "power_p07 binomial": calibrated[5]}[arm]
        n1, n2 = 9, 14  # 23 columns: the block's rows are strided
        u = uniforms((77, 1 << 60), 0, 64, n1 + n2)
        for part in (u[:, :n1], u[:, n1:]):
            assert not part.flags.c_contiguous
            if isinstance(spec, Normal):
                want = spec.mean + spec.sd * ndtri(part)
            elif isinstance(spec, Exponential):
                want = -np.log(part) / spec.rate
            else:
                want = discrete_masses(spec)[0][index(spec, part)]
            assert np.array_equal(sample(spec, part).view(np.int64), want.view(np.int64))
            got = sample(spec, part, out=part)
            assert got is part
            assert np.array_equal(part.view(np.int64), want.view(np.int64))


def brute_discrete_p(d1, d2):
    v1, f1 = discrete_masses(d1)
    v2, f2 = discrete_masses(d2)
    total = 0.0
    for a, fa in zip(v1, f1):
        for b, fb in zip(v2, f2):
            c = 1.0 if b > a else (0.5 if b == a else 0.0)
            total += fa * fb * c
    return total


class TestDiscreteMasses:
    def test_masses_are_cached_read_only(self):
        values, probs = discrete_masses(Binomial(7, 0.3))
        again = discrete_masses(Binomial(7, 0.3))
        assert again[0] is values and again[1] is probs
        for a in (values, probs):
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_binomial_masses_match_scipy_stats(self, trials):
        from scipy.stats import binom

        for prob in (1e-6, 0.05, 0.3, 0.43129, 0.5, 0.6, 0.97, 1 - 1e-6):
            values, probs = discrete_masses(Binomial(trials, prob))
            assert np.array_equal(values, np.arange(trials + 1))
            expected = binom.pmf(np.arange(trials + 1), trials, prob)
            np.testing.assert_allclose(probs, expected, rtol=1e-14, atol=0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-14)


class TestExactEffect:
    def test_equal_specs_give_half(self):
        for spec in (Normal(2, 3), Exponential(0.7), Binomial(5, 0.6), BetaLatent(5, 4, 5)):
            assert exact_mw_parameter(spec, spec) == pytest.approx(0.5, abs=1e-10)

    def test_normal_closed_form_vs_quadrature(self):
        d1, d2 = Normal(-0.7416, 1), Normal(0, 1)
        closed = exact_mw_parameter(d1, d2)
        assert closed == pytest.approx(0.7, abs=5e-5)
        quad_p = exact_moments(d1, d2)[0]
        assert closed == pytest.approx(quad_p, abs=1e-9)

    def test_exponential_pair(self):
        assert exact_mw_parameter(Exponential(2.33333), Exponential(1)) == pytest.approx(
            0.7, abs=1e-5
        )

    def test_discrete_pairs_match_brute_force(self):
        pairs = [
            (Binomial(5, 0.43129), Binomial(5, 0.6)),
            (BetaLatent(1.2071, 1, 5), BetaLatent(5, 4, 5)),
            (Binomial(1, 0.3), Binomial(1, 0.52)),
        ]
        for d1, d2 in pairs:
            assert exact_mw_parameter(d1, d2) == pytest.approx(brute_discrete_p(d1, d2), abs=1e-12)

    def test_mixed_pair_unsupported(self):
        with pytest.raises(UnsupportedPair):
            exact_mw_parameter(Normal(0, 1), Binomial(5, 0.6))


class TestTargetSolver:
    def test_normal_calibration(self):
        mu = solve_target_effect(lambda m: Normal(m, 1), Normal(0, 1), 0.7, (-5, 5))
        assert mu == pytest.approx(-math.sqrt(2) * 0.5244005127, abs=1e-6)
        assert round(mu, 4) == -0.7416

    def test_normal_heteroskedastic_calibration(self):
        mu = solve_target_effect(lambda m: Normal(m, 1), Normal(0, 3), 0.7, (-15, 15))
        assert round(mu, 4) == -1.6583

    def test_exponential_calibration(self):
        rate = solve_target_effect(lambda r: Exponential(r), Exponential(1), 0.7, (1e-3, 1e3))
        assert rate == pytest.approx(7 / 3, abs=1e-6)
        assert round(rate, 5) == 2.33333

    def test_binomial_calibration(self):
        q = solve_target_effect(lambda q: Binomial(5, q), Binomial(5, 0.6), 0.7, (1e-6, 1 - 1e-6))
        assert round(q, 5) == 0.43129

    def test_beta_latent_calibrations(self):
        ref = BetaLatent(5, 4, 5)
        a1 = solve_target_effect(lambda a: BetaLatent(a, 4, 5), ref, 0.7, (0.05, 60))
        assert round(a1, 5) == 2.86332
        a2 = solve_target_effect(lambda a: BetaLatent(a, 1, 5), ref, 0.7, (0.05, 60))
        assert round(a2, 5) == 0.57606

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            solve_target_effect(lambda m: Normal(m, 1), Normal(0, 1), 0.7, (0.0, 5.0))

    def test_solution_hits_target(self):
        mu = solve_target_effect(lambda m: Normal(m, 1), Normal(0, 1), 0.64, (-5, 5))
        assert exact_mw_parameter(Normal(mu, 1), Normal(0, 1)) == pytest.approx(0.64, abs=1e-6)


class TestPopulationVariance:
    def test_equal_continuous_closed_form(self):
        assert population_variance(Normal(0, 1), Normal(0, 1), 7, 7) == pytest.approx(
            0.02551020, abs=5e-9
        )
        assert population_variance(Exponential(1), Exponential(1), 15, 30) == pytest.approx(
            46 / (12 * 450), abs=1e-12
        )

    def test_heteroskedastic_normal_matches_published(self):
        # published exact-variance column for the sigma = (1, 3) block
        expected = {
            (7, 7): 0.02887661,
            (10, 10): 0.01997431,
            (15, 45): 0.00510591,
            (45, 15): 0.01231812,
        }
        for (n1, n2), v in expected.items():
            got = population_variance(Normal(0, 1), Normal(0, 3), n1, n2)
            assert got == pytest.approx(v, abs=1e-6)

    def test_beta_latent_equal_block_matches_published(self):
        # the published exact column for the (5, 4) block
        expected = {(7, 7): 0.02135081, (10, 10): 0.01485400, (15, 45): 0.00653847}
        for (n1, n2), v in expected.items():
            got = population_variance(BetaLatent(5, 4, 5), BetaLatent(5, 4, 5), n1, n2)
            assert got == pytest.approx(v, abs=5e-9)

    def test_beta_latent_unequal_block_matches_moment_sums(self):
        # The published exact column for the (1.2071, 1) block contradicts the
        # published *empirical* mean of the unbiased estimator (which, being
        # exactly unbiased, pins the estimand); anchor to first principles
        # instead and check the block is a near-null configuration.
        d1, d2 = BetaLatent(1.2071, 1, 5), BetaLatent(5, 4, 5)
        assert exact_mw_parameter(d1, d2) == pytest.approx(0.5, abs=2e-7)
        p, beta, tau0, tau1, tau2 = exact_moments(d1, d2)
        for n1, n2 in [(7, 7), (15, 45), (30, 15)]:
            expected = (
                tau0 + (n2 - 1) * tau1 + (n1 - 1) * tau2 - (n1 + n2 - 1) * p * p
            ) / (n1 * n2)
            got = population_variance(d1, d2, n1, n2)
            assert got == pytest.approx(expected, abs=1e-12)
        # published empirical mean of the unbiased estimator at (7, 7): 0.02473559
        assert population_variance(d1, d2, 7, 7) == pytest.approx(0.02473559, abs=2e-5)
