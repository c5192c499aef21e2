import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from releff import DfKind, SizeTooSmall, TwoSamples, degrees_of_freedom, estimate_effect
from releff.dof import fallback_df

TOY = estimate_effect(TwoSamples([1, 2, 3], [2, 3, 4]))


def summary_with(n1, n2, s1, s2, s1n=1.0, s2n=1.0):
    """A synthetic summary carrying just the fields the df formulas read."""
    es = dataclasses.replace(estimate_effect(TwoSamples(np.arange(n1), np.arange(n2) + 0.5)),
                             sigma1_sq=s1, sigma2_sq=s2)
    # the split variances are computed on first read; these stand in for them
    object.__setattr__(es, "sigma1_given_n_sq", s1n)
    object.__setattr__(es, "sigma2_given_n_sq", s2n)
    return es


def test_df3_is_harmonic_mean():
    es = summary_with(7, 7, 0.1, 0.2)
    assert degrees_of_freedom(es, DfKind.DF3) == pytest.approx(6.0, abs=1e-12)


def test_df_toy_is_four():
    assert degrees_of_freedom(TOY, DfKind.DF) == pytest.approx(4.0, abs=1e-12)


def test_df4_toy_is_four():
    assert degrees_of_freedom(TOY, DfKind.DF4) == pytest.approx(4.0, abs=1e-12)


def test_df_fallback_value():
    es = summary_with(7, 7, 0.0, 0.0)
    assert degrees_of_freedom(es, DfKind.DF) == pytest.approx(12.0, abs=1e-12)
    assert fallback_df(7, 7, DfKind.DF) == pytest.approx(196 * 36 / (49 * 6 + 49 * 6))


def test_fallbacks_match_equal_variance_substitution():
    # devolved displays with sigma1 = sigma2 = 1 must equal the fallback values
    for n1, n2 in [(7, 7), (10, 15), (5, 9)]:
        es_eq = summary_with(n1, n2, 1.0, 1.0, 1.0, 1.0)
        es_zero = summary_with(n1, n2, 0.0, 0.0, 0.0, 0.0)
        for kind in DfKind:
            assert degrees_of_freedom(es_zero, kind) == pytest.approx(
                degrees_of_freedom(es_eq, kind), abs=1e-12
            )


@pytest.mark.parametrize("n", range(4, 51))
def test_symmetric_case_closed_forms(n):
    es = summary_with(n, n, 0.37, 0.37, 0.12, 0.12)
    assert degrees_of_freedom(es, DfKind.DF) == pytest.approx(2 * (n - 1), abs=1e-10)
    assert degrees_of_freedom(es, DfKind.DF1) == pytest.approx(2 * (n - 2), abs=1e-10)
    assert degrees_of_freedom(es, DfKind.DF2) == pytest.approx(2 * (n - 3), abs=1e-10)
    assert degrees_of_freedom(es, DfKind.DF3) == pytest.approx(n - 1, abs=1e-10)
    assert degrees_of_freedom(es, DfKind.DF4) == pytest.approx(2 * (n - 1), abs=1e-10)


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_invariance(s1, s2, lam):
    base = summary_with(9, 13, s1, s2)
    scaled = summary_with(9, 13, lam * s1, lam * s2)
    for kind in (DfKind.DF, DfKind.DF1, DfKind.DF2):
        assert degrees_of_freedom(base, kind) == pytest.approx(
            degrees_of_freedom(scaled, kind), rel=1e-9
        )


@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=4, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(n1=17, n2=17, s1=3.1890754461944966e-156, s2=3.1890754461944966e-156)
def test_df_bounds(n1, n2, s1, s2):
    es = summary_with(n1, n2, s1, s2)
    df = degrees_of_freedom(es, DfKind.DF)
    assert min(n1 - 1, n2 - 1) - 1e-9 <= df <= n1 + n2 - 2 + 1e-9


def test_size_preconditions():
    small = estimate_effect(TwoSamples([1.0, 2.0, 3.0], [4.0, 2.0, 6.0]))
    with pytest.raises(SizeTooSmall):
        degrees_of_freedom(small, DfKind.DF2)  # needs 4 per arm
    with pytest.raises(SizeTooSmall):
        degrees_of_freedom(estimate_effect(TwoSamples([1, 2], [3, 4])), DfKind.DF1)
    assert degrees_of_freedom(small, DfKind.DF) > 0
    assert degrees_of_freedom(small, DfKind.DF3) == 2.0
    assert degrees_of_freedom(small, DfKind.DF4) > 0


def test_all_kinds_positive_on_degenerate_data():
    tied = estimate_effect(TwoSamples([4] * 8, [4] * 8))
    sep = estimate_effect(TwoSamples(np.arange(8), np.arange(8) + 100))
    for es in (tied, sep):
        for kind in DfKind:
            assert degrees_of_freedom(es, kind) > 0
