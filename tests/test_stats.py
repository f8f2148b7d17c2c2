import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachkin.errors import InputError, NumericalError
from reachkin.stats import (
    GroupedSamples,
    f_sf,
    one_way_anova,
    studentized_range_sf,
    tukey_hsd,
)

THREE = GroupedSamples(("a", "b", "c"), ((1, 2, 3), (2, 3, 4), (3, 4, 5)))


def test_anova_reference_case():
    res = one_way_anova(THREE)
    assert res.F == 3.0
    assert res.p == pytest.approx(0.125, abs=1e-9)
    assert (res.df_between, res.df_within) == (2, 6)
    assert res.ms_within == pytest.approx(1.0)


def test_anova_equal_means_gives_zero_f():
    res = one_way_anova(GroupedSamples(("a", "b"), ((1, 2, 3), (2, 1, 3))))
    assert res.F == 0.0
    assert res.p == 1.0


def test_anova_zero_within_variance():
    with pytest.raises(NumericalError,
                       match="^all groups are internally constant$"):
        one_way_anova(GroupedSamples(("a", "b"), ((1, 1), (2, 2))))


def test_grouped_samples_validation():
    with pytest.raises(InputError, match="^need at least 2 groups$"):
        GroupedSamples(("a",), ((1, 2),))
    with pytest.raises(InputError, match="^group 'b' needs at least 2 values$"):
        GroupedSamples(("a", "b"), ((1, 2), (3,)))
    with pytest.raises(ValueError):
        GroupedSamples(("a", "b"), ((1, 2),))


def test_anova_shift_and_scale_invariance():
    base = one_way_anova(THREE)
    shifted = GroupedSamples(THREE.labels, tuple(
        tuple(5.0 + 2.0 * v for v in g) for g in THREE.groups))
    res = one_way_anova(shifted)
    assert res.F == pytest.approx(base.F, rel=1e-12)
    assert res.p == pytest.approx(base.p, rel=1e-12)


def test_anova_group_order_invariance():
    res = one_way_anova(GroupedSamples(("c", "a", "b"),
                                       ((3, 4, 5), (1, 2, 3), (2, 3, 4))))
    assert res.F == pytest.approx(3.0)


def test_f_p_monotone_in_f():
    ps = [f_sf(F, 2, 6) for F in (0.5, 1.0, 3.0, 10.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_f_sf_closed_form_two_numerator_df():
    # for d1 = 2 the survival function is (1 + 2 F / d2) ** (-d2 / 2)
    for F in (0.5, 1.0, 3.0, 7.5):
        for d2 in (4, 6, 11):
            assert f_sf(F, 2, d2) == pytest.approx(
                (1.0 + 2.0 * F / d2) ** (-d2 / 2.0), rel=1e-10)


def test_f_sf_bounds():
    assert f_sf(0.0, 2, 6) == 1.0
    assert f_sf(-1.0, 2, 6) == 1.0
    assert 0.0 < f_sf(100.0, 2, 6) < 1e-4


def test_betainc_uniform_case():
    # f_sf(F, d1, d2) = I_x(d2 / 2, d1 / 2) at x = d2 / (d2 + d1 F); for
    # d1 = d2 = 2 that is I_x(1, 1), the identity, at x = 1 / (1 + F)
    for x in (0.1, 0.5, 0.9):
        assert f_sf(1.0 / x - 1.0, 2, 2) == pytest.approx(x, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(F=st.floats(0.01, 100), d1=st.integers(1, 40), d2=st.integers(1, 40))
def test_f_sf_reciprocal_identity(F, d1, d2):
    # X ~ F(d1, d2) exactly when 1 / X ~ F(d2, d1)
    assert f_sf(F, d1, d2) + f_sf(1.0 / F, d2, d1) == pytest.approx(1.0, abs=1e-13)


def test_distributions_match_parent_reference():
    # values of the earlier in-repo implementations (Lentz continued fraction
    # for the incomplete beta, 64-node Gauss-Legendre panels for the range)
    ranges = {(3.773, 3, 12): 0.04999558517972291,
              (1.0, 3, 12): 0.7639818960772529,
              (5.0, 3, 12): 0.010599581573557781,
              (2.5, 3, 13): 0.2186242558550644,
              (0.3, 2, 4): 0.8423751184721322}
    for args, p in ranges.items():
        assert studentized_range_sf(*args) == pytest.approx(p, rel=0, abs=1e-13)
    tails = {(3.0, 2, 6): 0.1250000000000001,
             (0.5, 2, 6): 0.6297376093294457,
             (100.0, 2, 6): 2.4708824802535344e-05,
             (7.3, 2, 13): 0.007494156471935465}
    for args, p in tails.items():
        assert f_sf(*args) == pytest.approx(p, rel=0, abs=1e-13)


def _f_sf_exact(F, d1, d2):
    """P(X > F) for X ~ F(d1, d2), by mpmath at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        F = mpmath.mpf(F)
        x, y = d2 / (d2 + d1 * F), d1 * F / (d2 + d1 * F)
        # integrate from 0 on the side whose tail is small, so that the
        # reference keeps its relative accuracy
        if x < 0.5:
            p = mpmath.betainc(d2 / 2, d1 / 2, 0, x, regularized=True)
        else:
            p = 1 - mpmath.betainc(d1 / 2, d2 / 2, 0, y, regularized=True)
        return float(p)


@settings(max_examples=300, deadline=None)
@given(d1=st.integers(1, 40), d2=st.integers(1, 80),
       F=st.floats(0.0, 100.0, exclude_min=True))
def test_f_sf_matches_mpmath_and_scipy(d1, d2, F):
    from scipy.special import fdtrc
    p = f_sf(F, d1, d2)
    exact = _f_sf_exact(F, d1, d2)
    assert abs(p - exact) <= 1e-14
    assert abs(p - exact) <= 1e-12 * exact
    # fdtrc is itself off by up to about 1e-13 (9e-14 at F = 1.165, d1 = 18,
    # d2 = 77), and loses digits as F -> 0 with d1 = 1 (1.4e-10 at F = 1e-13)
    if F >= 1e-3:
        assert p == pytest.approx(float(fdtrc(d1, d2, F)), rel=1e-12, abs=0)


def test_f_sf_small_f_closed_form():
    # for d2 = 2, I_x(1, d1 / 2) = 1 - (1 - x) ** (d1 / 2): no cancellation in
    # 1 - x when F is tiny
    for d1 in (1, 2, 3, 17):
        for F in (1e-300, 1e-13, 1e-8, 1e-3):
            y = d1 * F / (2.0 + d1 * F)
            assert f_sf(F, d1, 2) == pytest.approx(1.0 - y ** (d1 / 2.0),
                                                   rel=0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 10), df=st.integers(1, 1000),
       q=st.floats(0.0, 10.0, exclude_min=True))
# at df = 1 the s-range is wide and P(R > q s) falls to 0 over a small part
# of it, which the panels resolve only once s is cut at w_max / q
@example(k=10, df=1, q=10.0)
def test_studentized_range_matches_scipy(k, df, q):
    # scipy integrates with QUADPACK to epsabs=1e-11, and is off by more
    # than 1e-12 in places: 1.6e-12 at q = 3.4933, k = 2, df = 1000, where
    # the exact value (the t distribution, below) is 1.2e-17 from ours
    from scipy.stats import studentized_range
    assert studentized_range_sf(q, k, df) == pytest.approx(
        float(studentized_range.sf(q, k, df)), rel=0, abs=1e-11)


@settings(max_examples=100, deadline=None)
@given(df=st.integers(1, 1000), q=st.floats(0.0, 10.0, exclude_min=True))
@example(df=1, q=10.0)
def test_studentized_range_of_two_means_is_exact(df, q):
    # the range of two means is sqrt(2) |T| for T ~ t_df, so
    # P(Q > q) = P(T^2 > q^2 / 2), the F(1, df) tail at q^2 / 2
    assert studentized_range_sf(q, 2, df) == pytest.approx(
        _f_sf_exact(q * q / 2.0, 1, df), rel=0, abs=1e-14)


# P(Q > q) for k means and df degrees of freedom, by mpmath at 30 digits:
# nested mpmath.quad of the density of s times P(R > q s), the z-integral
# split at -4, 0, 4 and the s-integral at 1/2, 1, 2, 4 (for df >= 30 at
# 1 - 5 / sqrt(df), 1, 1 + 5 / sqrt(df), 2)
RANGE_SF_MPMATH = {
    (1.0, 3, 12): 0.76398189607725282197,
    (3.2, 3, 13): 0.097479854917762143111,
    (2.5, 2, 4): 0.15183454328291054494,
    (3.0, 8, 1): 0.63999937779343647329,
    (4.5, 6, 40): 0.031387581424613163700,
    (6.0, 10, 500): 0.0010861226531614193860,
}


def test_studentized_range_matches_mpmath():
    for (q, k, df), p in RANGE_SF_MPMATH.items():
        assert studentized_range_sf(q, k, df) == pytest.approx(p, rel=0,
                                                              abs=1e-14)


def test_non_finite_statistic_raises():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalError):
            f_sf(bad, 2, 6)
        with pytest.raises(NumericalError):
            studentized_range_sf(bad, 3, 12)


def test_studentized_range_reference_value():
    assert studentized_range_sf(3.773, 3, 12) == pytest.approx(0.05, abs=5e-3)


def test_studentized_range_bounds_and_monotonicity():
    assert studentized_range_sf(0.0, 3, 12) == 1.0
    assert studentized_range_sf(50.0, 3, 12) < 1e-10
    ps = [studentized_range_sf(q, 3, 12) for q in (1.0, 2.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    with pytest.raises(ValueError):
        studentized_range_sf(-1.0, 3, 12)
    with pytest.raises(ValueError):
        studentized_range_sf(1.0, 1, 12)


def test_tukey_reference_case():
    res = tukey_hsd(THREE)
    assert len(res) == 3
    pairs = {(c.label_a, c.label_b): c for c in res}
    ab = pairs[("a", "b")]
    ac = pairs[("a", "c")]
    assert ab.mean_diff == pytest.approx(-1.0)
    assert ac.mean_diff == pytest.approx(-2.0)
    # larger mean difference, smaller p
    assert ac.p < ab.p
    assert ab.q == pytest.approx(abs(ab.mean_diff) / np.sqrt(1.0 / 3.0))


def test_tukey_identical_groups():
    same = GroupedSamples(("a", "b"), ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)))
    res = tukey_hsd(same)
    assert res[0].q == 0.0
    assert res[0].p == 1.0


def test_tukey_unbalanced_groups():
    res = tukey_hsd(GroupedSamples(("a", "b"), ((1.0, 2.0, 3.0, 4.0),
                                                (5.0, 6.0))))
    cmp = res[0]
    assert cmp.mean_diff == pytest.approx(-3.0)
    assert 0.0 < cmp.p < 0.1
