"""Property tests over the whole region alpha in (-3, 3), beta in (-4, 2).

The shapes mix uniform draws with the exact values -2, -1 and 0, where
closed forms change, and with draws within 1e-4 of them.  Examples are
derandomized, so every run checks the same cases.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bivqf.catalog import make_case
from bivqf.comoment import population_lcomoments
from bivqf.errors import DivergentMomentError, DomainError
from bivqf.lmom import sample_lmoments
from bivqf.model import (DEFAULT_NUMERIC_CONFIG, BivariateParams, MarginalParams, big_q1, f1,
                         f1_flagged, product_moment, support, u21)
from bivqf.sampling import SamplerSpec, draw
from test_model import off_row

SPECIAL = st.sampled_from((-2.0, -1.0, 0.0))


def shape(lo: float, hi: float) -> st.SearchStrategy:
    """A shape in (lo, hi), an exact special value, or one within 1e-4 of it."""
    near = st.builds(lambda v, d: v + d, SPECIAL, st.floats(-1e-4, 1e-4))
    return st.one_of(st.floats(lo, hi, exclude_min=True, exclude_max=True), SPECIAL, near)


ALPHA = shape(-3.0, 3.0)
BETA = shape(-4.0, 2.0)
SCALE = st.floats(0.1, 10.0)
THETA = st.floats(0.0, 10.0)
UNIT = st.floats(0.0, 1.0)
MARGINAL = st.builds(MarginalParams, SCALE, ALPHA, BETA)
PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
# the finite-mean region of the L-comoments
LMOM_MARGINAL = st.builds(MarginalParams, SCALE,
                          st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True),
                          st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True))

LEVELS = np.array([1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6])


def density(p: MarginalParams, u: np.ndarray) -> np.ndarray:
    return p.c * u ** p.alpha * (1.0 - u) ** p.beta


@PROPERTY
@given(MARGINAL)
def test_round_trip(p):
    x = big_q1(p, LEVELS)
    back = f1(p, x)
    # u is only determined to the resolution of Q: a relative error e in Q
    # moves u by e Q/q, which is large where Q is flat (alpha -> -1)
    tol = 1e-9 + 1e-12 * np.abs(x / density(p, LEVELS))
    assert np.all(np.abs(back - LEVELS) <= tol), (back - LEVELS, tol)


@PROPERTY
@given(SCALE, ALPHA)
def test_log_logistic_line(c, alpha):
    # alpha + beta = -2 takes the closed row in logit(u); the shape a few
    # ulps below it takes the corner path, and the two agree
    beta = -2.0 - alpha
    assume(alpha + beta == -2.0)
    p = MarginalParams(c, alpha, beta)
    x, xt = big_q1(p, LEVELS), big_q1(MarginalParams(c, *off_row(alpha, beta)), LEVELS)
    np.testing.assert_allclose(x, xt, rtol=1e-13, atol=1e-13 * c)
    np.testing.assert_array_equal([big_q1(p, float(u)) for u in LEVELS], x)
    back = f1(p, x)
    tol = 1e-9 + 1e-12 * np.abs(x / density(p, LEVELS))
    assert np.all(np.abs(back - LEVELS) <= tol), (back - LEVELS, tol)
    np.testing.assert_array_equal([f1(p, float(v)) for v in x], back)


@PROPERTY
@given(st.floats(0.3, 0.9), SCALE)
def test_catalog_log_logistic_lies_on_the_line(a, b):
    # the map (a b, a - 1, -(a + 1)) rounds onto alpha + beta = -2 exactly
    # for these a, so the catalog's log-logistic takes the closed row
    m = make_case("loglogistic", a1=a, b1=b, a2=a, b2=b).params.m1
    assert m.alpha + m.beta == -2.0


@PROPERTY
@given(MARGINAL)
def test_array_equals_scalar(p):
    u = np.concatenate([[0.0], LEVELS, [1.0]])
    x = big_q1(p, u)
    scalar = np.array([big_q1(p, float(v)) for v in u])
    # an ulp of pow, amplified 1/|beta+1| by the heavy-right recurrence
    rtol = 1e-13 / min(1.0, abs(p.beta + 1.0) or 1.0)
    np.testing.assert_allclose(x, scalar, rtol=rtol, atol=0.0)
    probe = np.concatenate([x, [-1.0, 2.0 * x[-2] + 1.0]])
    u_arr, flags = f1_flagged(p, probe)
    pairs = [f1_flagged(p, float(v)) for v in probe]
    u_sc = np.array([a for a, _ in pairs])
    assert list(flags) == [b for _, b in pairs]
    # inside the support, u is fixed only to the resolution of Q: coarse
    # where Q is flat (alpha -> -1), and vector and scalar exp/pow differ
    # by an ulp, so each result is compared through Q, against the probe;
    # the rest (the ends, points beyond them, levels that round to 0 or 1)
    # must agree exactly
    sup = support(p)
    cmp = (probe > sup.lower) & (probe < sup.upper) & (u_sc > 0.0) & (u_sc < 1.0)
    np.testing.assert_array_equal(u_arr[~cmp], u_sc[~cmp])
    v, u = probe[cmp], u_sc[cmp]
    # relative 1e-12 in Q and in min(u, 1-u), and a few ulps of u
    tol = 1e-12 * np.abs(v) + density(p, u) * (1e-12 * np.minimum(u, 1.0 - u)
                                                + 4.0 * np.spacing(u))
    for w in (u_arr[cmp], u):
        assert np.all(np.abs(big_q1(p, w) - v) <= tol), (big_q1(p, w) - v, tol)
    # a float in gives a Python float out, not a numpy scalar or 0-d array
    bp = BivariateParams(MarginalParams(1.0, 0.0, 0.0), p, 0.5)
    for v in (0.3, 0.5, 0.9):
        x = big_q1(p, v)
        assert type(x) is float and type(f1(p, x)) is float
        assert type(u21(bp, 0.4, v)) is float


@PROPERTY
@given(MARGINAL, THETA, UNIT)
def test_u21_below_u2(m2, theta, u1):
    # Q2 scaled by 1/(1 + theta u1) moves u2 toward the anchor: below u2
    # when Q2(0) = 0, toward the median when the support is the whole line
    bp = BivariateParams(MarginalParams(1.0, 0.0, 0.0), m2, theta)
    v = u21(bp, u1, LEVELS)
    anchor = support(m2).anchor
    assert np.all(np.abs(v - anchor) <= np.abs(LEVELS - anchor) + 1e-12), v - LEVELS
    assert np.all(np.sign(v - anchor) * np.sign(LEVELS - anchor) >= 0.0)


@PROPERTY
@given(MARGINAL, MARGINAL, THETA, st.floats(0.05, 10.0))
def test_product_moment_increasing_in_theta(m1, m2, theta, step):
    if not (m1.in_lmoment_region() and m2.in_lmoment_region()):
        with pytest.raises(DivergentMomentError):
            product_moment(BivariateParams(m1, m2, theta))
        return
    low = product_moment(BivariateParams(m1, m2, theta))
    high = product_moment(BivariateParams(m1, m2, theta + step))
    # strictly, up to rounding: with alpha1 or alpha2 within 1e-15 of -1 the
    # change with theta is O(alpha + 1) relative (for alpha2 E(X1 X2) sits
    # at its theta -> inf limit), and values 1e-13 apart may come out tied
    # or reversed
    assert low < high or math.isclose(low, high, rel_tol=1e-12), (low, high)


@PROPERTY
@given(MARGINAL, MARGINAL, THETA, st.floats(0.05, 10.0))
def test_product_moment_concave_in_theta(m1, m2, theta, step):
    # fit_theta's Newton from theta = 0 rises to the root from below because
    # of this; for beta2 <= -1 the product moment is a line in theta
    if not (m1.in_lmoment_region() and m2.in_lmoment_region()):
        return  # test_product_moment_increasing_in_theta checks that it raises
    low, mid, high = (product_moment(BivariateParams(m1, m2, theta + i * step))
                      for i in range(3))
    chord = 0.5 * (low + high)
    assert mid >= chord or math.isclose(mid, chord, rel_tol=1e-12), (low, mid, high)


@PROPERTY
@given(st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=40),
       st.floats(-100.0, 100.0), st.floats(0.01, 100.0))
def test_sample_lmoments_location_scale_equivariant(x, loc, scale):
    x = np.array(x)
    lm = sample_lmoments(x)
    moved = sample_lmoments(loc + scale * x)
    # rounding of loc + scale*x, amplified at most 63-fold by the l4 weights
    tol = 1e-13 * (abs(loc) + scale * np.max(np.abs(x)))
    assert abs(moved.l1 - (loc + scale * lm.l1)) <= tol
    for r in ("l2", "l3", "l4"):
        assert abs(getattr(moved, r) - scale * getattr(lm, r)) <= tol, r


@PROPERTY
@given(MARGINAL, MARGINAL, THETA, st.integers(0, 2**63 - 1), st.integers(1, 40),
       st.sampled_from(("transform", "exact")))
def test_draw_reproduces_bit_for_bit(m1, m2, theta, seed, n, method):
    bp = BivariateParams(m1, m2, theta)
    spec = SamplerSpec(seed=seed, n=n, method=method)
    if method == "exact" and m2.alpha <= -1.0:
        with pytest.raises(DomainError):  # the exact sampler needs Q2(0) = 0
            draw(bp, spec)
        return
    first = draw(bp, spec)
    assert first.n == n
    again = draw(bp, spec)
    assert np.array(again.rows).tobytes() == np.array(first.rows).tobytes()


def l12(m1, m2, theta):
    cm = population_lcomoments(BivariateParams(m1, m2, theta))
    return np.array([cm.l2_12, cm.l3_12, cm.l4_12])


@settings(PROPERTY, max_examples=20)  # three population_lcomoments calls each
@given(LMOM_MARGINAL, LMOM_MARGINAL, st.floats(0.01, 10.0), SCALE)
def test_l12_linear_in_c1_free_of_c2(m1, m2, theta, f):
    # u21 does not depend on c2, and c1 enters L_k(1,2) only through q1
    base = l12(m1, m2, theta)
    cfg = DEFAULT_NUMERIC_CONFIG
    # each is the 2n-node value of a rule stopped on its own n-to-2n change
    m1_f, m2_f = (dataclasses.replace(m, c=m.c * f) for m in (m1, m2))
    np.testing.assert_allclose(l12(m1_f, m2, theta), f * base,
                               rtol=cfg.quad_rel_tol, atol=2.0 * cfg.quad_abs_tol * max(1.0, f))
    np.testing.assert_allclose(l12(m1, m2_f, theta), base, rtol=1e-12, atol=0.0)


# 1 - u21 ~ ((1-u2)^(beta2+1) + C theta u1)^(1/(beta2+1)) near u2 = 1, so the
# inner integral has a u1^(1 + 1/(beta2+1)) term at u1 = 0 (u1 log u1 at
# beta2 = 1), which the outer weight u1^alpha1 with alpha1 < 0 makes steep;
# the outer substitution u1 = s^k smooths it
def test_l12_alpha1_below_zero_beta2_above_zero():
    got = l12(MarginalParams(1.0, -0.5, 0.0), MarginalParams(1.0, 0.0, 1.0), 1.0)
    # nested adaptive quadrature (test_comoment.adaptive_lcomoments)
    ref = [0.3027034960365183, 0.3904770222557784, 0.4216747529557626]
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0.0)


def test_product_moment_one_ulp_above_beta_minus_two():
    # the Jacobi exponent beta1 + 1 sits one ulp above -1, where the rule's
    # nodes turn NaN; with u2 uniform the moment is
    # int (1-u)^(e-1) (1 - 1/(2(1+u))) du = (3/4)/e - log(2)/4 + O(e), e = beta1 + 2
    m1 = MarginalParams(1.0, 0.0, float(np.nextafter(-2.0, 0.0)))
    e = m1.beta + 2.0
    got = product_moment(BivariateParams(m1, MarginalParams(1.0, 0.0, 0.0), 1.0))
    assert math.isclose(got, 0.75 / e - math.log(2.0) / 4.0, rel_tol=1e-12)
