import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq
from scipy.special import (beta as beta_fn, betainc, betaincinv, expit, roots_jacobi,
                           roots_legendre)

from bivqf import fit, model
from bivqf.catalog import closed_marginal_cdf, generic_marginal_cdf, make_case
from bivqf.comoment import population_lcomoments, sample_lcomoments
from bivqf.data import BUILTIN_DATASETS, PairedSample
from bivqf.errors import ConvergenceError, DivergentMomentError, DomainError
from bivqf.fit import (MrqParams, _mrq_lcov_12, fit_bivariate, fit_marginal, fit_mrq,
                       fit_theta)
from bivqf.model import (
    BivariateParams,
    MarginalParams,
    NumericConfig,
    _gauss_jacobi,
    _newton_bisect,
    _pick,
    _shape_plan,
    big_q1,
    f1,
    f1_flagged,
    joint_survival,
    product_moment,
    q1,
    q2_bar_conditional,
    support,
    u21,
)
from bivqf.sampling import SamplerSpec, draw
from bivqf.specfun import complete_beta
from quad_oracles import quad_beta_kernel

EXP1 = MarginalParams(1.0, 0.0, -1.0)
UNIF = MarginalParams(1.0, 0.0, 0.0)
CABLE1 = MarginalParams(9.0819, -0.4864, -0.9946)
CABLE2 = MarginalParams(29.2295, -0.3406, -0.3531)
COMP1 = MarginalParams(13.0499, 0.8856, -0.1844)
SINE = MarginalParams(1.0 / math.pi, -0.5, -0.5)
T2 = MarginalParams(1.0, -1.5, -1.5)
LOGLOG = MarginalParams(6.0, 1.0, -3.0)
ARCSINE = MarginalParams(1.7, -0.5, -0.5)


def on_row(alpha: float, beta: float) -> bool:
    """True on a closed row in t = logit(u) of a corner: the log-logistic
    line alpha + beta = -2, or the t2 shape (-3/2, -3/2)."""
    return alpha + beta == -2.0 or alpha == beta == -1.5


def off_row(alpha: float, beta: float) -> tuple[float, float]:
    """The shape moved down by ulps until it leaves the closed logit rows.

    A shape on the log-logistic line alpha + beta = -2, or the t2 shape,
    takes a closed row of the branch table; its twin one or two ulps off
    takes the corner path, which the twin keeps covered against the same
    oracles.  beta moves, or alpha where it is the larger in size (at
    (-2, 0) an ulp of beta is far below an ulp of the sum).
    """
    while on_row(alpha, beta):
        if abs(beta) >= abs(alpha):
            beta = float(np.nextafter(beta, -np.inf))
        else:
            alpha = float(np.nextafter(alpha, -np.inf))
    return alpha, beta


def twin(p: MarginalParams) -> MarginalParams:
    return MarginalParams(p.c, *off_row(p.alpha, p.beta))


LOGLOG_CORNER = twin(LOGLOG)
T2_CORNER = twin(T2)
HEAVY_LL = MarginalParams(0.8, -0.6, -1.4)


def oracle_quantile(p: MarginalParams, u: float) -> float:
    """Direct quadrature of the quantile density from the anchor."""
    anchor = 0.0 if p.alpha > -1.0 else 0.5
    val, _ = quad(lambda t: t ** p.alpha * (1.0 - t) ** p.beta, anchor, u,
                  epsabs=1e-13, epsrel=1e-12, limit=300)
    return p.c * val


class TestQuantileDensity:
    def test_uniform(self):
        assert q1(UNIF, 0.5) == 1.0

    def test_published_parameter_arithmetic(self):
        p = MarginalParams(9.0819, 0.4864, 0.9946)
        expect = 9.0819 * 0.5 ** (0.4864 + 0.9946)
        assert math.isclose(q1(p, 0.5), expect, rel_tol=1e-15)

    def test_exponential(self):
        assert math.isclose(q1(MarginalParams(2.0, 0.0, -1.0), 0.5), 4.0,
                            rel_tol=1e-15)

    def test_singular_endpoints(self):
        with pytest.raises(DomainError):
            q1(CABLE1, 0.0)
        with pytest.raises(DomainError):
            q1(EXP1, 1.0)
        assert q1(MarginalParams(1.0, 1.0, 2.0), 0.0) == 0.0
        assert q1(MarginalParams(1.0, 1.0, 2.0), 1.0) == 0.0


class TestQuantileFunction:
    def test_exponential_log(self):
        assert math.isclose(big_q1(EXP1, 0.5), math.log(2.0), rel_tol=1e-14)
        assert big_q1(EXP1, 1.0) == math.inf

    def test_power_closed(self):
        p = MarginalParams(1.0, 1.0, 0.0)
        assert math.isclose(big_q1(p, 0.6), 0.18, rel_tol=1e-14)

    def test_sine_closed_form(self):
        # F(x) = (1 - cos(pi x))/2 inverts to Q(u) = arccos(1 - 2u)/pi
        assert math.isclose(big_q1(SINE, 0.25), 1.0 / 3.0, rel_tol=1e-9)
        for u in np.linspace(0.05, 0.95, 10):
            ref = math.acos(1.0 - 2.0 * float(u)) / math.pi
            assert math.isclose(big_q1(SINE, float(u)), ref, rel_tol=1e-9)

    def test_generic_matches_direct_quadrature(self):
        cases = [CABLE1, CABLE2, COMP1, LOGLOG, SINE,
                 MarginalParams(1.0, 0.3, -1.7), MarginalParams(2.0, 1.0, -3.0),
                 LOGLOG_CORNER, twin(MarginalParams(2.0, 1.0, -3.0))]
        for p in cases:
            for u in (0.1, 0.35, 0.5, 0.8, 0.97):
                ref = oracle_quantile(p, u)
                assert math.isclose(big_q1(p, u), ref, rel_tol=1e-9,
                                    abs_tol=1e-11), (p, u)

    def test_median_anchored_heavy_tail(self):
        for p in (T2, T2_CORNER):  # the t2 row, and its twin on the corner path
            assert big_q1(p, 0.5) == 0.0
            assert big_q1(p, 0.0) == -math.inf
            assert big_q1(p, 1.0) == math.inf
            # scaled-t closed form: Q(u) = 2c(2u-1)/sqrt(u(1-u))
            for u in (0.12, 0.3, 0.5, 0.77, 0.93):
                ref = 2.0 * (2.0 * u - 1.0) / math.sqrt(u * (1.0 - u))
                assert math.isclose(big_q1(p, u), ref, rel_tol=1e-9, abs_tol=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            big_q1(UNIF, 1.2)


def mpmath_quantile(p: MarginalParams, u: float) -> float:
    """c B_u(alpha+1, beta+1) at the exact binary value of u, continued in b."""
    with mpmath.workdps(40):
        return float(p.c * mpmath.betainc(p.alpha + 1.0, p.beta + 1.0, 0, mpmath.mpf(u)))


def mpmath_corner_quantile(p: MarginalParams, u: float) -> float:
    """Q(u) from its anchor by mpmath quadrature on the half of (0, 1) holding u.

    On each half the integral of t^alpha (1-t)^beta runs in m = -log(2y),
    y = u or 1 - u, where the integrand is smooth; any exponent works,
    the integer ones included.
    """
    with mpmath.workdps(30):
        u = mpmath.mpf(u)

        def half(y, p_exp, r_exp):
            """int_y^(1/2) s^(p-1) (1-s)^(r-1) ds."""
            top = -mpmath.log(2 * y)
            s = lambda m: mpmath.exp(-m) / 2  # noqa: E731
            pts = [0] + [x for x in (1, 4, 16, 64) if x < top] + [top]
            return mpmath.quad(lambda m: s(m) ** p_exp * (1 - s(m)) ** (r_exp - 1), pts)

        a, b = p.alpha + 1, p.beta + 1
        if u <= 0.5:
            if p.alpha > -1.0:
                return float(p.c * mpmath.betainc(a, b, 0, u))
            return float(-p.c * half(u, a, b))
        mid = mpmath.betainc(a, b, 0, 0.5) if p.alpha > -1.0 else 0
        return float(p.c * (mid + half(1 - u, b, a)))


class TestCorners:
    """alpha <= -1, or beta <= -1 with alpha != 0: Q against mpmath on both
    halves and both tails, the integer and near-integer exponents included."""

    MARGINS = [(-1.5, -1.5), (-2.5, -0.7), (-1.5, -2.5), (0.5, -2.5), (-0.2, -3.3),
               (0.3, -1.00005), (0.2, -1.0), (-1.0, -1.0), (-2.0, 0.5), (-2.0, -1.0),
               (-1.0, 0.5), (-1.0 - 1e-5, 0.3), (-2.0 + 1e-9, -0.4), (0.5, -2.0),
               (2.5, -3.9), (-2.9, 1.9), (-0.9999, -1.5), (-1.0, -1.0 - 1e-5),
               (-0.5, -1.9999), (1.0, -3.0), (-1.2, 0.7), (-1.7, -0.95)]
    # (-1.5, -1.5) is the t2 row, and (0.5, -2.5), (-1, -1) and (1, -3) lie
    # on the log-logistic line; their twins off them keep the corner path
    # on the same checks
    MARGINS += [off_row(a, b) for a, b in MARGINS if on_row(a, b)]
    LEVELS = [1e-30, 1e-6, 0.1, 0.4999, 0.5001, 0.9, 1.0 - 1e-6, 1.0 - 2.0 ** -52]

    @pytest.mark.parametrize("alpha, beta", MARGINS)
    def test_quantile_against_mpmath(self, alpha, beta):
        p = MarginalParams(1.3, alpha, beta)
        got = big_q1(p, np.array(self.LEVELS))
        for u, g in zip(self.LEVELS, got):
            ref = mpmath_corner_quantile(p, u)
            # relative, or absolute next to the median anchor
            assert abs(g - ref) <= 1e-13 * max(abs(ref), 1.0), (u, g, ref)
        assert big_q1(p, 0.5) == (0.0 if alpha <= -1.0 else big_q1(p, np.array([0.5]))[0])

    @pytest.mark.parametrize("alpha, beta", MARGINS)
    def test_round_trip_in_both_tails(self, alpha, beta):
        p = MarginalParams(1.3, alpha, beta)
        us = np.array(self.LEVELS[:-1])
        x = big_q1(p, us)
        back = f1(p, x)
        # relative in u below 1/2 and in 1-u above; toward a finite upper
        # end (beta > -1) Q resolves u only to about eps |x| / q(u)
        tol = 1e-10 * np.minimum(us, 1.0 - us)
        if beta > -1.0:
            q = p.c * us ** alpha * (1.0 - us) ** beta
            tol = np.where(us > 0.5, 1e-10 + 4e-16 * np.abs(x) / q, tol)
        finite = np.isfinite(x) & (x != 0.0)
        np.testing.assert_array_less(np.abs(back - us)[finite], tol[finite])

    # the margins that once fell back to Brent over adaptive quadrature
    @pytest.mark.parametrize("m", [MarginalParams(1.0, -1.5, -1.5),
                                   MarginalParams(2.0, 0.5, -2.5),
                                   MarginalParams(1.0, 0.3, -1.00005),
                                   twin(MarginalParams(2.0, 0.5, -2.5)),
                                   T2_CORNER])
    def test_f1_fallback(self, m):
        for u in (1e-8, 0.05, 0.5, 0.95, 1.0 - 1e-8):
            back = f1(m, mpmath_corner_quantile(m, u))
            assert abs(back - u) <= 1e-12 * min(u, 1.0 - u), (u, back)


def mpmath_line_level(p: MarginalParams, x: float) -> float:
    """F(x) on the line alpha + beta = -2 at 40 digits: expit of t = logit(u),
    with Q = c exp(a t)/a for a > 0 and c (exp(a t) - 1)/a otherwise."""
    with mpmath.workdps(40):
        a, xc = mpmath.mpf(p.alpha) + 1, mpmath.mpf(x) / p.c
        if a > 0:
            t = mpmath.log(a * xc) / a
        else:
            t = xc if a == 0 else mpmath.log1p(a * xc) / a
        return float(1 / (1 + mpmath.exp(-t)))


class TestLogLogisticLine:
    """alpha + beta = -2: Q = c exp(a t)/a or c t exprel(a t) in t = logit(u),
    a = alpha + 1, and F is its closed inverse, with no root solve."""

    # a > 0 (the catalog's log-logistic and (0, -2)), a = 0 (the logistic),
    # a < 0 ((-2, 0) included), and |a| = 2^-30 on both sides
    SHAPES = [(0.5, -2.5), (1.0, -3.0), (-0.4, -1.6), (-0.6, -1.4), (0.0, -2.0), (2.5, -4.5),
              (-1.0, -1.0), (-2.0, 0.0), (-1.5, -0.5), (-3.0, 1.0),
              (-1.0 + 2.0 ** -30, -1.0 - 2.0 ** -30), (-1.0 - 2.0 ** -30, -1.0 + 2.0 ** -30)]
    LEVELS = np.array([1e-12, 1e-6, 0.1, 0.4999, 0.5, 0.5001, 0.9, 1.0 - 1e-6, 1.0 - 1e-10])

    @staticmethod
    def f_tol(p: MarginalParams, us: np.ndarray, x: np.ndarray) -> np.ndarray:
        # test_round_trip's form: relative in min(u, 1-u), plus the
        # resolution eps |x| / q(u) of u from a rounded x
        q = p.c * us ** p.alpha * (1.0 - us) ** p.beta
        return 1e-13 * np.maximum(np.minimum(us, 1.0 - us), np.abs(x) / q)

    @pytest.mark.parametrize("alpha, beta", SHAPES)
    def test_against_mpmath_in_both_tails(self, alpha, beta):
        assert alpha + beta == -2.0
        p = MarginalParams(1.3, alpha, beta)
        assert type(_shape_plan(alpha, beta)[2]) is model._LineRow
        x = big_q1(p, self.LEVELS)
        for u, g in zip(self.LEVELS, x):
            ref = mpmath_corner_quantile(p, u)
            # relative, or absolute next to the median anchor
            assert abs(g - ref) <= 1e-13 * max(abs(ref), 1.0), (u, g, ref)
            assert big_q1(p, float(u)) == g
        ref = np.array([mpmath_line_level(p, v) for v in x])
        back = f1(p, x)
        np.testing.assert_array_less(np.abs(back - ref), self.f_tol(p, self.LEVELS, x))
        np.testing.assert_array_equal([f1(p, float(v)) for v in x], back)

    @pytest.mark.parametrize("alpha, beta", SHAPES)
    def test_matches_its_twin_off_the_line(self, alpha, beta):
        p = MarginalParams(1.3, alpha, beta)
        t = MarginalParams(1.3, *off_row(alpha, beta))
        if t.alpha != 0.0:  # (0, -2) moves to the alpha = 0 row
            assert type(_shape_plan(t.alpha, t.beta)[2]) is model._CornerRow
        x, xt = big_q1(p, self.LEVELS), big_q1(t, self.LEVELS)
        np.testing.assert_array_less(np.abs(x - xt), 1e-13 * np.maximum(np.abs(xt), 1.0))
        np.testing.assert_array_less(np.abs(f1(p, x) - f1(t, x)), self.f_tol(p, self.LEVELS, x))
        sp, st = support(p), support(t)
        assert (sp.lower, sp.anchor) == (st.lower, st.anchor)
        assert math.isclose(sp.upper, st.upper, rel_tol=1e-13)

    @pytest.mark.parametrize("alpha, beta", SHAPES)
    def test_no_root_solve(self, alpha, beta, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _newton_bisect(*args)

        monkeypatch.setattr(model, "_newton_bisect", counting)
        p = MarginalParams(1.3, alpha, beta)
        for m in (p, dataclasses.replace(p, c=p.c * 2.5)):
            x = big_q1(m, self.LEVELS)
            f1(m, x)
            f1(m, float(x[3]))
            big_q1(m, 0.3)
            u21(BivariateParams(UNIF, m, 0.7), 0.4, self.LEVELS)
        assert calls == []
        # the twin off the line takes the corner path: at a level in the grid's
        # first cell, its Newton solve on the left half
        if alpha != 0.0:
            t = MarginalParams(1.3, *off_row(alpha, beta))
            f1(t, big_q1(t, self.LEVELS[0]))
            assert len(calls) == 1


def mpmath_t2_level(p: MarginalParams, x: float) -> float:
    """F(x) of the t2 shape at 40 digits: expit of t = 2 asinh(x/(4c))."""
    with mpmath.workdps(40):
        t = 2 * mpmath.asinh(mpmath.mpf(x) / (4 * mpmath.mpf(p.c)))
        return float(1 / (1 + mpmath.exp(-t)))


class TestT2Row:
    """(-3/2, -3/2), the catalog's scaled t2: on the line alpha + beta = -3,
    Q = 4c sinh(t/2) = 2c(2u-1)/sqrt(u(1-u)) in t = logit(u), and F is its
    closed inverse, with no root solve."""

    LEVELS = np.array([1e-300, 1e-30, 1e-6, 0.1, 0.4999, 0.5, 0.5001, 0.9, 1.0 - 1e-6,
                       1.0 - 2.0 ** -52])
    # a shape one ulp off the row, in beta or in alpha, takes the corner path
    TWINS = [off_row(-1.5, -1.5), (float(np.nextafter(-1.5, 0.0)), -1.5)]

    @pytest.mark.parametrize("c", [1.3, 0.4])
    def test_against_mpmath_in_both_tails(self, c):
        p = MarginalParams(c, -1.5, -1.5)
        assert type(_shape_plan(-1.5, -1.5)[2]) is model._T2Row
        x = big_q1(p, self.LEVELS)
        with mpmath.workdps(40):
            for u, g in zip(self.LEVELS, x):
                v = mpmath.mpf(u)
                ref = float(2 * p.c * (2 * v - 1) / mpmath.sqrt(v * (1 - v)))
                assert abs(g - ref) <= 1e-15 * abs(ref), (u, g, ref)
                assert big_q1(p, float(u)) == g
        # relative in u below the median, a few ulps of 1 above it
        ref = np.array([mpmath_t2_level(p, v) for v in x])
        back = f1(p, x)
        assert np.all(np.abs(back - ref) <= 1e-15 * ref), (back - ref) / ref
        np.testing.assert_array_equal([f1(p, float(v)) for v in x], back)

    def test_against_the_catalog_closed_cdf(self):
        entry = make_case("scaled-t2", c1=1.3, c2=0.4)
        for i in (1, 2):
            for x in (-1e12, -3e3, -2.0, -1e-3, 0.0, 1e-3, 2.0, 3e3, 1e12):
                closed = closed_marginal_cdf(entry, i, x)
                assert abs(generic_marginal_cdf(entry, i, x) - closed) <= 4e-16, (i, x)

    @pytest.mark.parametrize("shape", TWINS)
    def test_matches_its_twin_off_the_row(self, shape):
        p, t = MarginalParams(1.3, -1.5, -1.5), MarginalParams(1.3, *shape)
        assert type(_shape_plan(*shape)[2]) is model._CornerRow
        # down to 1e-12: deeper in the tails the corner's Newton solve is
        # only good to root_tol in log u
        levels = TestLogLogisticLine.LEVELS
        x, xt = big_q1(p, levels), big_q1(t, levels)
        np.testing.assert_array_less(np.abs(x - xt), 1e-13 * np.maximum(np.abs(xt), 1.0))
        np.testing.assert_array_less(np.abs(f1(p, x) - f1(t, x)),
                                     TestLogLogisticLine.f_tol(p, levels, x))
        assert support(p) == support(t)

    def test_no_root_solve(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _newton_bisect(*args)

        monkeypatch.setattr(model, "_newton_bisect", counting)
        p = MarginalParams(1.3, -1.5, -1.5)
        for m in (p, dataclasses.replace(p, c=p.c * 2.5)):
            x = big_q1(m, self.LEVELS)
            f1(m, x)
            f1(m, float(x[3]))
            big_q1(m, 0.3)
            u21(BivariateParams(UNIF, m, 0.7), 0.4, self.LEVELS)
            u21(BivariateParams(UNIF, m, 0.7), 0.4, 0.2)
        assert calls == []
        # each twin takes the corner path: at a level in the grid's first
        # cell, its Newton solve on the left half
        for shape in self.TWINS:
            t = MarginalParams(1.3, *shape)
            f1(t, big_q1(t, self.LEVELS[0]))
        assert len(calls) == len(self.TWINS)


class TestArcsineRow:
    """(-1/2, -1/2), the catalog's sine: Q = 2c asin(sqrt(u)), mirrored
    above u = 1/2, and F = sin(x/(2c))^2, with no incomplete beta call."""

    LEVELS = np.concatenate([np.geomspace(1e-290, 0.4, 40), [0.5],
                             1.0 - np.geomspace(0.4, 2.0 ** -52, 40)])

    def test_against_mpmath_in_both_tails(self):
        p = ARCSINE
        top, lower, row = _shape_plan(-0.5, -0.5)
        assert (top, lower, type(row)) == (math.pi, 0.0, model._ArcsineRow)
        assert support(p).upper == p.c * math.pi
        x = big_q1(p, self.LEVELS)
        with mpmath.workdps(40):
            c = mpmath.mpf(p.c)
            for u, g in zip(self.LEVELS, x):
                ref = 2 * c * mpmath.asin(mpmath.sqrt(mpmath.mpf(u)))
                assert abs(g - ref) <= 1e-14 * ref, (u, g, ref)
                back = f1(p, float(g))
                ref = mpmath.sin(mpmath.mpf(g) / (2 * c)) ** 2
                assert abs(back - ref) <= 1e-14 * ref, (u, back, ref)

    def test_array_and_scalar_agree_bit_for_bit(self):
        p = ARCSINE
        x = big_q1(p, self.LEVELS)
        np.testing.assert_array_equal([big_q1(p, float(u)) for u in self.LEVELS], x)
        np.testing.assert_array_equal([f1(p, float(v)) for v in x], f1(p, x))

    def test_against_the_catalog_closed_cdf(self):
        entry = make_case("sine", scale1=1.3, scale2=0.4)
        for i, s in ((1, 1.3), (2, 0.4)):
            for x in s * np.array([-0.1, 0.0, 1e-9, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0, 1.2]):
                closed = closed_marginal_cdf(entry, i, x)
                assert abs(generic_marginal_cdf(entry, i, x) - closed) <= 4e-16, (i, x)

    def test_no_incomplete_beta(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("incomplete beta called")

        for name in ("betainc", "betaincinv"):
            monkeypatch.setattr(model, name, refuse)
        x = big_q1(ARCSINE, self.LEVELS)
        f1(ARCSINE, x)
        f1(ARCSINE, float(x[20]))
        big_q1(ARCSINE, 0.3)


class TestHeavyRightTail:
    """alpha > -1, -2 < beta < -1: Q diverges at 1 and has a closed form."""

    U_TOP = 1.0 - 1e-9

    @pytest.mark.parametrize("c, alpha, beta, true", [
        (0.8, -0.6, -1.4, 7962.14),
        (9.08, -0.48, -1.05, 342.248),
        (9.08, -0.48, -1.001, 201.857),
        (0.8, -0.6, off_row(-0.6, -1.4)[1], 7962.14),
    ])
    def test_near_one_against_mpmath(self, c, alpha, beta, true):
        # these were 1.35e-6, -169.57 and -9068 by quadrature
        p = MarginalParams(c, alpha, beta)
        ref = mpmath_quantile(p, self.U_TOP)
        assert math.isclose(ref, true, rel_tol=1e-5)
        # the recurrence cancels as 1/|beta+1|
        tol = 1e-14 / abs(beta + 1.0)
        assert math.isclose(big_q1(p, self.U_TOP), ref, rel_tol=tol)
        arr = big_q1(p, np.array([0.5, self.U_TOP]))
        assert math.isclose(arr[1], ref, rel_tol=tol)

    @pytest.mark.parametrize("beta", [-1.9, -1.5, -1.1, -1.01, -1.001, -1.0002])
    def test_grid_toward_log_tail(self, beta):
        # the tolerance of the recurrence in b this branch once used, which
        # lost about 4e-15/|beta+1| relative as beta -> -1-
        tol = 1e-14 / abs(beta + 1.0)
        for alpha in (-0.9, 0.3, 2.5):
            p = MarginalParams(1.0, alpha, beta)
            us = [1e-10, 1e-4, 0.3, 0.9, 1.0 - 1e-6, self.U_TOP]
            arr = big_q1(p, np.array(us))
            for u, a in zip(us, arr):
                ref = mpmath_quantile(p, u)
                assert math.isclose(big_q1(p, u), ref, rel_tol=tol), (alpha, u)
                assert math.isclose(a, ref, rel_tol=tol), (alpha, u)

    @pytest.mark.parametrize("beta", [-1.0, -1.0 - 1e-6, -1.00005])
    def test_quadrature_next_to_log_tail(self, beta):
        # at and just below beta = -1 the right half runs on the series
        # next to the pole of B_y(beta+1, alpha+1); it holds the 1e-8 of the
        # quadrature it replaced with room to spare, also next to u = 1
        for alpha in (-0.5, 0.3):
            p = MarginalParams(1.0, alpha, beta)
            for u in (0.05, 0.5, 0.99, self.U_TOP, 1.0 - 2.0 ** -52):
                ref = mpmath_quantile(p, u)
                assert math.isclose(big_q1(p, u), ref, rel_tol=1e-13), (alpha, u)

    @pytest.mark.parametrize("p", [HEAVY_LL,
                                   MarginalParams(9.08, -0.48, -1.05),
                                   MarginalParams(1.0, 0.7, -1.3),
                                   MarginalParams(2.0, 2.5, -1.9),
                                   twin(HEAVY_LL)])
    def test_round_trip_down_to_small_u(self, p):
        us = np.array([1e-10, 1e-7, 1e-3, 0.2, 0.5, 0.8, 0.999, 1.0 - 1e-9])
        back = f1(p, big_q1(p, us))
        # relative in u below 1/2 and in 1-u above
        scale = np.minimum(us, 1.0 - us)
        np.testing.assert_array_less(np.abs(back - us) / scale, 1e-10)
        for u, b in zip(us, back):
            assert math.isclose(f1(p, big_q1(p, float(u))), b, rel_tol=1e-13)


# one marginal per branch of big_q1 / f1_flagged; "heavy-right" and
# "fallback-loglogistic" now lie on the log-logistic line and
# "fallback-median-anchored" is the t2 row, and their "-corner" twins keep
# the corner path
BRANCHES = {
    "power": MarginalParams(1.5, -0.5, 0.0),
    "exponential": EXP1,
    "alpha0-bounded": MarginalParams(2.0, 0.0, 0.5),
    "alpha0-pareto": MarginalParams(1.0, 0.0, -1.5),
    "incomplete-beta": CABLE2,
    "incomplete-beta-symmetric": MarginalParams(1.0, 0.09375, 0.09375),
    "heavy-right": HEAVY_LL,
    "fallback-log-tail": MarginalParams(1.0, 0.3, -1.0),
    "fallback-loglogistic": LOGLOG,
    "fallback-median-anchored": T2,
    "arcsine": ARCSINE,
    "heavy-right-corner": twin(HEAVY_LL),
    "fallback-loglogistic-corner": LOGLOG_CORNER,
    "fallback-median-anchored-corner": T2_CORNER,
}


# 200 seeded levels: 100 across (0, 1) and 50 in each tail, 1e-12 to 0.1
# from its end
_tails = 10.0 ** np.random.default_rng(33).uniform(-12.0, -1.0, size=(2, 50))
LEVELS = np.concatenate([np.random.default_rng(46).uniform(size=100),
                         _tails[0], 1.0 - _tails[1]])


class TestArrayMatchesScalar:
    """One answer per value: a float gets the bits of the same value in an array."""

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_big_q1(self, branch):
        p = BRANCHES[branch]
        u = np.concatenate([[0.0, 1e-9, 0.05, 0.3, 0.5, 0.77, 0.99, 1.0], LEVELS])
        arr = big_q1(p, u)
        assert arr.shape == u.shape
        scalar = [big_q1(p, float(v)) for v in u]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_array_equal(arr, scalar)
        np.testing.assert_array_equal(big_q1(p, u.reshape(2, -1)), arr.reshape(2, -1))

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_f1_flagged(self, branch):
        p = BRANCHES[branch]
        sup = support(p)
        inside = big_q1(p, np.concatenate([[1e-9, 0.05, 0.3, 0.5, 0.77, 0.99], LEVELS]))
        x = np.concatenate([inside, [sup.lower, sup.upper]])
        if p.alpha > -1.0:
            x = np.append(x, -1.0)  # below the support
        if math.isfinite(sup.upper):
            x = np.append(x, 2.0 * sup.upper)  # above it
        # one value per row: a beta row of more than 64 values starts
        # from Q on a grid (f1's long rows), not from each value's own solve
        u, flags = f1_flagged(p, x[:, None])
        assert u.shape == flags.shape == (x.size, 1)
        u, flags = u[:, 0], flags[:, 0]
        np.testing.assert_array_equal(f1_flagged(p, x[:60])[0], u[:60])  # one short row
        for xv, uv, fv in zip(x, u, flags):
            su, sf = f1_flagged(p, float(xv))
            assert type(su) is float and type(sf) is bool
            if branch == "power":
                # f1's float path on the closed rows is the catalog-grid
                # benchmark's, and this row rounds ** through Python's pow there
                assert math.isclose(uv, su, rel_tol=1e-13, abs_tol=1e-300), xv
            else:
                # a float is a row of one on the root-solving rows
                assert uv == su == f1(p, np.array([xv]))[0], xv
            assert fv == sf, xv
        assert list(flags) == [x < sup.lower or x > sup.upper for x in x]
        np.testing.assert_allclose(u[:6], [1e-9, 0.05, 0.3, 0.5, 0.77, 0.99],
                                   rtol=1e-8, atol=1e-12)


class TestSupport:
    def test_uniform(self):
        s = support(UNIF)
        assert (s.lower, s.upper, s.anchor) == (0.0, 1.0, 0.0)

    def test_exponential(self):
        s = support(EXP1)
        assert s.lower == 0.0 and s.upper == math.inf

    def test_heavy_left(self):
        s = support(T2)
        assert s.lower == -math.inf and s.anchor == 0.5


class TestDistributionFunction:
    def test_round_trip(self):
        for p in (EXP1, UNIF, CABLE1, CABLE2, COMP1, LOGLOG, SINE, T2, LOGLOG_CORNER):
            for u in np.linspace(0.1, 0.9, 9):
                x = big_q1(p, float(u))
                assert abs(f1(p, x) - u) <= 1e-9, (p, u)

    def test_exponential_value(self):
        assert math.isclose(f1(EXP1, math.log(2.0)), 0.5, abs_tol=1e-12)

    def test_power_closed_form(self):
        # F(x) = (x/b)^a with a = 1/(alpha+1), b = c/(alpha+1)
        p = MarginalParams(3.0, 0.5, 0.0)
        a = 1.0 / 1.5
        b = 3.0 / 1.5
        for x in np.linspace(0.1, 1.9, 10):
            assert math.isclose(f1(p, float(x)), (x / b) ** a, rel_tol=1e-12)

    def test_clamping(self):
        u, clamped = f1_flagged(UNIF, -0.5)
        assert (u, clamped) == (0.0, True)
        u, clamped = f1_flagged(UNIF, 1.5)
        assert (u, clamped) == (1.0, True)
        u, clamped = f1_flagged(UNIF, 0.25)
        assert (u, clamped) == (0.25, False)

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_nan_raises(self, branch):
        p = BRANCHES[branch]
        for fn in (f1, f1_flagged):
            with pytest.raises(DomainError):
                fn(p, math.nan)
            with pytest.raises(DomainError):
                fn(p, np.array([0.0, math.nan]))
            with pytest.raises(DomainError):
                fn(p, np.full((2, 2), math.nan))

    # the incomplete-beta row at tiny levels, where scipy's betaincinv
    # (1.17) is NaN: a in about (1.001, 1.02) with b <= 0.2 below 1e-17,
    # and a = b = 3 below 1e-108
    @pytest.mark.parametrize("alpha, beta, level", [
        (0.015625, -1.0 + 1e-10, 1e-17), (0.01, -0.8, 1e-17), (0.001, -0.9, 1e-18),
        (0.02, -0.95, 1e-20), (2.0, 2.0, 1e-108), (2.0, 2.0, 1e-200)])
    def test_tiny_levels_against_mpmath(self, alpha, beta, level):
        p = MarginalParams(1.3, alpha, beta)
        top = support(p).upper
        x = level * top
        with mpmath.workdps(40):
            # c B_u(a, b) = x, solved in log u from the tail asymptote u^a/a
            a, b, target = mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1, mpmath.mpf(x) / p.c
            log_u = mpmath.findroot(
                lambda s: mpmath.log(mpmath.betainc(a, b, 0, mpmath.exp(s)) / target),
                mpmath.log(a * target) / a)
            ref = float(mpmath.exp(log_u))
        got = f1(p, x)
        assert abs(got - ref) <= 4e-15 * ref, (got, ref)
        # the array path agrees, and leaves its other elements to betaincinv
        arr = f1(p, np.array([x, 0.3 * top]))
        assert arr[0] == got
        if alpha != beta:
            assert arr[1] == betaincinv(alpha + 1.0, beta + 1.0, 0.3)

    def test_tiny_level_next_to_beta_minus_one(self):
        # once NaN: betaincinv(1.015625, 1e-10, p) for p below about 1e-16
        p = MarginalParams(1.0, 0.015625, -1.0 + 1e-10)
        u = f1(p, 4e-7)
        assert math.isclose(u, 5.094710607329377e-07, rel_tol=4e-15)
        v = u21(BivariateParams(UNIF, p, 1.0), 0.5, np.array([1e-6, 0.3]))
        assert np.all(np.isfinite(v)) and np.all(v < [1e-6, 0.3])

    # corner margins whose level is subnormal: once ConvergenceError, as
    # log(y**p) stopped moving with mu there
    @pytest.mark.parametrize("alpha, beta, x", [
        (-0.99, -1.0, 0.0855489790998328), (-0.99, -1.0, 0.08114999999999999),
        (-0.95, -1.2, 2.715e-15)])
    def test_subnormal_level_on_a_corner(self, alpha, beta, x):
        p = MarginalParams(1.3, alpha, beta)
        a = alpha + 1.0
        u = f1(p, x)
        # B_u(a, b) = u^a/a to within a factor 1 + O(u) there
        assert 0.0 < u < np.finfo(float).tiny
        assert abs(u - (a * x / p.c) ** (1.0 / a)) <= np.finfo(float).smallest_subnormal

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [1e-320, 1e-310])
    def test_subnormal_x_on_a_corner(self, x):
        # (a x/c)^(1/a) underflows; p g in the tail bound's log once did too,
        # and the bracket's lower end became +inf
        assert f1(MarginalParams(1.0, -0.9999999, -1.9999), x) == 0.0


def mpmath_level(p: MarginalParams, x: float, u: float) -> mpmath.mpf:
    """The root of Q(u) = x for alpha > -1, by mpmath Newton from u at 40 digits.

    Q is c B_u(a, b), continued in b; where beta > -1 it is taken as
    Q(1) I_u(a, b) with the float Q(1) the margin holds, whose rounding is
    not the inversion's.
    """
    with mpmath.workdps(40):
        u, x = mpmath.mpf(u), mpmath.mpf(x)
        a, b = mpmath.mpf(p.alpha) + 1, mpmath.mpf(p.beta) + 1
        scale = (mpmath.mpf(support(p).upper) / mpmath.beta(a, b) if p.beta > -1.0
                 else mpmath.mpf(p.c))
        for _ in range(4):
            u -= ((scale * mpmath.betainc(a, b, 0, u) - x)
                  / (scale * u ** (a - 1) * (1 - u) ** (b - 1)))
        return +u


def column_bound(p: MarginalParams, x, u, q_rel: float = 4e-16):
    """1e-13 min(u, 1-u) + q_rel |x|/q(u), and an ulp of u, which near u = 1
    can exceed the rest: a long column's accuracy against the exact solve,
    with q_rel the relative rounding of Q at the Halley step."""
    with np.errstate(all="ignore"):
        q = p.c * u ** p.alpha * (1.0 - u) ** p.beta
        return 1e-13 * np.minimum(u, 1.0 - u) + q_rel * np.abs(x) / q + np.spacing(u)


def exact_solve(p: MarginalParams, x) -> np.ndarray:
    """Each value's own exact F: betaincinv value by value on a beta row, and
    the corner row's f, its Newton solve in mu, which f1 runs on the values
    the grid leaves; 0 and 1 outside the support."""
    x = np.asarray(x, dtype=float)
    lower, upper, row = p._plan
    if not isinstance(row, model._CornerRow):
        return np.array([f1(p, float(v)) for v in x])
    u = np.where(x <= lower, 0.0, 1.0)
    inside = (x > lower) & (x < upper)
    u[inside] = row.f(p, x[inside], upper, model.DEFAULT_NUMERIC_CONFIG)
    return u


class TestLongColumns:
    """f1 on a row of more than 64 values inside the support of a
    beta row, and on any corner row: Halley steps on Q from its cell of a
    fixed grid of levels."""

    MARGINS = [COMP1, CABLE1, CABLE2, MarginalParams(5.9257, 0.3555, -0.6695),
               MarginalParams(1.0, 0.3, -1.2), MarginalParams(1.0, -1.2, -0.3),
               MarginalParams(2.0, 2.5, 3.1)]

    @staticmethod
    def counting(monkeypatch, p):
        # the sizes of the exact solve's calls: the row's f, which f1 calls on
        # what the grid leaves
        sizes = []
        row = p._plan[2]
        exact = row.f
        monkeypatch.setattr(row, "f", lambda *a: sizes.append(np.size(a[1])) or exact(*a))
        return sizes

    @pytest.mark.parametrize("p", MARGINS)
    def test_one_anchor_call_and_few_exact_solves(self, p, monkeypatch):
        p = dataclasses.replace(p)
        sizes = self.counting(monkeypatch, p)
        rng = np.random.default_rng(7)
        exact = 0
        for _ in range(10):
            x = big_q1(p, rng.random(1000))
            ref = exact_solve(p, x)
            before = len(sizes)
            u = f1(p, x)
            assert len(sizes) - before <= 1  # at most one exact call per long f1 call
            exact += sum(sizes[before:])
            assert np.all(np.abs(u - ref) <= column_bound(p, x, ref))
        # the two end cells and what two Halley passes leave: at most 2% of the
        # values (6% at (2.5, 3.1))
        assert exact <= (0.06 if p.alpha == 2.5 else 0.02) * 10000, exact

    @pytest.mark.parametrize("p", MARGINS)
    def test_a_column_of_64_is_all_anchors(self, p, monkeypatch):
        # each value's F is its float F: the beta row's own solve, the corner
        # row's from the grid
        x = big_q1(p, np.random.default_rng(8).random(64))
        upper = p._plan[1]
        expected = np.array([f1(p, float(v)) for v in x])
        np.testing.assert_array_equal(f1(p, x), expected)
        np.testing.assert_array_equal(f1(p, np.stack([x, x[::-1]])), [expected, expected[::-1]])
        # so is a longer row with at most 64 values inside the support
        out = np.concatenate([x, np.full(40, upper if upper < np.inf else -1.0)])
        np.testing.assert_array_equal(f1(p, out)[:64], expected)

    def test_rows_of_a_block_are_their_own_columns(self):
        p = MarginalParams(1.0, 0.3, -1.2)
        rng = np.random.default_rng(9)
        x = big_q1(p, rng.random(300))
        x[:30] = x[30:60]  # ties
        block = np.stack([x, rng.permutation(x), np.where(rng.random(300) < 0.9, x, -1.0),
                          x[:100].repeat(3), np.concatenate([x[:50], np.full(250, -1.0)])])
        got = f1(p, block)
        for row, u in zip(block, got):
            np.testing.assert_array_equal(u, f1(p, row))
        # a value does not depend on the order of its row
        order = np.argsort(block[1])
        np.testing.assert_array_equal(got[1][order], f1(p, np.sort(block[1])))
        np.testing.assert_array_equal(f1(p, block.reshape(5, 2, 150))[:, 0],
                                      f1(p, block[:, :150]))
        np.testing.assert_array_equal(f1(p, np.tile(block, (20, 1))), np.tile(got, (20, 1)))
        assert f1(p, np.zeros((0, 100))).shape == (0, 100)

    def test_no_value_inside_evaluates_no_q(self, monkeypatch):
        # on a corner margin the grid costs Q at its 127 levels even for no
        # value: an empty block, a row below the support and a float below it skip it
        p = MarginalParams(1.0, 0.3, -1.2)
        row, calls = p._plan[2], []
        q = row.q
        monkeypatch.setattr(row, "q", lambda *a: calls.append(np.size(a[1])) or q(*a))
        assert f1(p, np.zeros((0, 100))).shape == (0, 100)
        np.testing.assert_array_equal(f1(p, np.full(70, -1.0)), np.zeros(70))
        assert f1(p, -1.0) == 0.0
        assert calls == []
        f1(p, 1.0)
        assert calls[0] == 127

    @pytest.mark.parametrize("p", [COMP1, CABLE2, MarginalParams(1.0, -1.2, -0.3)])
    def test_a_value_does_not_depend_on_its_row(self, p):
        # the same bits alone in its row, in a permutation of it, in a long
        # subset of it and in the row joined to another long sample
        rng = np.random.default_rng(11)
        x, other = big_q1(p, rng.random(300)), big_q1(p, rng.random(200))
        u = f1(p, x)
        order = rng.permutation(300)
        np.testing.assert_array_equal(f1(p, x[order]), u[order])
        np.testing.assert_array_equal(f1(p, x[:100]), u[:100])
        np.testing.assert_array_equal(f1(p, np.concatenate([other, x]))[200:], u)

    def test_any_memory_layout(self):
        # a Fortran-ordered, transposed or strided block gives the C-ordered result
        p = MarginalParams(1.0, 0.3, -1.2)
        block = big_q1(p, np.random.default_rng(10).random((5, 2, 150)))
        for x in (np.asfortranarray(block), block.transpose(1, 0, 2), block[:, :, ::-1]):
            expected = f1(p, np.ascontiguousarray(x))
            assert np.all((expected > 0.0) & (expected < 1.0))
            np.testing.assert_array_equal(f1(p, x), expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_duplicated_values_and_the_support_ends(self):
        # every value tied: a long row of three values takes the grid, each tie
        # with the same bits, each value within column_bound of its own solve
        for p in (COMP1, MarginalParams(1.0, -1.2, -0.3)):
            x = np.repeat(big_q1(p, np.array([0.1, 0.5, 0.9])), 100)
            u, ref = f1(p, x), exact_solve(p, x[::100])
            np.testing.assert_array_equal(u, np.repeat(u[::100], 100))
            assert np.all(np.abs(u[::100] - ref) <= column_bound(p, x[::100], ref))
            sup = support(p)
            ends = np.concatenate([x, [sup.lower, sup.upper, -np.inf, np.inf]])
            np.testing.assert_array_equal(f1(p, ends)[-4:], [0.0, 1.0, 0.0, 1.0])

    def test_symmetric_shape_next_to_one_half(self):
        # betaincinv(a, a, p) misses just above p = 1/2, where _BetaRow.f
        # takes one Newton step on every value
        p = MarginalParams(1.0, 0.09375, 0.09375)
        levels = 0.5 + np.arange(-8, 9) * np.spacing(0.5) / 2 ** (np.arange(-8, 9) < 0)
        x = big_q1(p, levels)
        ref = [mpmath_level(p, v, 0.5) for v in x]
        column = f1(p, np.concatenate([x, big_q1(p, np.linspace(0.01, 0.99, 100))]))[:17]
        assert column.size == 17
        for got in ([f1(p, float(v)) for v in x], column):
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-15 * r, (g, r)


class TestOneCornerF:
    """A corner value's F depends on x and its margin alone: a float, a row of
    1, 9, 20 or 64 values and a row of 1100 give it the same bits, from Q at
    the grid's levels, or from the exact solve in mu in the two end cells and
    where the Halley passes leave it."""

    # two fitted cable corners of bootstrap replicates, a right half on the
    # series next to its pole (0.3, -1.98) and three median-anchored shapes.
    # (-1 + 1e-6, -1.5) stays on the list of F's known misses: against
    # mpmath_level its grid values reach 2.4 times the bound below and its end
    # cells 4.6 times, as Newton in mu on log G amplifies the rounding of
    # log G by 1/(alpha + 1)
    MARGINS = [MarginalParams(8.477, -0.3455, -1.3282), MarginalParams(9.0819, -0.5980, -1.4267),
               MarginalParams(1.3, 0.3, -1.98), MarginalParams(1.3, -1.2, -0.5),
               MarginalParams(1.3, -1.5, -1.2), MarginalParams(1.3, -2.0, 0.5)]

    @pytest.mark.parametrize("p", MARGINS)
    def test_one_f_whatever_holds_it(self, p):
        rng = np.random.default_rng(53)
        levels = np.concatenate([rng.random(700), 10.0 ** -rng.uniform(1.0, 300.0, 300),
                                 1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 300)])
        x = big_q1(p, levels)
        lower, upper, _ = p._plan
        # inside the support, and no subnormal x, whose rounding the bound does not hold
        x = rng.permutation(x[(x > lower) & (x < upper) & (np.abs(x) >= 2.0 ** -1022)])[:1100]
        assert x.size == 1100
        u = f1(p, x)
        np.testing.assert_array_equal([f1(p, float(v)) for v in x], u)
        np.testing.assert_array_equal(f1(p, x[:, None])[:, 0], u)
        for n in (9, 20, 64):
            np.testing.assert_array_equal(
                np.concatenate([f1(p, x[i:i + n]) for i in range(0, x.size, n)]), u)
        if p.alpha > -1.0:
            ref = np.array([float(mpmath_level(p, v, w)) for v, w in zip(x, u)])
        else:
            ref = exact_solve(p, x)
        # the exact solve holds u through mu = -log(2 min(u, 1-u)) to about an
        # ulp of mu, 1.1e-13 of u past mu = 512 (u below 1e-223): there it is
        # up to 1.13 times column_bound off mpmath_level at (-0.598, -1.4267)
        m = np.minimum(ref, 1.0 - ref)
        bound = column_bound(p, x, ref) + m * np.spacing(-np.log(2.0 * m))
        assert np.all(np.abs(u - ref) <= bound), np.max(np.abs(u - ref) / bound)


class TestConditional:
    BP = BivariateParams(EXP1, MarginalParams(2.0, 0.0, -1.0), 0.7)

    def test_u21_independence(self):
        bp0 = BivariateParams(UNIF, UNIF, 0.0)
        for u2 in (0.1, 0.5, 0.9):
            assert u21(bp0, 0.3, u2) == u2

    def test_u21_power_example(self):
        bp = BivariateParams(UNIF, UNIF, 1.0)
        assert math.isclose(u21(bp, 1.0, 0.5), 0.25, rel_tol=1e-14)

    def test_u21_below_u2(self):
        rng = np.random.default_rng(5)
        bp = BivariateParams(CABLE1, CABLE2, 0.6821)
        for _ in range(50):
            a, b = rng.random(2)
            v = u21(bp, float(a), float(b))
            assert v <= b + 1e-12
            if a > 0:
                assert v < b or b == 0.0

    def test_u21_real_line_marginal(self):
        # below the median a negative quantile scaled by 1/(1+theta*u1)
        # moves toward zero, so the conditional level exceeds u2
        bp = BivariateParams(UNIF, T2, 1.0)
        v = u21(bp, 0.5, 0.2)
        assert v > 0.2
        ref = big_q1(T2, 0.2) / 1.5
        assert math.isclose(big_q1(T2, v), ref, rel_tol=1e-8, abs_tol=1e-9)
        assert u21(bp, 0.5, 0.5) == 0.5  # the anchor is a fixed point

    def test_u21_bisection_oracle(self):
        cfg = NumericConfig()
        for bp in (BivariateParams(UNIF, CABLE2, 0.6821),
                   BivariateParams(UNIF, MarginalParams(1.5, 0.7, 0.4), 1.3)):
            for u1v, u2v in ((0.2, 0.7), (0.8, 0.33), (0.5, 0.95)):
                target = big_q1(bp.m2, u2v) / (1.0 + bp.theta * u1v)
                ref = brentq(lambda v: big_q1(bp.m2, v) - target, 0.0, u2v,
                             xtol=1e-14)
                assert math.isclose(u21(bp, u1v, u2v, cfg), ref, abs_tol=1e-9)

    # one second margin per branch of u21: no dependence, power (beta = 0),
    # alpha = 0 (three sub-cases), incomplete beta, the divergent right
    # tail -2 < beta < -1, and the per-element inversion (median-anchored,
    # and beta <= -2 with alpha != 0)
    U21_BRANCHES = {
        "identity": (CABLE2, 0.0),
        "power": (MarginalParams(1.5, -0.5, 0.0), 1.3),
        "alpha0-exponential": (EXP1, 0.7),
        "alpha0-bounded": (MarginalParams(2.0, 0.0, 0.5), 0.9),
        "alpha0-pareto": (MarginalParams(1.0, 0.0, -1.5), 0.9),
        "incomplete-beta": (CABLE2, 0.6821),
        "heavy-right-tail": (MarginalParams(1.0, 0.7, -1.3), 0.8),
        "heavy-right-tail-loglogistic": (HEAVY_LL, 2.0),
        "inversion-median-anchored": (T2, 1.0),
        "inversion-right-tail": (LOGLOG, 0.8),
        # the two log-logistic margins above lie on the line
        # alpha + beta = -2 and T2 is the t2 row; their twins off them
        # keep the corner path
        "heavy-right-tail-corner": (twin(HEAVY_LL), 2.0),
        "inversion-right-tail-corner": (LOGLOG_CORNER, 0.8),
        "inversion-median-anchored-corner": (T2_CORNER, 1.0),
    }

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("branch", list(U21_BRANCHES))
    def test_u21_array_matches_scalar_and_oracle(self, branch):
        m2, theta = self.U21_BRANCHES[branch]
        bp = BivariateParams(UNIF, m2, theta)
        u2 = np.array([0.0, 0.05, 0.3, 0.5, 0.77, 0.9, 1.0])
        for u1v in (0.0, 0.35, 1.0):
            arr = u21(bp, u1v, u2)
            assert arr.shape == u2.shape
            scalar = [u21(bp, u1v, float(x)) for x in u2]
            assert all(type(v) is float for v in scalar)
            # the same formula; vector and scalar pow may differ by an ulp
            np.testing.assert_allclose(arr, scalar, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(u21(bp, u1v, u2.reshape(7, 1))[:, 0], arr,
                                       rtol=1e-13, atol=1e-15)
            assert arr[0] == 0.0
            g = 1.0 + theta * u1v
            lo, hi = (1e-9, 1.0 - 1e-9) if m2.alpha <= -1.0 else (0.0, None)
            for x, v in zip(u2[1:-1], arr[1:-1]):
                target = oracle_quantile(m2, x) / g
                ref = brentq(lambda w: oracle_quantile(m2, w) - target, lo,
                             hi if hi is not None else x, xtol=1e-14)
                assert math.isclose(v, ref, abs_tol=1e-9), (u1v, x)
        # a column of u1 broadcasts against u2: one row per u1
        u1 = np.array([[0.0], [0.35], [1.0]])
        grid = u21(bp, u1, u2)
        assert grid.shape == (3, 7)
        for row, u1v in zip(grid, u1[:, 0]):
            np.testing.assert_allclose(row, u21(bp, u1v, u2), rtol=1e-13, atol=1e-15)
        assert np.array_equal(grid[0], u2)  # g = 1 returns u2 exactly
        with pytest.raises(DomainError):
            u21(bp, np.array([[0.5], [1.5]]), u2)

    def test_conditional_survival_exponential(self):
        # exp case: S(x2 | u1) = exp(-x2 / (c2 (1 + theta u1)))
        bp = self.BP
        for u1v in (0.0, 0.4, 0.9):
            for x2 in (0.5, 2.0, 7.0):
                ref = math.exp(-x2 / (2.0 * (1.0 + 0.7 * u1v)))
                assert math.isclose(q2_bar_conditional(bp, u1v, x2), ref,
                                    rel_tol=1e-10)

    def test_conditional_u1_zero_is_marginal(self):
        bp = BivariateParams(UNIF, CABLE2, 1.1)
        for x2 in (3.0, 11.0, 40.0):
            assert math.isclose(q2_bar_conditional(bp, 0.0, x2),
                                1.0 - f1(CABLE2, x2), rel_tol=1e-12)


class TestJointSurvival:
    def test_independence_factorizes(self):
        bp = BivariateParams(CABLE1, CABLE2, 0.0)
        for x1 in (2.0, 10.0, 30.0):
            for x2 in (5.0, 20.0, 45.0):
                lhs = joint_survival(bp, x1, x2)
                rhs = (1.0 - f1(CABLE1, x1)) * (1.0 - f1(CABLE2, x2))
                assert math.isclose(lhs, rhs, abs_tol=1e-12)

    def test_lower_corner(self):
        bp = BivariateParams(UNIF, UNIF, 0.8)
        assert joint_survival(bp, 0.0, 0.0) == 1.0

    def test_exponential_closed_form(self):
        c1, c2, th = 1.0, 2.0, 0.5
        bp = BivariateParams(MarginalParams(c1, 0.0, -1.0),
                             MarginalParams(c2, 0.0, -1.0), th)
        for x1 in np.linspace(0.2, 3.0, 5):
            for x2 in np.linspace(0.2, 5.0, 5):
                u1v = 1.0 - math.exp(-x1 / c1)
                ref = math.exp(-x1 / c1 - x2 / (c2 * (1.0 + th * u1v)))
                assert math.isclose(joint_survival(bp, float(x1), float(x2)),
                                    ref, rel_tol=1e-10)

    def test_monotone_in_x2(self):
        bp = BivariateParams(UNIF, UNIF, 1.0)
        xs = np.linspace(0.0, 2.0, 12)
        for x1 in (0.1, 0.5, 0.9):
            vals = [joint_survival(bp, x1, float(x)) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_x1_where_law_is_coherent(self):
        # the product form is a bona fide survival function below the
        # conditional-support edge; there it must decrease in x1
        bp = BivariateParams(UNIF, UNIF, 1.0)
        xs = np.linspace(0.0, 1.0, 12)
        for x2 in (0.1, 0.3, 0.45):
            vals = [joint_survival(bp, float(x), x2) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        bp0 = BivariateParams(UNIF, UNIF, 0.0)
        for x2 in (0.2, 0.6, 0.9):
            vals = [joint_survival(bp0, float(x), x2) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_product_form_is_not_monotone_in_x1_near_edge(self):
        # for theta > 0 and x2 beyond the marginal support edge the
        # product form increases in x1: it is not a valid joint survival
        # there (the sampler clamps that region; see sampling module)
        bp = BivariateParams(UNIF, UNIF, 1.0)
        assert joint_survival(bp, 0.1, 0.8) > joint_survival(bp, 0.0, 0.8)


class TestProductMoment:
    def test_independence(self):
        from bivqf.lmom import population_lmoments
        bp = BivariateParams(CABLE1, CABLE2, 0.0)
        ref = population_lmoments(CABLE1).l1 * population_lmoments(CABLE2).l1
        assert math.isclose(product_moment(bp), ref, rel_tol=1e-12)

    def test_uniform_analytic(self):
        # for both marginals uniform and theta = 1 the double integral
        # evaluates in closed form to 1 - log 2
        bp = BivariateParams(UNIF, UNIF, 1.0)
        assert math.isclose(product_moment(bp), 1.0 - math.log(2.0),
                            rel_tol=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_direct_double_quadrature_oracle(self):
        from scipy.special import betainc, betaincinv

        def oracle(bp):
            a, b = bp.m2.alpha + 1.0, bp.m2.beta + 1.0

            def inner(u2v, u1v):
                w = betaincinv(a, b, betainc(a, b, u2v) / (1.0 + bp.theta * u1v))
                return ((1.0 - u1v) * (1.0 - w)
                        * q1(bp.m1, u1v) * q1(bp.m2, u2v))

            val, _ = dblquad(inner, 1e-9, 1.0 - 1e-9, 1e-9, 1.0 - 1e-9,
                             epsabs=1e-9, epsrel=1e-9)
            return val

        for bp in (BivariateParams(UNIF, MarginalParams(1.0, 0.7, 0.4), 0.9),
                   BivariateParams(MarginalParams(2.0, 0.5, 1.0),
                                   MarginalParams(1.0, -0.34, -0.35), 0.68)):
            assert math.isclose(product_moment(bp), oracle(bp), rel_tol=5e-6)

    @pytest.mark.parametrize("m1, m2", [
        (CABLE1, CABLE2),
        (COMP1, MarginalParams(5.9257, 0.3555, -0.6695)),
        (MarginalParams(9.08, -0.48, -1.05), CABLE2),  # beta1 < -1
        # beta2 near -1: I^-1(1/g) rounds to 1 for moderate g
        (COMP1, MarginalParams(5.9257, 0.3555, -0.99)),
        # alpha1 near -1 with a large second shape: the inner integrand's
        # (theta u1)^(1 + 1/b2) kink at u1 = 0 needs the u1 = s^k map
        (MarginalParams(1.0, -0.95, 1.9), MarginalParams(1.0, 2.9, 1.9)),
    ])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0, 1e5])
    def test_fixed_rule_matches_adaptive(self, m1, m2, theta):
        a2, b2 = m2.alpha + 1.0, m2.beta + 1.0
        scale2 = m2.c * complete_beta(a2, b2 + 1.0)

        def inner(u):
            g = 1.0 + theta * u
            return m1.c * scale2 * g * betainc(a2, b2 + 1.0, betaincinv(a2, b2, 1.0 / g))

        tight = NumericConfig(quad_rel_tol=1e-12)
        ref = quad_beta_kernel(inner, m1.alpha, m1.beta + 1.0, tight)
        assert math.isclose(product_moment(BivariateParams(m1, m2, theta)), ref,
                            rel_tol=1e-8)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0, 1e5])
    def test_alpha2_near_minus_one_sits_at_the_cap(self, theta):
        # I^-1(1/g) underflows once g > 1 + 1e-6 or so; by then
        # g I_w(a2, b2+1) has reached B(a2, b2) / B(a2, b2+1), so E(X1 X2)
        # equals its theta -> inf limit l1(X1) c2 B(a2, b2)
        from bivqf.lmom import population_lmoments
        m2 = MarginalParams(1.0, -0.999999, 0.5)
        cap = population_lmoments(COMP1).l1 * m2.c * complete_beta(1e-6, 1.5)
        assert math.isclose(product_moment(BivariateParams(COMP1, m2, theta)), cap,
                            rel_tol=1e-10)

    @pytest.mark.parametrize("alpha, beta", [(-0.9, -1.9), (-0.99, -1.6), (-1.0 + 1e-15, -1.7),
                                             (0.5, -2.0 + 1e-15), (-0.3, -1.2)])
    def test_weight_exponents_next_to_minus_one(self, alpha, beta):
        # with u2 uniform and theta = 1 the inner integral is 1 - 1/(2(1+u1)),
        # so E(X1 X2) = B(a, c) (1 - 2F1(1, a; a+c; -1)/2), a = alpha+1, c = beta+2;
        # exponents below -1/2 of the rule's weight are raised by one first
        a, c = mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 2
        ref = mpmath.beta(a, c) * (1 - mpmath.hyp2f1(1, a, a + c, -1) / 2)
        got = product_moment(BivariateParams(MarginalParams(1.0, alpha, beta), UNIF, 1.0))
        assert math.isclose(got, float(ref), rel_tol=1e-10)

    def test_monotone_in_theta(self):
        bp0 = BivariateParams(UNIF, UNIF, 0.0)
        bp1 = BivariateParams(UNIF, UNIF, 1.0)
        bp2 = BivariateParams(UNIF, UNIF, 2.0)
        assert product_moment(bp0) < product_moment(bp1) < product_moment(bp2)

    def test_divergent_moment(self):
        with pytest.raises(DivergentMomentError):
            product_moment(BivariateParams(T2, UNIF, 0.5))
        with pytest.raises(DivergentMomentError):
            product_moment(BivariateParams(UNIF, MarginalParams(1.0, 0.0, -2.0), 0.5))


class TestParamValidation:
    def test_scale_positive(self):
        with pytest.raises(DomainError):
            MarginalParams(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            MarginalParams(-2.0, 0.0, 0.0)

    def test_theta_nonnegative(self):
        with pytest.raises(DomainError):
            BivariateParams(UNIF, UNIF, -0.1)

    def test_finite(self):
        with pytest.raises(DomainError):
            MarginalParams(1.0, math.nan, 0.0)

    def test_numpy_float_fields_are_floats(self):
        # a numpy exponent used to reach the fixed rule's lift test as
        # np.bool and raise TypeError there
        m1 = MarginalParams(1.0, np.float64(0.5), np.float64(0.2))
        m2 = MarginalParams(np.float64(2.0), np.float64(-0.3), np.float64(-0.4))
        assert all(type(v) is float for m in (m1, m2) for v in (m.c, m.alpha, m.beta))
        plain = BivariateParams(MarginalParams(1.0, 0.5, 0.2), MarginalParams(2.0, -0.3, -0.4), 0.7)
        bp = BivariateParams(m1, m2, 0.7)
        assert bp == plain
        assert product_moment(bp) == product_moment(plain)
        assert population_lcomoments(bp) == population_lcomoments(plain)

    def test_config_validation(self):
        for kw in ({"quad_rel_tol": 0.0}, {"root_tol": math.inf}, {"root_tol": math.nan}):
            with pytest.raises(DomainError, match=next(iter(kw))):
                NumericConfig(**kw)
        assert [f.name for f in dataclasses.fields(NumericConfig)] == ["quad_rel_tol",
                                                                        "root_tol"]
        # the absolute floor is a hundredth of the relative tolerance, to the bit
        assert NumericConfig().quad_abs_tol == 1e-10


# the published fits and the sample sizes the bootstrap replicates them at
REPLICATED = {
    "cable": (BivariateParams(CABLE1, CABLE2, 0.6821), 9),
    "components": (BivariateParams(COMP1, MarginalParams(5.9257, 0.3555, -0.6695), 0.5492), 20),
}


class TestRootSearch:
    """fit_theta solves in closed form where the product moment is linear in
    theta (beta2 <= -1), and elsewhere by _newton_bisect on the exact slope
    from theta = 0; model._product_moment gives both at each iterate, on a
    u1 rule (model._u1_rule) past theta = 0 and on the closed line at 0.
    fit_mrq solves by _newton_bisect on the exact slope of L2(1,2) in d.
    Their roots agree with scipy's brentq on the same residual."""

    @staticmethod
    def close_to_brentq(x, f, lo, hi, cfg=NumericConfig()):
        ref = brentq(f, lo, hi, xtol=cfg.root_tol, maxiter=model.ROOT_MAX_ITER)
        assert abs(x - ref) <= 2.0 * (cfg.root_tol + 4.0 * np.finfo(float).eps * abs(ref)), \
            (x, ref)

    @staticmethod
    def count_calls(monkeypatch):
        """Record the theta of each product moment fit evaluates, and count the
        u1 rules those evaluations run."""
        calls = {"thetas": [], "rules": 0}

        def counted_pm(m1, m2, theta, cfg, _fn=fit._product_moment):
            calls["thetas"].append(theta)
            return _fn(m1, m2, theta, cfg)

        def counted_rule(*args, _fn=model._u1_rule, **kw):
            calls["rules"] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(fit, "_product_moment", counted_pm)
        monkeypatch.setattr(model, "_u1_rule", counted_rule)
        return calls

    @staticmethod
    def newton_ran_the_rule_at_each_iterate(calls):
        # theta = 0 first, for the independence value and as Newton's start,
        # on the closed line; then one rule per iterate past it
        thetas = calls["thetas"]
        past_0 = len(thetas) - 2
        return (thetas[:2] == [0.0, 0.0] and past_0 >= 1 and all(th > 0.0 for th in thetas[2:])
                and calls["rules"] == past_0)

    def test_fit_theta(self, monkeypatch):
        s = BUILTIN_DATASETS["cable"]
        m1, m2 = fit_marginal(s.x1), fit_marginal(s.x2)
        calls = self.count_calls(monkeypatch)
        theta, (lo, hi), _ = fit_theta(s, m1, m2)
        assert self.newton_ran_the_rule_at_each_iterate(calls), calls
        assert 0.0 < lo <= hi == theta
        target = float(np.mean(np.asarray(s.x1) * np.asarray(s.x2)))
        self.close_to_brentq(
            theta, lambda th: product_moment(BivariateParams(m1, m2, th)) - target,
            0.0, 2.0 * theta)

    @pytest.mark.parametrize("name", sorted(REPLICATED))
    def test_fit_theta_on_replicates(self, name, monkeypatch):
        bp, n = REPLICATED[name]
        calls = self.count_calls(monkeypatch)
        kinds = []
        for seed in range(24):
            s = draw(bp, SamplerSpec(seed, n, ("exact", "transform")[seed % 2]))
            m1, m2 = fit_marginal(s.x1), fit_marginal(s.x2)
            calls["thetas"].clear()
            calls["rules"] = 0
            theta, (lo, hi), _ = fit_theta(s, m1, m2)
            assert calls["thetas"][0] == 0.0
            if theta == 0.0:
                kinds.append("zero")
                continue
            if m2.beta <= -1.0:
                # the product moment is a line in theta: no rule runs
                kinds.append("closed")
                assert lo == hi == theta and calls["thetas"] == [0.0, theta]
                assert calls["rules"] == 0
            else:
                kinds.append("newton")
                assert 0.0 <= lo <= hi == theta
                assert self.newton_ran_the_rule_at_each_iterate(calls), calls
            target = s.product_mean
            self.close_to_brentq(
                theta, lambda th: product_moment(BivariateParams(m1, m2, th)) - target,
                0.0, 2.0 * theta)
        assert kinds.count("closed") >= 5 and kinds.count("newton") >= 5, kinds

    @pytest.mark.parametrize("m1,m2,theta", [
        (CABLE1, CABLE2, 0.89),
        (MarginalParams(1.0, 0.3, 0.4), MarginalParams(1.5, -0.2, 0.6), 2.0),
        (MarginalParams(2.0, 1.5, -0.7), MarginalParams(1.0, 2.0, 1.0), 40.0),
        (UNIF, MarginalParams(1.0, -0.9, -0.95), 0.3),
        (UNIF, MarginalParams(1.0, 0.5, -1.3), 0.7)])
    def test_slope_matches_central_differences(self, m1, m2, theta):
        def pm(th):
            return product_moment(BivariateParams(m1, m2, th))

        value, slope = model._product_moment(m1, m2, theta, NumericConfig())
        assert value == pm(theta)
        h = 1e-5 * theta
        assert math.isclose(slope, (pm(theta + h) - pm(theta - h)) / (2.0 * h), rel_tol=1e-9)

    def test_rule_failing_at_the_root_is_doubled(self, monkeypatch):
        # a rule sized at the first iterate fails its n-against-2n check at
        # the root; sized at every iterate, it doubles there
        m1 = MarginalParams(1.0, 0.06399247143604425, 0.30015558539171994)
        m2 = MarginalParams(1.0, 2.5525959634177555, -0.9403720494851855)
        target = product_moment(BivariateParams(m1, m2, 435.41552826662354))
        calls = self.count_calls(monkeypatch)
        theta = fit_theta(PairedSample((1.0,), (target,)), m1, m2)[0]
        assert self.newton_ran_the_rule_at_each_iterate(calls), calls
        self.close_to_brentq(
            theta, lambda th: product_moment(BivariateParams(m1, m2, th)) - target,
            0.0, 2.0 * theta)

    @pytest.mark.parametrize("m2", [MarginalParams(1.0, 0.0, -0.9),
                                    MarginalParams(1.0, 8.0, 0.5)])
    def test_root_past_1000(self, m2, monkeypatch):
        # k = log10 theta there.  The product moment nears its limit as theta
        # grows (theta dPM/dtheta is 1e-3 to 5e-2 of PM), so a rounding error
        # of PM moves its root by more than root_tol: like brentq's, the root
        # is one to rounding
        m1 = MarginalParams(1.0, 0.3, 0.4)
        eps = np.finfo(float).eps
        for theta_true in (2000.0, 30000.0):
            target = product_moment(BivariateParams(m1, m2, theta_true))
            calls = self.count_calls(monkeypatch)
            theta = fit_theta(PairedSample((1.0,), (target,)), m1, m2)[0]
            assert self.newton_ran_the_rule_at_each_iterate(calls), calls
            for root in (theta, brentq(
                    lambda th: product_moment(BivariateParams(m1, m2, th)) - target,
                    0.0, 2.0 * theta, xtol=1e-12, maxiter=model.ROOT_MAX_ITER)):
                assert abs(product_moment(BivariateParams(m1, m2, root)) - target) \
                    <= 8.0 * eps * target
            assert math.isclose(theta, theta_true, rel_tol=1e-9)

    def test_fit_mrq(self):
        s = BUILTIN_DATASETS["components"]
        p = fit_mrq(s).params
        target = sample_lcomoments(s).l2_12

        def resid(d):
            trial = MrqParams(p.a1, p.b1, p.a2, p.b2, p.c, d)
            return _mrq_lcov_12(trial, NumericConfig())[0] - target

        # the root lies in (-1, 1), inside (d_min, d_max] = (-2.10, 1.93]
        self.close_to_brentq(p.d, resid, -1.0, 1.0)

    def test_iteration_cap(self, monkeypatch):
        s = BUILTIN_DATASETS["cable"]
        monkeypatch.setattr(model, "ROOT_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="within 3 steps"):
            fit_theta(s, fit_marginal(s.x1), fit_marginal(s.x2))

    @pytest.mark.parametrize("name", ["cable", "components"])
    def test_fit_theta_same_with_the_blend(self, name, monkeypatch):
        s = BUILTIN_DATASETS[name]
        m1, m2 = fit_marginal(s.x1), fit_marginal(s.x2)
        theta = fit_theta(s, m1, m2)[0]
        monkeypatch.setattr(model, "_pick", blend)
        assert fit_theta(s, m1, m2)[0] == theta


def blend(cond, a, b):
    """The 0/1 blend that _pick makes on an array, on any cond."""
    m = np.float64(cond)
    return m * a + (1.0 - m) * b


class TestNewtonBisect:
    """An array solve stops each element at its own first step of at most
    root_tol; h sees the whole batch at every step, a stopped element at
    its last evaluation, and the solve returns before h once all have
    stopped."""

    C = np.linspace(0.5, 7.5, 29)  # x^3 = c on [0, 2]; c = 1 starts on its root

    @staticmethod
    def cube(c, seen=None):
        """h of x^3 = c, recording a copy of each x it sees in `seen`."""
        def h(x):
            if seen is not None:
                seen.append(x.copy())
            return x ** 3 - c, 3.0 * x * x
        return h

    def test_batch_is_each_element_alone(self):
        c, cfg = self.C, NumericConfig()
        x0 = np.full(c.size, 1.0)
        batch = _newton_bisect(self.cube(c), np.zeros(c.size), np.full(c.size, 2.0), x0, cfg)
        for i in range(c.size):
            one = _newton_bisect(self.cube(c[i:i + 1]), np.zeros(1), np.full(1, 2.0),
                                 x0[i:i + 1], cfg)
            assert batch[i].tobytes() == one[0].tobytes(), i
        np.testing.assert_allclose(batch, np.cbrt(c), rtol=1e-15, atol=1e-15)

    def test_h_sees_the_whole_batch_and_stopped_elements_stay_put(self):
        c, cfg = self.C, NumericConfig()
        seen = []
        _newton_bisect(self.cube(c, seen), 0.0, 2.0, np.full(c.size, 1.0), cfg)
        assert all(x.shape == c.shape for x in seen)
        alone = []
        for i in range(c.size):
            path = []
            _newton_bisect(self.cube(c[i:i + 1], path), 0.0, 2.0, np.full(1, 1.0), cfg)
            alone.append(np.concatenate(path))
        # the batch calls h until the slowest element stops, and no more
        assert len(seen) == max(p.size for p in alone) > min(p.size for p in alone)
        for i, path in enumerate(alone):
            # each element's own points, then its last one at every later call
            mine = np.array([x[i] for x in seen])
            expected = np.append(path, np.full(len(seen) - path.size, path[-1]))
            assert mine.tobytes() == expected.tobytes(), i

    def test_empty_batch_returns_at_once(self):
        calls = []

        def h(x):
            calls.append(x.size)
            return x, np.ones_like(x)

        out = _newton_bisect(h, np.zeros(0), np.ones(0), np.zeros(0), NumericConfig())
        assert out.shape == (0,) and calls == []

    def test_iteration_cap_still_raises(self, monkeypatch):
        # the element below moves by bisection only (a negative slope), so
        # it takes 30-odd steps; its neighbour settles at once and stays in the batch
        monkeypatch.setattr(model, "ROOT_MAX_ITER", 3)
        sizes, s = [], np.array([1.0, -1.0])

        def h(x):
            sizes.append(x.size)
            return x - 0.3, s

        with pytest.raises(ConvergenceError, match="within 3 steps"):
            _newton_bisect(h, 0.0, 1.0, np.array([0.3, 0.9]), NumericConfig())
        assert sizes == [2, 2, 2]


class TestPick:
    VALUES = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-300, -3e200, 1.7976931348623157e308]

    def test_scalar_is_the_blend(self):
        for a in self.VALUES:
            for b in self.VALUES:
                for cond in (True, False, np.True_, np.False_):
                    got = _pick(cond, a, b)
                    assert type(got) is np.float64
                    assert got == blend(cond, a, b) == (a if cond else b)
        assert type(_pick(np.float64(1.0) < 2.0, np.float64(3.0), 4.0)) is np.float64

    def test_array_is_where(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2, 3, 50))
        cond = a < b
        np.testing.assert_array_equal(_pick(cond, a, b), np.where(cond, a, b))


def old_line_level(p: MarginalParams, x):
    """F on the line alpha + beta = -2 with expit on both sides and the blend."""
    a, c = p.alpha + 1.0, p.c
    if a > 0.0:
        t = np.log(a * x / c) / a
    else:
        t = x / c if a == 0.0 else np.log1p(a * x / c) / a
    return blend(t < 0.0, expit(t), 1.0 - expit(-t))


@pytest.mark.parametrize("alpha, beta", TestLogLogisticLine.SHAPES)
def test_line_with_one_expit_matches_two(alpha, beta):
    p = MarginalParams(1.3, alpha, beta)
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.normal(0.0, 4.0, 4000), rng.uniform(-36.0, 36.0, 4000)])
    x = big_q1(p, expit(t))
    sup = support(p)
    x = x[(x > sup.lower) & (x < sup.upper)]
    assert x.size > 7000
    np.testing.assert_array_equal(f1(p, x), old_line_level(p, x))
    for v in x[:400]:
        assert f1(p, float(v)) == old_line_level(p, float(v))


# one margin per branch of big_q1 / f1, the arcsine row included, as in
# tests/test_imports.py::test_every_corner_loads_no_heavy_scipy_module; the
# three on the log-logistic line and the t2 row come with their twins off
# them
BRANCH_SHAPES = ((0.0, 0.0), (0.5, -0.3), (-0.4, -1.6), (-1.5, -1.5), (-1.0, -1.0),
                 (0.3, -1.00005), (0.2, -1.0), (0.5, -2.5), (-2.0, 0.5), (-0.5, -0.5))
BRANCH_SHAPES += tuple(off_row(a, b) for a, b in BRANCH_SHAPES if on_row(a, b))


class TestShapeCaches:
    """Gauss rules are built once per shape and kept; a margin binds its plan once."""

    # (n, a, b) in scipy's order, (1-x)^a (1+x)^b on [-1, 1]: the rule is
    # scipy's for u^b (1-u)^a after u = (1+x)/2, its weights times
    # 0.5^(a+b+1).  _gauss_jacobi takes its eigenvalues from numpy's LAPACK
    # and scipy from its own, so the node equality holds for the installed
    # numpy and scipy builds, not by construction; the weights are
    # normalised to B(a+1, b+1) in place of 2^(a+b+1) B(a+1, b+1), so they
    # are held to 2 ulps
    @pytest.mark.parametrize("n, a, b", [
        (16, 0.0, 0.0), (128, 0.0, 0.0), (32, 0.5, -0.3), (16, 0.0, 5.0),
        # exponents below -1/2 that _fixed_rule raises by one
        (16, -0.9 + 1.0, 0.2), (64, 1.0, -1.0 + 2.0 ** -52 + 1.0), (32, -0.75 + 1.0, -0.6 + 1.0)])
    def test_rule_is_scipys_bit_for_bit(self, n, a, b):
        u, w = _gauss_jacobi(n, b, a)
        rx, rw = roots_legendre(n) if a == b == 0.0 else roots_jacobi(n, a, b)
        assert u.tobytes() == (0.5 * (rx + 1.0)).tobytes()
        np.testing.assert_array_max_ulp(w, rw * 0.5 ** (a + b + 1.0), maxulp=2)

    def test_kept_arrays_are_read_only(self):
        x, w = _gauss_jacobi(16, 0.5, 0.5)
        # (-1, -0.5): the left half, next to the pole at alpha + 1 = 0, is the
        # term-by-term series with its table
        series = _shape_plan(-1.0, -0.5)[2].left
        assert type(series) is model._ToHalfSeries
        for arr in (x, w, series.d):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_caches_are_bounded(self):
        assert _gauss_jacobi.cache_info().maxsize is not None

    def test_cold_and_warm_caches_agree_bit_for_bit(self):
        def results():
            # fresh margins, so each builds its plan again
            cable1, cable2, comp1, unif = (dataclasses.replace(m)
                                           for m in (CABLE1, CABLE2, COMP1, UNIF))
            cable = BivariateParams(cable1, cable2, 0.9)
            out = [product_moment(cable), product_moment(BivariateParams(comp1, unif, 2.0)),
                   population_lcomoments(cable), fit_bivariate(BUILTIN_DATASETS["cable"])]
            for shape in BRANCH_SHAPES:
                m = MarginalParams(1.0, *shape)
                out.append(f1(m, big_q1(m, np.array([0.01, 0.5, 0.99]))).tobytes())
                out.append(f1(m, big_q1(m, 0.3)))
            # repr round-trips every float exactly
            return [repr(v) for v in out]

        _gauss_jacobi.cache_clear()
        cold = results()
        hits = _gauss_jacobi.cache_info().hits
        warm = results()
        assert _gauss_jacobi.cache_info().hits > hits
        assert cold == warm

    @pytest.mark.parametrize("shape", BRANCH_SHAPES)
    def test_bound_plan_skips_the_lookup(self, shape, monkeypatch):
        calls = []

        def counted(alpha, beta):
            calls.append((alpha, beta))
            return _shape_plan(alpha, beta)

        monkeypatch.setattr(model, "_shape_plan", counted)
        m = MarginalParams(1.3, *shape)
        u = np.array([0.01, 0.5, 0.99])
        x = big_q1(m, u)
        for _ in range(3):
            f1(m, x), f1(m, float(x[1])), f1_flagged(m, x), f1_flagged(m, float(x[0]))
            big_q1(m, u), big_q1(m, 0.3), support(m)
        assert calls == [shape]

    @pytest.mark.parametrize("shape", [(0.5, -0.3), (-1.5, -1.5), (-1.0, -0.5)])
    def test_bound_plan_is_not_part_of_the_value(self, shape):
        fresh, bound = MarginalParams(1.3, *shape), MarginalParams(1.3, *shape)
        f1(bound, 0.7)
        assert "_plan" in vars(bound) and "_plan" not in vars(fresh)
        assert bound == fresh and hash(bound) == hash(fresh)
        assert repr(bound) == repr(fresh) == (
            f"MarginalParams(c=1.3, alpha={shape[0]}, beta={shape[1]})")
        assert dataclasses.asdict(bound) == dataclasses.asdict(fresh) == dict(
            c=1.3, alpha=shape[0], beta=shape[1])
        moved = dataclasses.replace(bound, c=2.0)
        assert "_plan" not in vars(moved) and support(moved) == support(MarginalParams(2.0, *shape))
        assert pickle.dumps(bound) == pickle.dumps(fresh)
        for m in (fresh, bound):
            back = pickle.loads(pickle.dumps(m))
            assert back == m and "_plan" not in vars(back)
            assert f1(back, 0.7) == f1(bound, 0.7)


def jacobi_exp_integral(a: float, b: float) -> float:
    """int_0^1 u^a (1-u)^b exp(u) du in closed form, by mpmath:
    B(a+1, b+1) 1F1(a+1; a+b+2; 1)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return float(mpmath.beta(a + 1, b + 1) * mpmath.hyp1f1(a + 1, a + b + 2, 1))


def reachable_rules(seed: int, count: int):
    """Seeded (n, a, b) for u^a (1-u)^b of the kinds _fixed_rule and _u2_rule
    build: lifted exponents in [-1/2, 6], the inner rule's (k-1, 0) for k up
    to 1000, a u1 = s^k exponent up to 300, and a + b next to the cap of
    1000; then count/4 u1 exponents from 1000 to 16000 (alpha1 up to about
    5000) at n <= 256."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.choice([16, 32, 64, 128, 256, 512]))
        b = 0.0 if i % 4 == 1 else float(rng.uniform(-0.5, 6.0))
        a = float([rng.uniform(-0.5, 6.0), rng.uniform(0.0, 999.0),
                   rng.uniform(6.0, 300.0), rng.uniform(990.0, 1000.0) - b][i % 4])
        yield n, a, b
    for _ in range(count // 4):
        n = int(rng.choice([16, 32, 64, 128, 256]))
        yield n, float(rng.uniform(1000.0, 16000.0)), float(rng.uniform(-0.5, 6.0))


class TestGaussJacobi:
    """The Golub-Welsch builder against scipy's rules, kept as oracles, and mpmath."""

    EPS = np.finfo(float).eps

    def agrees(self, n, a, b, rx, rw):
        """The rule for u^a (1-u)^b against scipy's (rx, rw) on [-1, 1]:
        finite, its nodes to 4 eps of scipy's mapped by u = (1+x)/2, and the
        sum of exp(u) as close to mpmath as scipy's weights times
        0.5^(a+b+1) get.  Where that scipy sum is not finite (its weights
        overflow, or a NaN node at n = 512 once a + b passes about 984) the
        error of scipy's B(a+1, b+1), to which the weights are scaled,
        stands in for it."""
        u, w = _gauss_jacobi(n, a, b)
        assert np.isfinite(u).all() and np.isfinite(w).all(), (n, a, b)
        ru = 0.5 * (rx + 1.0)
        kept = np.isfinite(ru)
        np.testing.assert_allclose(u[kept], ru[kept], rtol=0.0, atol=4 * self.EPS,
                                   err_msg=str((n, a, b)))
        ref = jacobi_exp_integral(a, b)
        scipy_err = abs(rw * 0.5 ** (a + b + 1.0) @ np.exp(ru) - ref)
        if not math.isfinite(scipy_err):
            with mpmath.workdps(40):
                beta_ref = mpmath.beta(mpmath.mpf(a) + 1, mpmath.mpf(b) + 1)
                scipy_err = abs(float(beta_fn(a + 1.0, b + 1.0) / beta_ref - 1)) * abs(ref)
        err = abs(w @ np.exp(u) - ref)
        assert err <= 2 * scipy_err + 4 * self.EPS * abs(ref), (n, a, b)

    def test_reachable_rules_agree_with_scipy_and_mpmath(self):
        for n, a, b in reachable_rules(20, 60):
            # scipy's weights overflow past an exponent of about 1000
            with np.errstate(over="ignore", invalid="ignore"):
                self.agrees(n, a, b, *roots_jacobi(n, b, a))

    @pytest.mark.parametrize("n", [32, 64, 256, 512])
    def test_legendre_route_agrees_with_scipy_and_mpmath(self, n):
        self.agrees(n, 0.0, 0.0, *roots_legendre(n))

    @pytest.mark.parametrize("a", [-0.5, -0.25, 0.5, 2.5])
    @pytest.mark.parametrize("n", [16, 512])
    def test_equal_exponents_against_mpmath(self, n, a):
        # scipy takes a == b != 0 through Gegenbauer (Chebyshev at -1/2); the
        # Jacobi route's end weights are off by up to 1e-8 relative at n = 512,
        # and the sum by 1e-11 at a = -1/2
        u, w = _gauss_jacobi(n, a, a)
        assert np.max(np.abs(u - 0.5 * (roots_jacobi(n, a, a)[0] + 1.0))) <= 4 * self.EPS
        assert math.isclose(w @ np.exp(u), jacobi_exp_integral(a, a), rel_tol=2e-11)

    def test_large_u_exponents_have_no_limit(self):
        # E(X1 X2) runs on the weight u^(3(alpha1+1)-1) (1-u)^1 after u1 = s^3,
        # whose sum would overflow from alpha1 = 345.8 on if the weights were
        # scaled by 2^(a+b+1).  With X2 uniform, u21 = u2/(1 + theta u1)
        tol = NumericConfig().quad_rel_tol
        with mpmath.workdps(20):
            for alpha1 in (345.8, 400.0, 1000.0, 5000.0):
                a = mpmath.mpf(alpha1)
                ref = mpmath.quad(lambda u1, u2: (1 - u1) * u1 ** a * (1 - u2 / (1 + u1)),
                                  [0, 1 - 20 / a, 1], [0, 1])
                got = product_moment(BivariateParams(MarginalParams(1.0, alpha1, 0.0), UNIF, 1.0))
                assert math.isclose(got, ref, rel_tol=tol), alpha1
            for alpha1 in (346.0, 400.0):
                a = mpmath.mpf(alpha1)
                # L2(1,2) = 2 int int u1^alpha1 (1-u1) (u2 - u21) du1 du2
                ref = mpmath.quad(lambda u1, u2: 2 * u1 ** a * (1 - u1) * u2 * u1 / (1 + u1),
                                  [0, 1 - 20 / a, 1], [0, 1])
                got = population_lcomoments(
                    BivariateParams(MarginalParams(1.0, alpha1, 0.0), UNIF, 1.0))
                assert all(math.isfinite(v) for v in dataclasses.astuple(got)), alpha1
                assert math.isclose(got.l2_12, ref, rel_tol=tol), alpha1

    def test_rule_past_an_overflowing_p_n_is_finite(self):
        # eval_jacobi(512, ...) overflows at the first eigenvalue; the node
        # keeps its eigenvalue and any weight without finite P_(n-1), P_n' is 0
        u, w = _gauss_jacobi(512, 993.2, -0.323)
        assert np.isfinite(u).all() and np.isfinite(w).all()


# each exact row, its row, and the rows its neighbours an ulp or two away take
TINY = 5e-324
ROW_NEIGHBOURS = [
    ((1.0, -3.0), "_LineRow", [(off_row(1.0, -3.0), "_CornerRow")]),
    ((-2.0, 0.0), "_LineRow", [(off_row(-2.0, 0.0), "_CornerRow")]),
    # at (0, -2) the sum moves with alpha from 2^-52 on
    ((0.0, -2.0), "_LineRow", [(off_row(0.0, -2.0), "_AlphaZeroRow"),
                               ((2.0 ** -52, -2.0), "_CornerRow")]),
    ((-1.5, -1.5), "_T2Row", [(off_row(-1.5, -1.5), "_CornerRow"),
                              ((float(np.nextafter(-1.5, 0.0)), -1.5), "_CornerRow")]),
    ((-0.5, -0.5), "_ArcsineRow", [((-0.5, float(np.nextafter(-0.5, -1.0))), "_BetaRow"),
                                   ((float(np.nextafter(-0.5, 0.0)), -0.5), "_BetaRow")]),
    ((0.5, 0.0), "_PowerRow", [((0.5, -TINY), "_BetaRow"), ((0.5, TINY), "_BetaRow")]),
    ((0.0, -0.3), "_AlphaZeroRow", [((-TINY, -0.3), "_BetaRow"), ((TINY, -0.3), "_BetaRow")]),
    ((0.0, -1.0), "_AlphaZeroRow", [((0.0, float(np.nextafter(-1.0, 0.0))), "_AlphaZeroRow"),
                                    ((0.0, float(np.nextafter(-1.0, -2.0))), "_AlphaZeroRow"),
                                    ((TINY, -1.0), "_CornerRow"),
                                    ((-TINY, -1.0), "_CornerRow")]),
    ((0.0, -2.5), "_AlphaZeroRow", [((TINY, -2.5), "_CornerRow")]),
]


@pytest.mark.parametrize("shape, row, neighbours", ROW_NEIGHBOURS,
                         ids=[str(s) for s, _, _ in ROW_NEIGHBOURS])
def test_ulp_neighbours_take_the_neighbouring_row(shape, row, neighbours):
    """Only exact shapes take a closed row; the shapes next to them take the
    row around it and agree with it to rounding."""
    levels = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    p = MarginalParams(1.3, *shape)
    assert type(_shape_plan(*shape)[2]) is getattr(model, row)
    x = big_q1(p, levels)
    for twin_shape, twin_row in neighbours:
        assert twin_shape != shape
        assert type(_shape_plan(*twin_shape)[2]) is getattr(model, twin_row), twin_shape
        t = MarginalParams(1.3, *twin_shape)
        np.testing.assert_allclose(big_q1(t, levels), x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(f1(t, x), levels, rtol=1e-12)
