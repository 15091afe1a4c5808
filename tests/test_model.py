import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq
from scipy.special import betainc, betaincinv

from bivqf.comoment import sample_lcomoments
from bivqf.data import BUILTIN_DATASETS
from bivqf.errors import ConvergenceError, DivergentMomentError, DomainError
from bivqf.fit import MrqParams, _mrq_lcov_12, fit_marginal, fit_mrq, fit_theta
from bivqf.model import (
    BivariateParams,
    MarginalParams,
    NumericConfig,
    _newton_bisect,
    _secant,
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
                 MarginalParams(1.0, 0.3, -1.7), MarginalParams(2.0, 1.0, -3.0)]
        for p in cases:
            for u in (0.1, 0.35, 0.5, 0.8, 0.97):
                ref = oracle_quantile(p, u)
                assert math.isclose(big_q1(p, u), ref, rel_tol=1e-9,
                                    abs_tol=1e-11), (p, u)

    def test_median_anchored_heavy_tail(self):
        assert big_q1(T2, 0.5) == 0.0
        assert big_q1(T2, 0.0) == -math.inf
        assert big_q1(T2, 1.0) == math.inf
        # scaled-t closed form: Q(u) = 2c(2u-1)/sqrt(u(1-u))
        for u in (0.12, 0.3, 0.5, 0.77, 0.93):
            ref = 2.0 * (2.0 * u - 1.0) / math.sqrt(u * (1.0 - u))
            assert math.isclose(big_q1(T2, u), ref, rel_tol=1e-9, abs_tol=1e-9)

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
                                   MarginalParams(1.0, 0.3, -1.00005)])
    def test_f1_fallback(self, m):
        for u in (1e-8, 0.05, 0.5, 0.95, 1.0 - 1e-8):
            back = f1(m, mpmath_corner_quantile(m, u))
            assert abs(back - u) <= 1e-12 * min(u, 1.0 - u), (u, back)


class TestHeavyRightTail:
    """alpha > -1, -2 < beta < -1: Q diverges at 1 and has a closed form."""

    U_TOP = 1.0 - 1e-9

    @pytest.mark.parametrize("c, alpha, beta, true", [
        (0.8, -0.6, -1.4, 7962.14),
        (9.08, -0.48, -1.05, 342.248),
        (9.08, -0.48, -1.001, 201.857),
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

    @pytest.mark.parametrize("p", [MarginalParams(0.8, -0.6, -1.4),
                                   MarginalParams(9.08, -0.48, -1.05),
                                   MarginalParams(1.0, 0.7, -1.3),
                                   MarginalParams(2.0, 2.5, -1.9)])
    def test_round_trip_down_to_small_u(self, p):
        us = np.array([1e-10, 1e-7, 1e-3, 0.2, 0.5, 0.8, 0.999, 1.0 - 1e-9])
        back = f1(p, big_q1(p, us))
        # relative in u below 1/2 and in 1-u above
        scale = np.minimum(us, 1.0 - us)
        np.testing.assert_array_less(np.abs(back - us) / scale, 1e-10)
        for u, b in zip(us, back):
            assert math.isclose(f1(p, big_q1(p, float(u))), b, rel_tol=1e-13)


# one marginal per branch of big_q1 / f1_flagged
BRANCHES = {
    "power": MarginalParams(1.5, -0.5, 0.0),
    "exponential": EXP1,
    "alpha0-bounded": MarginalParams(2.0, 0.0, 0.5),
    "alpha0-pareto": MarginalParams(1.0, 0.0, -1.5),
    "incomplete-beta": CABLE2,
    "heavy-right": MarginalParams(0.8, -0.6, -1.4),
    "fallback-log-tail": MarginalParams(1.0, 0.3, -1.0),
    "fallback-loglogistic": LOGLOG,
    "fallback-median-anchored": T2,
}


class TestArrayMatchesScalar:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_big_q1(self, branch):
        p = BRANCHES[branch]
        u = np.array([0.0, 1e-9, 0.05, 0.3, 0.5, 0.77, 0.99, 1.0])
        arr = big_q1(p, u)
        assert arr.shape == u.shape
        scalar = [big_q1(p, float(v)) for v in u]
        assert all(type(v) is float for v in scalar)
        # the same formula; vector and scalar pow may differ by an ulp
        np.testing.assert_allclose(arr, scalar, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(big_q1(p, u.reshape(2, 4)), arr.reshape(2, 4),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_f1_flagged(self, branch):
        p = BRANCHES[branch]
        sup = support(p)
        inside = big_q1(p, np.array([1e-9, 0.05, 0.3, 0.5, 0.77, 0.99]))
        x = np.concatenate([inside, [sup.lower, sup.upper]])
        if p.alpha > -1.0:
            x = np.append(x, -1.0)  # below the support
        if math.isfinite(sup.upper):
            x = np.append(x, 2.0 * sup.upper)  # above it
        u, flags = f1_flagged(p, x)
        assert u.shape == flags.shape == x.shape
        for xv, uv, fv in zip(x, u, flags):
            su, sf = f1_flagged(p, float(xv))
            assert type(su) is float and type(sf) is bool
            assert math.isclose(uv, su, rel_tol=1e-13, abs_tol=1e-300), xv
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
        for p in (EXP1, UNIF, CABLE1, CABLE2, COMP1, LOGLOG, SINE, T2):
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
        "heavy-right-tail-loglogistic": (MarginalParams(0.8, -0.6, -1.4), 2.0),
        "inversion-median-anchored": (T2, 1.0),
        "inversion-right-tail": (LOGLOG, 0.8),
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

        tight = NumericConfig(quad_abs_tol=1e-13, quad_rel_tol=1e-12)
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

    def test_config_validation(self):
        with pytest.raises(DomainError):
            NumericConfig(quad_abs_tol=0.0)
        with pytest.raises(DomainError):
            NumericConfig(root_max_iter=0)


class TestRootSearch:
    """fit_theta and fit_mrq solve by _newton_bisect on secant slopes; their
    roots agree with scipy's brentq on the same residual."""

    @staticmethod
    def close_to_brentq(x, f, lo, hi, cfg=NumericConfig()):
        ref = brentq(f, lo, hi, xtol=cfg.root_tol, maxiter=cfg.root_max_iter)
        assert abs(x - ref) <= 2.0 * (cfg.root_tol + 4.0 * np.finfo(float).eps * abs(ref)), \
            (x, ref)

    def test_fit_theta(self):
        s = BUILTIN_DATASETS["cable"]
        m1, m2 = fit_marginal(s.x1), fit_marginal(s.x2)
        theta, (lo, hi), _ = fit_theta(s, m1, m2)
        assert theta > 0.0 and lo == 0.0
        target = float(np.mean(np.asarray(s.x1) * np.asarray(s.x2)))
        self.close_to_brentq(
            theta, lambda th: product_moment(BivariateParams(m1, m2, th)) - target, lo, hi)

    def test_fit_mrq(self):
        s = BUILTIN_DATASETS["components"]
        p = fit_mrq(s).params
        target = sample_lcomoments(s).l2_12

        def resid(d):
            trial = MrqParams(p.a1, p.b1, p.a2, p.b2, p.c, d)
            return _mrq_lcov_12(trial, NumericConfig()) - target

        # (-1, 1) is the bracket fit_mrq's expansion stops at on this sample
        self.close_to_brentq(p.d, resid, -1.0, 1.0)

    def test_iteration_cap(self):
        s = BUILTIN_DATASETS["cable"]
        with pytest.raises(ConvergenceError):
            fit_theta(s, fit_marginal(s.x1), fit_marginal(s.x2), NumericConfig(root_max_iter=3))

    def test_nan_value(self):
        h = _secant(lambda x: math.nan if x > 0.5 else -1.0, 0.0, -1.0)
        with pytest.raises(ConvergenceError):
            _newton_bisect(h, 0.0, 1.0, 0.75, NumericConfig())
