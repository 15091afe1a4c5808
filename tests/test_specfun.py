"""Accuracy of the special functions behind the model.

`complete_beta` comes from bivqf.specfun.  The incomplete beta
function, its inverse and 2F1 are scipy.special's betainc,
betaincinv and hyp2f1, which model, catalog and comoment call directly;
their tests pin the accuracy the package relies on, at the shapes it uses.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, betaincinv, hyp2f1

from bivqf.errors import DomainError
from bivqf.specfun import complete_beta

mpmath.mp.dps = 40


class TestCompleteBeta:
    def test_trivial_values(self):
        assert complete_beta(1.0, 1.0) == 1.0
        assert math.isclose(complete_beta(0.5, 0.5), math.pi, rel_tol=1e-15)

    def test_against_high_precision(self):
        for x in (0.1, 0.37, 0.9946, 1.5, 4.481, 11.7, 143.0):
            ref = float(mpmath.beta(x, 1.5))
            assert math.isclose(complete_beta(x, 1.5), ref, rel_tol=1e-13), x

    def test_domain(self):
        for x in (0.0, -1.0, -0.5):
            for args in ((x, 1.5), (1.5, x)):
                with pytest.raises(DomainError):
                    complete_beta(*args)


def inc_beta(x, a, b):
    """B_x(a, b) as the model forms it, complete_beta times betainc."""
    return complete_beta(a, b) * betainc(a, b, x)


class TestIncBeta:
    def test_complete_integral(self):
        for a, b in ((1.0, 1.0), (0.4, 2.2), (3.0, 0.7)):
            assert math.isclose(inc_beta(1.0, a, b), complete_beta(a, b),
                                rel_tol=1e-14)

    def test_uniform_case(self):
        assert math.isclose(inc_beta(0.5, 1.0, 1.0), 0.5, rel_tol=1e-14)

    def test_quadrature_oracle(self):
        # independent evaluation of the defining integral
        x, a, b = 0.3, 1.4864, 1.9946
        ref, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x,
                      epsabs=1e-14, epsrel=1e-14)
        assert math.isclose(inc_beta(x, a, b), ref, rel_tol=1e-12)

    def test_grid_against_mpmath(self):
        for a in (0.2, 0.5136, 1.3406, 2.0, 5.0):
            for b in (0.3, 1.0, 1.9946, 4.0):
                for x in (0.01, 0.2, 0.5, 0.77, 0.99):
                    ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
                    assert math.isclose(betainc(a, b, x), ref,
                                        rel_tol=1e-12, abs_tol=1e-14)


class TestRegIncBeta:
    def test_identity_for_uniform(self):
        for x in np.linspace(0.0, 1.0, 21):
            assert math.isclose(betainc(1.0, 1.0, float(x)), float(x),
                                abs_tol=1e-14)

    def test_symmetry(self):
        for a in (0.3, 0.9, 1.6, 4.2):
            for b in (0.25, 1.0, 2.8):
                for x in (0.1, 0.35, 0.5, 0.9):
                    lhs = betainc(a, b, x)
                    rhs = 1.0 - betainc(b, a, 1.0 - x)
                    assert math.isclose(lhs, rhs, abs_tol=1e-12)

    def test_strictly_increasing(self):
        for a, b in ((0.4, 0.4), (2.0, 0.7), (1.3406, 1.3531)):
            xs = np.linspace(0.001, 0.999, 60)
            vals = [betainc(a, b, float(x)) for x in xs]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


class TestInverse:
    def test_symmetric_midpoint(self):
        assert math.isclose(betaincinv(2.0, 2.0, 0.5), 0.5, abs_tol=1e-12)

    def test_endpoints(self):
        assert betaincinv(1.5, 2.5, 0.0) == 0.0
        assert betaincinv(1.5, 2.5, 1.0) == 1.0

    def test_round_trip(self):
        # tolerance widens only where the double-precision representation
        # of p cannot pin x any tighter (flat tails: |dx| ~ ulp / pdf)
        for a in (0.2, 0.7, 1.0, 2.3, 5.0):
            for b in (0.2, 0.9, 1.7, 5.0):
                lnb = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
                for x in np.linspace(0.02, 0.98, 17):
                    x = float(x)
                    p = betainc(a, b, x)
                    back = betaincinv(a, b, p)
                    pdf = math.exp((a - 1) * math.log(x)
                                   + (b - 1) * math.log1p(-x) - lnb)
                    cond = 4.0 * max(p, 1.0 - p) * 2.3e-16 / pdf
                    assert abs(back - x) <= max(1e-10, cond), (a, b, x)

    def test_round_trip_well_conditioned_region(self):
        for a in (0.2, 0.7, 1.0, 2.3, 5.0):
            for b in (0.2, 0.9, 1.7, 5.0):
                for x in np.linspace(0.05, 0.95, 13):
                    p = betainc(a, b, float(x))
                    if min(p, 1.0 - p) < 1e-7:
                        continue
                    back = betaincinv(a, b, p)
                    assert abs(back - x) <= 1e-10

    def test_bisection_quadrature_oracle(self):
        # bracket the defining integral with an independent quadrature
        p, a, b = 0.25, 1.3406, 1.3531
        total, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0, 1,
                        epsabs=1e-14)

        def reg(x):
            val, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0, x,
                          epsabs=1e-14)
            return val / total

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if reg(mid) < p:
                lo = mid
            else:
                hi = mid
        assert abs(betaincinv(a, b, p) - 0.5 * (lo + hi)) <= 1e-9

    def test_round_trip_against_mpmath(self):
        # x -> p by high-precision I_x, then back through the inverse; the
        # grid includes a, b < 1, where the density is singular at an end
        for a in (0.05, 0.3, 0.9912309793891165, 2.5):
            for b in (0.012579709518141136, 0.2, 0.8, 3.0):
                for x in (1e-6, 0.03, 0.4, 0.81, 0.999):
                    p = float(mpmath.betainc(a, b, 0, x, regularized=True))
                    back = betaincinv(a, b, p)
                    # forward-map the result: I_back(a, b) must give back p
                    # to the precision p carries (absolute 1e-14)
                    p_back = float(mpmath.betainc(a, b, 0, back, regularized=True))
                    assert math.isclose(p_back, p, rel_tol=1e-12,
                                        abs_tol=1e-14), (a, b, x)

    def test_extreme_tail_rounds_to_one(self):
        # the root of this upper-tail case lies within 1e-316 of 1, so the
        # correctly rounded double is 1.0 (a bootstrap replicate of the
        # components fit used to overflow here)
        p, a, b = 0.9999037544941405, 0.9912309793891165, 0.012579709518141136
        assert betaincinv(a, b, p) == 1.0


class TestGauss2F1:
    def test_empty_series(self):
        assert hyp2f1(0.7, 1.9, 2.4, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        assert math.isclose(hyp2f1(1.0, 1.0, 2.0, -1.0), math.log(2.0),
                            rel_tol=1e-12)
        assert math.isclose(hyp2f1(1.0, 1.0, 2.0, -0.37),
                            -math.log1p(0.37) / -0.37, rel_tol=1e-12)

    def test_series_oracle(self):
        val = hyp2f1(1.0, 0.5, 2.0, -0.6821)
        ref = float(mpmath.hyp2f1(1.0, 0.5, 2.0, -0.6821))
        assert math.isclose(val, ref, rel_tol=1e-13)

    def test_against_high_precision_grid(self):
        for a, b, c in ((0.5, 1.3, 2.1), (2.0, 0.25, 0.8), (1.4864, 0.7, 2.4864)):
            for z in (-0.05, -0.5, -0.99, -1.0, -2.5, -7.0):
                val = hyp2f1(a, b, c, z)
                ref = float(mpmath.hyp2f1(a, b, c, z))
                assert math.isclose(val, ref, rel_tol=1e-11), (a, b, c, z)

    def test_pfaff_consistency_inside_disc(self):
        # 2F1(a,b;c;z) = (1-z)^-a 2F1(a, c-b; c; z/(z-1)), the right side by mpmath
        for a, b, c in ((0.5, 1.3, 2.1), (1.0, 0.5, 2.0)):
            for z in (-0.1, -0.45, -0.8, -0.95):
                pfaff = (1 - z) ** -a * mpmath.hyp2f1(a, c - b, c, z / (z - 1))
                assert math.isclose(hyp2f1(a, b, c, z), float(pfaff), rel_tol=1e-13)

    def test_iteration_cap(self):
        # where |z| or the Pfaff argument z/(z-1) nears 1, a hand-written
        # power series once hit its 10000-term cap; hyp2f1 has none
        for a, b, c, z in ((1.0, 1.0, 2.0, -0.9999), (1.0, 2.0, 2.0, -1.0001),
                           (2.0, 1.0, 1.5, -500.0), (1.0, 3.0, 4.0, -800.0)):
            ref = float(mpmath.hyp2f1(a, b, c, z))
            assert math.isclose(hyp2f1(a, b, c, z), ref, rel_tol=1e-13), (a, b, c, z)
