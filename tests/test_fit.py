import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bivqf.data import BUILTIN_DATASETS, PairedSample
from bivqf.errors import BracketError, DomainError, InfeasibleRegionError, QuadratureError
from bivqf.fit import (
    MrqParams,
    _mrq_lcov_12,
    fit_bivariate,
    fit_marginal,
    fit_mrq,
    fit_theta,
    mrq_quantile,
)
from bivqf.lmom import population_lmoments, sample_lmoments
from bivqf.model import (
    BivariateParams,
    MarginalParams,
    NumericConfig,
    big_q1,
    product_moment,
)
from bivqf.sampling import SamplerSpec, draw

CABLE = BUILTIN_DATASETS["cable"]
COMP = BUILTIN_DATASETS["components"]


def sample_with_product_mean(value):
    return PairedSample(((1.0, value),))


class TestMarginalFit:
    def test_exact_round_trip(self):
        # feed data whose sample L-moments equal the population ones by
        # construction: three points solving the estimator equations is
        # fragile, so invert through the ratio system directly
        target = MarginalParams(3.0, 0.5, 1.0)
        lm = population_lmoments(target)
        # synthetic sample matching (l1, t2, t3) via a fitted surrogate:
        # use the model quantile values at many plotting positions
        n = 2000
        data = [big_q1(target, (i + 0.5) / n) for i in range(n)]
        m = fit_marginal(data)
        assert math.isclose(m.c, 3.0, rel_tol=0.02)
        assert math.isclose(m.alpha, 0.5, abs_tol=0.03)
        assert math.isclose(m.beta, 1.0, abs_tol=0.05)
        # and the fitted model reproduces the sample L-moments exactly
        lm_s = sample_lmoments(data, r_max=3)
        lm_f = population_lmoments(m)
        assert math.isclose(lm_f.l1, lm_s.l1, rel_tol=1e-12)
        assert math.isclose(lm_f.tau2, lm_s.tau2, rel_tol=1e-10)
        assert math.isclose(lm_f.tau3, lm_s.tau3, rel_tol=1e-10)

    def test_population_ratio_inversion_grid(self):
        # the ratio system is linear; solving it from population ratios
        # must return the generating shapes to near machine precision
        rng = np.random.default_rng(2)
        for _ in range(60):
            alpha = float(rng.uniform(-0.9, 3.0))
            beta = float(rng.uniform(-1.9, 3.0))
            c = float(rng.uniform(0.2, 8.0))
            lm = population_lmoments(MarginalParams(c, alpha, beta))
            t2, t3 = lm.tau2, lm.tau3
            a_mat = np.array([[1 - t2, -t2], [1 - t3, -(1 + t3)]])
            rhs = np.array([3 * t2 - 1, 4 * t3])
            ahat, bhat = np.linalg.solve(a_mat, rhs)
            assert abs(ahat - alpha) <= 1e-8 * max(1.0, abs(alpha))
            assert abs(bhat - beta) <= 1e-8 * max(1.0, abs(beta))

    def test_cable_values(self):
        m1 = fit_marginal(CABLE.x1)
        assert math.isclose(m1.c, 9.081866580539414, rel_tol=1e-9)
        assert math.isclose(m1.alpha, -0.4863839240497745, rel_tol=1e-9)
        assert math.isclose(m1.beta, -0.9945576210186499, rel_tol=1e-9)
        m2 = fit_marginal(CABLE.x2)
        assert math.isclose(m2.c, 29.22948933224357, rel_tol=1e-9)
        assert math.isclose(m2.alpha, -0.34059069277590753, rel_tol=1e-9)
        assert math.isclose(m2.beta, -0.35314612259096934, rel_tol=1e-9)

    def test_components_values(self):
        m1 = fit_marginal(COMP.x1)
        assert math.isclose(m1.c, 13.049966425805703, rel_tol=1e-9)
        assert math.isclose(m1.alpha, 0.8856418949492388, rel_tol=1e-9)
        assert math.isclose(m1.beta, -0.18444427973147617, rel_tol=1e-9)
        m2 = fit_marginal(COMP.x2)
        assert math.isclose(m2.c, 5.92572671615502, rel_tol=1e-9)
        assert math.isclose(m2.alpha, 0.3555358208519454, rel_tol=1e-9)
        assert math.isclose(m2.beta, -0.6694767698268358, rel_tol=1e-9)

    def test_infeasible_region(self):
        # strongly left-skewed data pushes the solution out of the
        # existence region
        data = [0.01, 8.0, 9.0, 9.4, 9.7, 9.9, 9.95, 9.99]
        with pytest.raises(InfeasibleRegionError):
            fit_marginal(data)


class TestThetaFit:
    M1 = MarginalParams(1.0, 0.3, 0.4)
    M2 = MarginalParams(1.5, -0.2, 0.6)

    def test_recovers_known_theta(self):
        for theta_true in (0.3, 1.5):
            target = product_moment(BivariateParams(self.M1, self.M2, theta_true))
            s = sample_with_product_mean(target)
            theta, bracket, warnings = fit_theta(s, self.M1, self.M2)
            assert abs(theta - theta_true) <= 1e-8
            assert not warnings
            assert bracket[1] >= theta_true

    def test_independence_returns_zero(self):
        e0 = product_moment(BivariateParams(self.M1, self.M2, 0.0))
        s = sample_with_product_mean(e0 * 0.9)
        theta, _, warnings = fit_theta(s, self.M1, self.M2)
        assert theta == 0.0
        assert warnings and "independence" in warnings[0]

    def test_unreachable_target(self):
        # bounded conditional support caps the product moment
        with pytest.raises(BracketError):
            fit_theta(sample_with_product_mean(1e9), self.M1, self.M2)

    def test_cable(self):
        res = fit_bivariate(CABLE)
        assert math.isclose(res.params.theta, 0.8919578247468086, rel_tol=1e-6)
        assert abs(res.residuals["product_moment"]) <= 1e-6

    def test_extreme_tail_bootstrap_replicate(self):
        # a replicate of the published components fit (n = 20, exact
        # sampler) whose fitted second margin has beta near -1: the
        # product moment inverts the incomplete beta within 1e-316 of 1
        bp = BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                             MarginalParams(5.9257, 0.3555, -0.6695), 0.5492)
        s = draw(bp, SamplerSpec(297036, 20, "exact"))
        res = fit_bivariate(s)
        assert res.params.m2.beta < -0.98
        assert res.params.theta > 0.0
        target = float(np.mean(np.asarray(s.x1) * np.asarray(s.x2)))
        assert abs(res.residuals["product_moment"]) <= 1e-9 * target

    def test_components_theta_zero(self):
        res = fit_bivariate(COMP)
        assert res.params.theta == 0.0
        assert res.warnings


def mrq_lcov_nested_oracle(p):
    """L2(1,2) of the competitor by nested adaptive quadrature and Brent."""
    a_marg = p.a2 + p.c

    def inner(u1v):
        aa = a_marg + (p.b2 + p.d) * u1v
        cc = p.c + p.d * u1v

        def gap(u2v):
            x2 = -a_marg * math.log1p(-u2v) - 2.0 * p.c * u2v
            hi, step = 0.75, 0.25
            while -aa * math.log1p(-hi) - 2.0 * cc * hi < x2:
                step *= 0.5
                hi = 1.0 - step
            v = brentq(lambda w: -aa * math.log1p(-w) - 2.0 * cc * w - x2, 0.0, hi,
                       xtol=1e-14)
            return u2v - v

        return quad(gap, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    return 2.0 * quad(lambda u: ((p.a1 + p.b1) - 2.0 * p.b1 * (1.0 - u)) * inner(u),
                      0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


class TestMrq:
    @pytest.mark.parametrize("d", [-7.16, -3.0, 0.0, 2.0])
    def test_lcov_fixed_rule_matches_nested_oracle(self, d):
        p = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=d)
        ref = mrq_lcov_nested_oracle(p)
        assert math.isclose(_mrq_lcov_12(p, NumericConfig()), ref, rel_tol=1e-9)

    def test_lcov_unreachable_tolerance_raises(self):
        p = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=-7.16)
        cfg = NumericConfig(quad_abs_tol=1e-300, quad_rel_tol=1e-300)
        with pytest.raises(QuadratureError):
            _mrq_lcov_12(p, cfg)

    def test_quantile_exponential_case(self):
        p = MrqParams(a1=1.0, b1=0.0, a2=1.0, b2=0.0, c=0.0, d=0.0)
        q1v, q21v = mrq_quantile(p, 0.5, 0.5)
        assert math.isclose(q1v, math.log(2.0), rel_tol=1e-14)
        assert math.isclose(q21v, math.log(2.0), rel_tol=1e-14)

    def test_published_coefficient_arithmetic(self):
        p = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=-7.16)
        q1v, _ = mrq_quantile(p, 0.5, 0.1)
        assert math.isclose(q1v, 2.957 * math.log(2.0) - 0.159, rel_tol=1e-12)
        assert abs(q1v - 1.8906) <= 5e-4
        _, q21v = mrq_quantile(p, 0.0, 0.5)
        assert math.isclose(q21v, 3.172 * math.log(2.0) - 0.086, rel_tol=1e-12)
        assert abs(q21v - 2.1126) <= 5e-4

    def test_constraint_violation_raises(self):
        bad = MrqParams(a1=-1.0, b1=0.0, a2=1.0, b2=0.0, c=0.0, d=0.0)
        with pytest.raises(DomainError):
            mrq_quantile(bad, 0.5, 0.5)

    def test_fit_components(self):
        res = fit_mrq(COMP)
        p = res.params
        assert math.isclose(p.a1, 2.7975, rel_tol=1e-12)
        assert math.isclose(p.b1, 0.15892105263157852, rel_tol=1e-9)
        assert math.isclose(p.a2, 3.086, rel_tol=1e-12)
        assert math.isclose(p.c, 0.08621052631578885, rel_tol=1e-6)
        # close to the published first-margin coefficients
        assert abs(p.b1 - 0.159) <= 2e-3
        assert abs(p.c - 0.086) <= 2e-3
        assert math.isclose(p.b2, -1.0731584821998444, rel_tol=1e-6)
        assert abs(res.residuals["product_moment"]) <= 1e-9
        assert abs(res.residuals["lcov_12"]) <= 1e-7

    def test_fit_recovers_independent_exponentials(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        n = 10_000
        x1 = rng.exponential(2.0, size=n)
        x2 = rng.exponential(3.0, size=n)
        res = fit_mrq(PairedSample(tuple(zip(x1, x2))))
        p = res.params
        # truth: a1 = 2, b1 = 0, a2 = 3, c = 0, b2 = 0, d = 0; allow
        # roughly three standard errors of the n = 1e4 estimators
        assert abs(p.a1 - 2.0) <= 0.08
        assert abs(p.b1) <= 0.15
        assert abs(p.a2 - 3.0) <= 0.12
        assert abs(p.c) <= 0.22
        assert abs(p.b2) <= 0.25
        assert abs(p.d) <= 0.6

    def test_mean_identity(self):
        res = fit_mrq(COMP)
        assert res.params.a1 == sample_lmoments(COMP.x1).l1
