import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bivqf.comoment import sample_lcomoments
from bivqf.data import BUILTIN_DATASETS, PairedSample
from bivqf.errors import (BracketError, ConvergenceError, DomainError, InfeasibleRegionError,
                          InsufficientDataError, QuadratureError, SingularSystemError)
from bivqf.fit import (
    MrqParams,
    _fit_lmoments,
    _mrq_lcov_12,
    fit_bivariate,
    fit_marginal,
    fit_mrq,
    fit_theta,
    mrq_conditional_cdf,
    mrq_marginal1_cdf,
    mrq_quantile,
)
from bivqf.lmom import LMomentVector, population_lmoments, sample_lmoments
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
MRQ_PUB = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=-7.16)


def sample_with_product_mean(value):
    return PairedSample((1.0,), (value,))


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

    def test_three_point_margin(self):
        m = fit_marginal([1.0, 2.0, 4.0])
        assert m.c > 0.0

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
            # each Newton iterate is a lower bound on the root
            assert bracket[0] <= theta_true

    @pytest.mark.parametrize("s", [CABLE, COMP])
    def test_product_mean_is_kept_and_feeds_the_residual(self, s):
        s = PairedSample(s.x1, s.x2)  # a fresh cache
        target = s.product_mean
        assert target == float(np.mean(np.asarray(s.x1) * np.asarray(s.x2)))
        assert s.product_mean is target
        fit = fit_bivariate(s)
        assert fit.residuals["product_moment"] == product_moment(fit.params) - target

    def test_closed_line_fit_feeds_the_residual(self):
        # a replicate of the published cable fit whose fitted beta2 is below
        # -1: theta is the root of the line, and the residual is taken there
        bp = BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                             MarginalParams(29.2295, -0.3406, -0.3531), 0.6821)
        s = draw(bp, SamplerSpec(0, 9, "exact"))
        fit = fit_bivariate(s)
        assert fit.params.m2.beta <= -1.0 and fit.params.theta > 0.0
        assert fit.theta_bracket == (fit.params.theta, fit.params.theta)
        assert fit.residuals["product_moment"] == product_moment(fit.params) - s.product_mean

    def test_independence_returns_zero(self):
        e0 = product_moment(BivariateParams(self.M1, self.M2, 0.0))
        s = sample_with_product_mean(e0 * 0.9)
        theta, _, warnings = fit_theta(s, self.M1, self.M2)
        assert theta == 0.0
        assert warnings and "independence" in warnings[0]

    @pytest.mark.parametrize("m2", [M2, MarginalParams(1.5, -0.2, -1.3)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_product_mean(self, m2):
        # products overflowing to +inf and -inf: the sample refuses its NaN
        # product mean, before the search or the closed form (beta2 <= -1) runs
        s = PairedSample((1e200, -1e200, 1.0), (1e200, 1e200, 1.0))
        with pytest.raises(DomainError, match=r"product mean overflows float64 .*\(nan\)"):
            fit_theta(s, self.M1, m2)

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

    def test_sample_lmoments_once_per_column(self, monkeypatch):
        import bivqf.fit

        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return sample_lmoments(*args, **kw)

        monkeypatch.setattr(bivqf.fit, "sample_lmoments", counted)
        res = fit_bivariate(CABLE)
        assert len(calls) == 2
        # the margins are those fit_marginal gives from r_max = 3
        assert (res.params.m1, res.params.m2) == (fit_marginal(CABLE.x1),
                                                  fit_marginal(CABLE.x2))


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


def brent_inverse(aa, cc, x):
    """Scalar inverse of -aa log(1-v) - 2 cc v at x: probes 0.75, 0.875, ... then Brent."""
    def q(v):
        return -aa * math.log1p(-v) - 2.0 * cc * v

    if x <= 0.0:
        return 0.0
    gap, hi = 0.25, 0.75
    while q(hi) < x:
        gap *= 0.5
        hi = 1.0 - gap
        if gap < 1e-16:
            return 1.0
    return brentq(lambda v: q(v) - x, 0.0, hi, xtol=1e-12, maxiter=200)


class TestMrqCdfs:
    @pytest.mark.parametrize("fitted", [False, True])
    def test_array_cdfs_match_brent_oracle(self, fitted):
        p = fit_mrq(COMP).params if fitted else MRQ_PUB
        x1, x2 = np.asarray(COMP.x1), np.asarray(COMP.x2)
        u1 = mrq_marginal1_cdf(p, x1)
        ref1 = [brent_inverse(p.a1 + p.b1, p.b1, x) for x in x1]
        np.testing.assert_allclose(u1, ref1, rtol=0.0, atol=1e-12)
        # each pair at its own level (pooled) and all at one level (per-point)
        for levels in (u1, np.full_like(x2, float(u1[0]))):
            ref2 = [brent_inverse(p.a2 + p.c + (p.b2 + p.d) * a, p.c + p.d * a, x)
                    for a, x in zip(levels, x2)]
            np.testing.assert_allclose(mrq_conditional_cdf(p, levels, x2), ref2,
                                       rtol=0.0, atol=1e-12)
        scalar = mrq_conditional_cdf(p, float(u1[3]), float(x2[3]))
        assert isinstance(scalar, float)
        assert math.isclose(scalar, mrq_conditional_cdf(p, u1, x2)[3], abs_tol=1e-12)

    def test_first_crossing_between_old_probes(self):
        # at u1 = 0, aa = -0.5 and cc = -1.5: Q21 peaks at v = 5/6 just above
        # 1.6 and is below it at the probes 0.75 and 0.875
        p = MrqParams(1.0, 0.2, 1.0, 0.5, -1.5, 0.0)
        v = mrq_conditional_cdf(p, 0.0, 1.6)
        assert brent_inverse(-0.5, -1.5, 1.6) == 1.0
        assert abs(v - 0.811) < 1e-3
        assert math.isclose(0.5 * math.log1p(-v) + 3.0 * v, 1.6, rel_tol=1e-12)

    def test_levels_never_reached(self):
        # above the peak of the same Q21, and where Q21 falls from 0 (aa < 0, cc = 0)
        p = MrqParams(1.0, 0.2, 1.0, 0.5, -1.5, 0.0)
        np.testing.assert_array_equal(
            mrq_conditional_cdf(p, 0.0, np.array([-1.0, 0.0, 1.7])), [0.0, 0.0, 1.0])
        assert mrq_conditional_cdf(MrqParams(1.0, 0.0, 1.0, -2.0, 0.0, 0.0), 1.0, 0.5) == 1.0


# the fitted components coefficients
MRQ_FIT = MrqParams(a1=2.7975, b1=0.15892105263157852, a2=3.086, b2=-1.0731584778153205,
                    c=0.08621052631578507, d=-0.8325921706476263)


# the published fits, drawn from at the sizes of their data sets
PUBLISHED = {
    "cable": (BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                              MarginalParams(29.2295, -0.3406, -0.3531), 0.6821), 9),
    "components": (BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                                   MarginalParams(5.9257, 0.3555, -0.6695), 0.5492), 20),
}


class TestMrq:
    @pytest.mark.parametrize("p", [
        *(pytest.param(replace(MRQ_PUB, d=d), id=str(d)) for d in (-7.16, -3.0, 0.0, 2.0)),
        *(pytest.param(replace(MRQ_FIT, d=d), id=f"components:{d}") for d in (-0.83, 2.0, 6.0))])
    def test_lcov_fixed_rule_matches_nested_oracle(self, p):
        ref = mrq_lcov_nested_oracle(p)
        assert math.isclose(_mrq_lcov_12(p, NumericConfig())[0], ref, rel_tol=1e-9)

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_lcov_is_decreasing_and_concave_in_d(self, name):
        # the premise of fit_mrq's early exits, on the coefficient sets of
        # test_fit_returns_only_roots's samples: at interior d of
        # (d_min, d_max] the slope of L2(1,2) is negative and falls, and it
        # matches central differences; evaluations that raise are counted
        bp, n = PUBLISHED[name]
        cfg = NumericConfig()
        evaluated, raised = 0, 0
        for seed in range(20):
            s = draw(bp, SamplerSpec(seed, n, "exact"))
            lm1, lm2 = sample_lmoments(s.x1), sample_lmoments(s.x2)
            a1, a2 = lm1.l1, lm2.l1
            b1, c = 6.0 * lm1.l2 - 3.0 * a1, 6.0 * lm2.l2 - 3.0 * a2
            b2 = (s.product_mean - a1 * a2) / lm1.l2
            if not (a2 + c > 0.0 and a2 + b2 > 0.0):
                continue
            d_min, d_max = -(a2 + c + b2), a2 + b2 - c
            h = 1e-4 * (d_max - d_min)
            last = -math.inf
            for d in d_min + (d_max - d_min) * np.arange(1, 6) / 6.0:
                evaluated += 1
                try:
                    _, slope = _mrq_lcov_12(MrqParams(a1, b1, a2, b2, c, d), cfg)
                    above, below = (_mrq_lcov_12(MrqParams(a1, b1, a2, b2, c, d + e), cfg)[0]
                                    for e in (h, -h))
                except QuadratureError:
                    raised += 1
                    continue
                assert slope < 0.0 and (slope <= last or last == -math.inf), (seed, d)
                assert math.isclose(slope, (above - below) / (2.0 * h), rel_tol=1e-7), (seed, d)
                last = slope
        assert evaluated >= 40 and raised <= 0.05 * evaluated, (evaluated, raised)

    def test_lcov_unreachable_tolerance_raises(self):
        p = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=-7.16)
        cfg = NumericConfig(quad_rel_tol=1e-300)
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
        assert math.isclose(p.d, -0.8325921706476263, rel_tol=1e-13)
        assert abs(res.residuals["product_moment"]) <= 1e-9
        assert abs(res.residuals["lcov_12"]) <= 1e-7

    def test_fit_refuses_a2_plus_c_not_positive(self):
        # cable: the L-CV of x2 is 0.286 < 1/3, so a2 + c = 6 l2 - 2 l1 < 0
        with pytest.raises(InfeasibleRegionError, match=r"a2 \+ c"):
            fit_mrq(CABLE)

    @pytest.mark.parametrize("name,below,above", [
        pytest.param("cable", {7, 9, 10, 15, 18}, set(), id="cable"),
        pytest.param("components", {13}, {4}, id="components")])
    def test_fit_returns_only_roots(self, name, below, above):
        # a fit lies in (d_min, d_max] and matches the sample L-covariance; a
        # refusal names the bound it hit, or is a QuadratureError.  On the
        # seeds in below (above) the root lies below d_min (above d_max)
        bp, n = PUBLISHED[name]
        cfg = NumericConfig()
        hit = {"below d_min": set(), "above d_max": set()}
        for seed in range(20):
            s = draw(bp, SamplerSpec(seed, n, "exact"))
            try:
                p = fit_mrq(s, cfg).params
            except QuadratureError:
                continue
            except InfeasibleRegionError as e:
                bound = re.search(r"a2 \+ [bc] > 0|below d_min|above d_max", str(e))
                assert bound, e
                hit.get(bound[0], set()).add(seed)
                continue
            assert -(p.a2 + p.c + p.b2) < p.d <= p.a2 + p.b2 - p.c
            target = sample_lcomoments(s).l2_12
            assert abs(_mrq_lcov_12(p, cfg)[0] - target) \
                <= cfg.quad_rel_tol * max(1.0, abs(target))
        assert hit == {"below d_min": below, "above d_max": above}

    def test_every_refusal_below_d_min_is_a_root_below_it(self):
        # the tangent exit below d_min rests on L2(1,2) being concave in d,
        # which its outer weight (a1 + b1) - 2 b1 (1 - u1) does not promise
        # where a1 + b1 < 0; each refusal still has L2(1,2) next to d_min
        # below the sample L-covariance, so the root lies below d_min
        bp, n = PUBLISHED["cable"]
        cfg = NumericConfig()
        refused, negative_weight = 0, 0
        for seed in range(200):
            s = draw(bp, SamplerSpec(seed, n, "exact"))
            try:
                fit_mrq(s, cfg)
                continue
            except QuadratureError:
                continue
            except InfeasibleRegionError as e:
                if "below d_min" not in str(e):
                    continue
            lm1, lm2 = sample_lmoments(s.x1), sample_lmoments(s.x2)
            a1, a2 = lm1.l1, lm2.l1
            b1, c = 6.0 * lm1.l2 - 3.0 * a1, 6.0 * lm2.l2 - 3.0 * a2
            b2 = (s.product_mean - a1 * a2) / lm1.l2
            d_min, d_max = -(a2 + c + b2), a2 + b2 - c
            near = MrqParams(a1, b1, a2, b2, c, d_min + 1e-2 * (d_max - d_min))
            assert _mrq_lcov_12(near, cfg)[0] < sample_lcomoments(s).l2_12, seed
            refused += 1
            negative_weight += a1 + b1 < 0.0
        assert (refused, negative_weight) == (51, 19)

    def test_root_above_d_max_is_refused(self):
        # the parent's upward doubling fitted d = -0.48988 here, past
        # d_max = a2 + b2 - c = -0.70723, with a constraint warning
        s = draw(PUBLISHED["components"][0], SamplerSpec(1966898329, 20, "exact"))
        with pytest.raises(InfeasibleRegionError, match="above d_max"):
            fit_mrq(s)

    def test_root_below_a_failing_d_max(self):
        # the parent's upward doubling stepped to d = 4, past d_max = 3.7136,
        # where the L-covariance rule does not converge (nor at d_max itself);
        # Newton from d = 0 stays below d_max
        s = draw(PUBLISHED["components"][0], SamplerSpec(282757781, 20, "exact"))
        res = fit_mrq(s)
        p = res.params
        assert math.isclose(p.d, 2.7414966939, rel_tol=1e-9)
        assert p.d <= p.a2 + p.b2 - p.c and not res.warnings
        with pytest.raises(QuadratureError):
            _mrq_lcov_12(replace(p, d=p.a2 + p.b2 - p.c), NumericConfig())

    def test_bisection_goes_on_where_the_rule_fails_at_d_max(self, monkeypatch):
        # Newton from d = 0 passes d_max = 4.5734, where the rule does not
        # converge; bisection from there finds the root below it
        import bivqf.fit

        tried = []

        def counted(p, cfg):
            tried.append(p.d)
            return _mrq_lcov_12(p, cfg)

        monkeypatch.setattr(bivqf.fit, "_mrq_lcov_12", counted)
        s = draw(PUBLISHED["components"][0], SamplerSpec(139438105, 20, "exact"))
        p = fit_mrq(s).params
        d_max = p.a2 + p.b2 - p.c
        assert d_max in tried and math.isclose(p.d, 4.23876721657, rel_tol=1e-9)
        target = sample_lcomoments(s).l2_12
        assert abs(_mrq_lcov_12(p, NumericConfig())[0] - target) <= 1e-8 * max(1.0, abs(target))

    def test_empty_interval_is_refused(self):
        # x2 falls as x1 rises: b2 < -a2, so no d has a2 + c + b2 + d > 0 and
        # a2 + b2 >= c + d
        s = PairedSample((1.0, 2.0, 3.0, 10.0), (10.0, 1.0, 0.5, 0.1))
        with pytest.raises(InfeasibleRegionError, match=r"a2 \+ b2 > 0"):
            fit_mrq(s)

    def test_nan_lcov_raises(self, monkeypatch):
        import bivqf.fit

        monkeypatch.setattr(bivqf.fit, "_mrq_lcov_12", lambda p, cfg: np.array([math.nan, -1.0]))
        with pytest.raises(ConvergenceError, match="NaN"):
            fit_mrq(COMP)

    def test_fit_recovers_independent_exponentials(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        n = 10_000
        x1 = rng.exponential(2.0, size=n)
        x2 = rng.exponential(3.0, size=n)
        res = fit_mrq(PairedSample(x1, x2))
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


ONE = dict(a1=1.0, b1=0.0, a2=1.0, b2=0.0, c=0.0, d=0.0)


@pytest.mark.parametrize("call, error, match", [
    # t3 = 2 t2 - 1 makes the ratio system singular
    (lambda: _fit_lmoments(LMomentVector(1.0, 0.5, 0.0, 0.0)), SingularSystemError,
     "degenerate ratio system for t2=0.5, t3=0"),
    (lambda: mrq_quantile(MrqParams(**{**ONE, "a2": -1.0, "b2": 5.0, "c": 3.0}), 0.5, 0.5),
     DomainError,
     r"^invalid competitor parameters: a2 = -1 must be positive$"),
    (lambda: mrq_quantile(MrqParams(**{**ONE, "c": -2.0}), 0.5, 0.5), DomainError,
     r"^invalid competitor parameters: a2 \+ c = -1 must be positive$"),
    (lambda: mrq_quantile(MrqParams(**{**ONE, "d": 1.5}), 0.5, 0.5), DomainError,
     r"^invalid competitor parameters: a2 \+ b2 = 1 must be >= c \+ d = 1.5$"),
    (lambda: mrq_quantile(MrqParams(**ONE), 1.0, 0.5), DomainError,
     r"u1 and u2 must lie in \[0, 1\)"),
    (lambda: mrq_quantile(MrqParams(**ONE), 0.5, -0.1), DomainError,
     r"u1 and u2 must lie in \[0, 1\)"),
    (lambda: fit_mrq(PairedSample((1.0, 2.0, 3.0), (2.0, 1.0, 4.0))), InsufficientDataError,
     "need at least 4 pairs, got 3"),
], ids=["singular-ratios", "mrq-a2", "mrq-a2-plus-c", "mrq-a2-plus-b2", "mrq-u1", "mrq-u2",
        "mrq-three-pairs"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
