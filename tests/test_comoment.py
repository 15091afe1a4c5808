import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import betainc, betaincinv, eval_sh_legendre

from bivqf.catalog import make_case
from bivqf.comoment import (
    _sample_directed,
    population_lcomoments,
    power_case_lcov_closed_form,
    power_case_lcov_hypergeometric,
    sample_lcomoments,
)
from bivqf.data import BUILTIN_DATASETS, PairedSample
from bivqf.errors import DivergentMomentError, InsufficientDataError, QuadratureError
from bivqf.model import BivariateParams, MarginalParams, NumericConfig

UNIF = MarginalParams(1.0, 0.0, 0.0)


def brute_lcomoment(bp, k, direction):
    """Direct double quadrature with an independent u21 (scipy betainc)."""
    a, b = bp.m2.alpha + 1.0, bp.m2.beta + 1.0
    if k == 2:
        gam, wf = 2.0, lambda t: 1.0
    elif k == 3:
        gam, wf = 1.0, lambda t: 12.0 * t - 6.0
    else:
        gam, wf = 1.0, lambda t: 60.0 * t * t - 60.0 * t + 12.0

    def u21_ref(u1v, u2v):
        return betaincinv(a, b, betainc(a, b, u2v) / (1.0 + bp.theta * u1v))

    def qd(m, u):
        return m.c * u ** m.alpha * (1.0 - u) ** m.beta

    if direction == "12":
        f = lambda u2v, u1v: ((1.0 - u1v) * (u2v - u21_ref(u1v, u2v))
                              * wf(u2v) * qd(bp.m1, u1v))
    else:
        f = lambda u2v, u1v: ((1.0 - u1v) * (u2v - u21_ref(u1v, u2v))
                              * wf(u1v) * qd(bp.m2, u2v))
    val, _ = dblquad(f, 1e-10, 1 - 1e-10, 1e-10, 1 - 1e-10, epsabs=1e-10)
    return gam * val


def random_models(seed, count):
    """Seeded models in the brute oracle's domain (beta2 > -1, where its u21
    is defined)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a1, b1 = rng.uniform(-0.9, 2.0), rng.uniform(-1.5, 1.5)
        a2, b2 = rng.uniform(-0.9, 2.0), rng.uniform(-0.9, 1.5)
        out.append(BivariateParams(MarginalParams(rng.uniform(0.5, 3.0), a1, b1),
                                   MarginalParams(rng.uniform(0.5, 3.0), a2, b2),
                                   rng.uniform(0.1, 2.0)))
    return out


def u21_ref(bp, u1v, u2v):
    """u21 for a power, exponential, log-logistic or incomplete-beta margin."""
    g = 1.0 + bp.theta * u1v
    m2 = bp.m2
    if m2.beta == 0.0:
        return u2v * g ** (-1.0 / (m2.alpha + 1.0))
    if (m2.alpha, m2.beta) == (0.0, -1.0):
        return 1.0 - (1.0 - u2v) ** (1.0 / g)
    if math.isclose(m2.alpha + m2.beta, -2.0):
        # log-logistic: Q2(u) is proportional to (u / (1-u))^(alpha+1)
        r = u2v / (1.0 - u2v) * g ** (-1.0 / (m2.alpha + 1.0))
        return r / (1.0 + r)
    a, b = m2.alpha + 1.0, m2.beta + 1.0
    return betaincinv(a, b, betainc(a, b, u2v) / g)


def adaptive_lcomoments(bp):
    """Nested adaptive quadrature of both defining double integrals.

    The outer (1,2) weight u1^alpha1 (1-u1)^(beta1+1) goes to QUADPACK's
    algebraic-weight rule; every other integral is plain adaptive QAGS.
    Returns ((L2, L3, L4)(1,2), (L2, L3, L4)(2,1)).
    """
    m1, m2 = bp.m1, bp.m2
    weights = ((2.0, lambda t: 1.0), (1.0, lambda t: 12.0 * t - 6.0),
               (1.0, lambda t: 60.0 * t * t - 60.0 * t + 12.0))
    tight = dict(epsabs=1e-13, epsrel=1e-11, limit=200)

    def q2(u):
        return m2.c * u ** m2.alpha * (1.0 - u) ** m2.beta

    def inner_21(u1v):
        return quad(lambda u: (u - u21_ref(bp, u1v, u)) * q2(u), 0.0, 1.0,
                    **tight)[0]

    l21 = [gam * quad(lambda u: (1.0 - u) * wf(u) * inner_21(u), 0.0, 1.0, **tight)[0]
           for gam, wf in weights]
    return adaptive_l12(bp), l21


def adaptive_l12(bp):
    """(L2, L3, L4)(1,2) alone, as in adaptive_lcomoments."""
    m1 = bp.m1
    tight = dict(epsabs=1e-13, epsrel=1e-11, limit=200)
    l12 = []
    for gam, wf in ((2.0, lambda t: 1.0), (1.0, lambda t: 12.0 * t - 6.0),
                    (1.0, lambda t: 60.0 * t * t - 60.0 * t + 12.0)):
        def inner_12(u1v, wf=wf):
            return quad(lambda u: (u - u21_ref(bp, u1v, u)) * wf(u), 0.0, 1.0,
                        **tight)[0]
        l12.append(gam * m1.c * quad(inner_12, 0.0, 1.0, weight="alg",
                                     wvar=(m1.alpha, m1.beta + 1.0), **tight)[0])
    return l12


def power_l2_21(c2, alpha2, theta):
    """L2(2,1) for X1 uniform and X2 the power margin (c2, alpha2, 0).

    With A = alpha2 + 1 it is 2 c2/(A+1) int_0^1 (1-u)(1 - (1+theta u)^(-1/A)) du;
    the integral is taken in closed form through t = 1 + theta u, at 40 digits.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha2) + 1
        p, top, th = 1 / a, 1 + mpmath.mpf(theta), mpmath.mpf(theta)
        rest = (top * (top ** (1 - p) - 1) / (1 - p) - (top ** (2 - p) - 1) / (2 - p)) / th ** 2
        return float(2 * c2 / (a + 1) * (mpmath.mpf(1) / 2 - rest))


class TestPopulation:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("name", ["cable", "components", "power", "exponential",
                                      "loglogistic", "beta2-0.999", "beta2-0.9999"])
    def test_fixed_rules_match_adaptive_reference(self, name):
        bp = {
            "cable": BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                                     MarginalParams(29.2295, -0.3406, -0.3531), 0.6821),
            "components": BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                                          MarginalParams(5.9257, 0.3555, -0.6695),
                                          0.5492),
            "power": BivariateParams(MarginalParams(2.0, 1.0, 0.0),
                                     MarginalParams(1.0, -0.5, 0.0), 0.75),
            "exponential": BivariateParams(MarginalParams(1.0, 0.0, -1.0),
                                           MarginalParams(2.0, 0.0, -1.0), 0.8),
            "loglogistic": make_case("loglogistic", a1=0.5, b1=1.0, a2=0.4, b2=2.0,
                                     theta=0.7).params,
            # beta2 just above -1: the inner power k of 1 - u2 = s^k is
            # capped at 2(1 + theta); at 2/(beta2 + 1) it passed 1000, where
            # the Jacobi nodes are NaN
            "beta2-0.999": BivariateParams(UNIF, MarginalParams(1.0, 0.0, -0.999), 1.0),
            "beta2-0.9999": BivariateParams(UNIF, MarginalParams(1.0, 0.5, -0.9999), 1.0),
        }[name]
        cm = population_lcomoments(bp)
        l12, l21 = adaptive_lcomoments(bp)
        got = (cm.l2_12, cm.l3_12, cm.l4_12, cm.l2_21, cm.l3_21, cm.l4_21)
        for i, (v, ref) in enumerate(zip(got, l12 + l21)):
            assert math.isclose(v, ref, rel_tol=1e-8, abs_tol=1e-12), (i, v, ref)

    # beta2 at or just above -1 with theta above about 511: the inner power
    # 2(1 + theta) of 1 - u2 = s^k passed 1024, where the Jacobi nodes turn
    # NaN, and u21 raised DomainError; k is now capped at 1000
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("m2", [MarginalParams(1.0, 0.0, -1.0),
                                    MarginalParams(2.0, 0.5, -0.9999)])
    @pytest.mark.parametrize("theta", [600.0, 2000.0])
    def test_large_theta_against_adaptive_reference(self, m2, theta):
        bp = BivariateParams(MarginalParams(1.3, 0.5, 0.2), m2, theta)
        cm = population_lcomoments(bp)
        for v, ref in zip((cm.l2_12, cm.l3_12, cm.l4_12), adaptive_l12(bp)):
            assert math.isclose(v, ref, rel_tol=1e-8, abs_tol=1e-12), (v, ref)
        if m2.beta == -1.0:  # theta l1(X2)/3, as in the exponential test below
            assert math.isclose(cm.l2_21, theta * m2.c / 3.0, rel_tol=1e-12)
            assert (cm.l3_21, cm.l4_21) == (0.0, 0.0)

    def test_very_large_theta_returns_values(self):
        # with X1 uniform, L2(1,2) rises toward 1/2 as theta grows
        last = 0.0
        for theta in (2000.0, 1e5, 1e8):
            bp = BivariateParams(UNIF, MarginalParams(1.0, 0.0, -1.0), theta)
            l2 = population_lcomoments(bp).l2_12
            assert last < l2 < 0.5
            last = l2

    def test_unreachable_tolerance_raises(self):
        bp = BivariateParams(MarginalParams(1.0, 0.4, 0.8),
                             MarginalParams(2.0, -0.34, -0.35), 0.68)
        cfg = NumericConfig(quad_rel_tol=1e-300)
        with pytest.raises(QuadratureError):
            population_lcomoments(bp, cfg)

    def test_independence_is_exactly_zero(self):
        bp = BivariateParams(MarginalParams(2.0, 0.5, 1.0), UNIF, 0.0)
        cm = population_lcomoments(bp)
        for name in ("l2_12", "l3_12", "l4_12", "l2_21", "l3_21", "l4_21",
                     "rho12", "rho21"):
            assert getattr(cm, name) == 0.0

    def test_uniform_analytic_value(self):
        # L2(1,2) = integral of u(1-u)/(1+u) = 3/2 - 2 log 2, and
        # lambda2 = 1/6 so rho12 = 6 (3/2 - 2 log 2)
        bp = BivariateParams(UNIF, UNIF, 1.0)
        cm = population_lcomoments(bp)
        exact = 1.5 - 2.0 * math.log(2.0)
        assert abs(cm.l2_12 - exact) <= 1e-8
        assert abs(cm.rho12 - 6.0 * exact) <= 1e-8
        # for two uniform marginals the directions coincide
        assert abs(cm.l2_21 - exact) <= 1e-8

    def test_power_case_moments_coincide(self):
        # u21 linear in u2 makes all three directed comoments equal
        bp = BivariateParams(MarginalParams(2.0, 1.0, 0.0),
                             MarginalParams(1.0, -0.5, 0.0), 0.75)
        cm = population_lcomoments(bp)
        assert math.isclose(cm.l2_12, cm.l3_12, rel_tol=1e-9)
        assert math.isclose(cm.l2_12, cm.l4_12, rel_tol=1e-9)

    def test_hypergeometric_oracle(self):
        for a1, a2, th in ((1.0, 1.0, 1.0), (0.5, 2.0, 0.75),
                           (2.0, 0.5, 0.6821)):
            bp = BivariateParams(MarginalParams(2.0, 1.0 / a1 - 1.0, 0.0),
                                 MarginalParams(1.0, 1.0 / a2 - 1.0, 0.0), th)
            closed = power_case_lcov_hypergeometric(bp)
            quadr = population_lcomoments(bp).l2_12
            assert math.isclose(closed, quadr, rel_tol=1e-9, abs_tol=1e-12)

    def test_hypergeometric_oracle_at_large_theta(self):
        # the 2F1 power series behind gauss_2f1 raised ConvergenceError here
        bp = BivariateParams(MarginalParams(2.0, 0.0, 0.0), MarginalParams(1.0, 0.0, 0.0), 500.0)
        th = mpmath.mpf(500)
        ref = 2 * (mpmath.mpf(1) / 2 - mpmath.hyp2f1(1, 1, 2, -th) + mpmath.hyp2f1(1, 2, 3, -th) / 2)
        closed = power_case_lcov_hypergeometric(bp)
        assert math.isclose(closed, float(ref), rel_tol=1e-13)
        assert math.isclose(closed, population_lcomoments(bp).l2_12, rel_tol=1e-9)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_brute_double_quadrature_oracle(self):
        bp = BivariateParams(MarginalParams(1.0, 0.4, 0.8),
                             MarginalParams(2.0, -0.34, -0.35), 0.68)
        # the brute rule itself converges to ~1e-6 relative; it checks the
        # reduction and wiring, not the last digits
        cm = population_lcomoments(bp)
        for k, got in ((2, cm.l2_12), (3, cm.l3_12), (4, cm.l4_12)):
            ref = brute_lcomoment(bp, k, "12")
            assert math.isclose(got, ref, rel_tol=1e-5, abs_tol=1e-8), k
        for k, got in ((2, cm.l2_21), (3, cm.l3_21), (4, cm.l4_21)):
            ref = brute_lcomoment(bp, k, "21")
            assert math.isclose(got, ref, rel_tol=1e-5, abs_tol=1e-8), k

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("bp", random_models(1, 3))
    def test_brute_oracle_on_random_models(self, bp):
        cm = population_lcomoments(bp)
        for direction in ("12", "21"):
            for k in (2, 3, 4):
                got = getattr(cm, f"l{k}_{direction}")
                ref = brute_lcomoment(bp, k, direction)
                assert math.isclose(got, ref, rel_tol=1e-5, abs_tol=1e-8), (direction, k)

    def test_exponential_second_margin_reduction(self):
        # for beta2 <= -1 the (2,1) direction is exactly linear in u1:
        # L2(2,1) = theta l1(X2) / 3 and the higher comoments vanish
        bp = BivariateParams(UNIF, MarginalParams(2.0, 0.0, -1.0), 0.8)
        cm = population_lcomoments(bp)
        assert math.isclose(cm.l2_21, 0.8 * 2.0 / 3.0, rel_tol=1e-10)
        assert abs(cm.l3_21) <= 1e-12
        assert abs(cm.l4_21) <= 1e-12

    # next to alpha2 = -1 the partial mean's w* underflows and takes its
    # limit, and both directions have a boundary layer of width
    # (alpha2 + 1)/theta at u1 = 0, which the outer u1 = s^k resolves
    @pytest.mark.parametrize("alpha2, rel_tol", [
        (-0.9, 1e-12), (-0.999, 1e-12), (-0.99999, 1e-8), (-0.999999, 1e-8)])
    def test_power_l2_21_next_to_alpha2_minus_one(self, alpha2, rel_tol):
        bp = BivariateParams(UNIF, MarginalParams(1.0, alpha2, 0.0), 1.0)
        cm = population_lcomoments(bp)
        closed = power_l2_21(1.0, alpha2, 1.0)
        assert math.isclose(cm.l2_21, closed, rel_tol=rel_tol)
        # with X1 uniform, L2(1,2) = c1 (A+1)/(2 c2) L2(2,1), A = alpha2 + 1
        assert math.isclose(cm.l2_12, (alpha2 + 2.0) / 2.0 * closed, rel_tol=rel_tol)

    def test_population_rho_scale_invariant(self):
        base = BivariateParams(MarginalParams(2.0, 1.0, 0.0),
                               MarginalParams(1.0, 0.5, 0.0), 0.75)
        scaled = BivariateParams(MarginalParams(14.0, 1.0, 0.0),
                                 MarginalParams(1.0, 0.5, 0.0), 0.75)
        cm1 = population_lcomoments(base)
        cm2 = population_lcomoments(scaled)
        assert math.isclose(cm1.rho12, cm2.rho12, rel_tol=1e-10)
        assert math.isclose(cm2.l2_12, 7.0 * cm1.l2_12, rel_tol=1e-10)

    def test_theta_monotone(self):
        vals = []
        for th in (0.0, 0.5, 1.0, 2.0):
            bp = BivariateParams(MarginalParams(2.0, 1.0, 0.0),
                                 MarginalParams(1.0, 0.5, 0.0), th)
            vals.append(population_lcomoments(bp).l2_12)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_divergent_region(self):
        with pytest.raises(DivergentMomentError):
            population_lcomoments(
                BivariateParams(MarginalParams(1.0, -1.5, -1.5), UNIF, 0.5))


class TestPrintedFormulaComparison:
    def test_independence_discrepancy_reported(self):
        bp = BivariateParams(MarginalParams(2.0, 0.0, 0.0), UNIF, 0.0)
        rep = power_case_lcov_closed_form(bp)
        assert abs(rep.quadrature_value) <= 1e-12
        assert rep.formula_value != 0.0
        assert math.isclose(rep.discrepancy,
                            rep.quadrature_value - rep.formula_value,
                            rel_tol=1e-15)

    def test_uniform_case(self):
        bp = BivariateParams(UNIF, UNIF, 1.0)
        rep = power_case_lcov_closed_form(bp)
        assert abs(rep.quadrature_value - (1.5 - 2.0 * math.log(2.0))) <= 1e-8
        assert abs(rep.discrepancy) > 0.1

    def test_requires_power_case(self):
        with pytest.raises(DivergentMomentError):
            power_case_lcov_closed_form(
                BivariateParams(UNIF, MarginalParams(1.0, 0.0, 0.5), 0.5))

    @pytest.mark.parametrize("fn", [power_case_lcov_closed_form,
                                    power_case_lcov_hypergeometric])
    @pytest.mark.parametrize("alpha1, alpha2", [(-1.0, 0.0), (0.0, -1.0),
                                                (-1.5, 0.0), (0.0, -1.5)])
    def test_requires_lmoment_region(self, fn, alpha1, alpha2):
        # alpha = -1 divided by zero, and alpha = -1.5 gave finite values
        # where the L-comoments diverge
        bp = BivariateParams(MarginalParams(1.0, alpha1, 0.0),
                             MarginalParams(1.0, alpha2, 0.0), 0.5)
        with pytest.raises(DivergentMomentError):
            fn(bp)


class TestSample:
    def test_comonotone_grid(self):
        n = 100
        x = np.arange(1.0, n + 1.0)
        s = PairedSample(x, x)
        cm = sample_lcomoments(s)
        assert cm.rho12 >= 0.97
        assert math.isclose(cm.rho12, (n - 1.0) / (n + 1.0), rel_tol=1e-12)

    def test_independent_pairs_near_zero(self):
        rng = np.random.default_rng(21)
        x1 = rng.exponential(1.0, size=10_000)
        x2 = rng.exponential(1.0, size=10_000)
        cm = sample_lcomoments(PairedSample(x1, x2))
        assert abs(cm.rho12) <= 0.05
        assert abs(cm.rho21) <= 0.05

    def test_cable_value(self):
        cm = sample_lcomoments(BUILTIN_DATASETS["cable"])
        assert math.isclose(cm.rho12, 0.8, rel_tol=1e-12)
        assert math.isclose(cm.rho21, 0.8, rel_tol=1e-12)

    def test_scale_invariance_of_rho(self):
        s = BUILTIN_DATASETS["components"]
        scaled = PairedSample(7.0 * s.x1, s.x2)
        base = sample_lcomoments(s)
        moved = sample_lcomoments(scaled)
        assert math.isclose(moved.rho12, base.rho12, rel_tol=1e-12)
        assert math.isclose(moved.l2_12, 7.0 * base.l2_12, rel_tol=1e-12)

    def test_directions_differ_but_bounded(self):
        s = BUILTIN_DATASETS["components"]
        cm = sample_lcomoments(s)
        assert -1.0 <= cm.rho12 <= 1.0
        assert -1.0 <= cm.rho21 <= 1.0
        assert cm.rho12 != cm.rho21

    def test_ties_use_average_ranks(self):
        s = PairedSample((1.0, 2.0, 3.0, 4.0), (2.0, 2.0, 5.0, 7.0))
        cm = sample_lcomoments(s)  # deterministic despite the tie
        assert math.isfinite(cm.rho12)

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            sample_lcomoments(PairedSample((1.0, 2.0), (2.0, 1.0)))

    def test_ranks_match_rankdata_oracle(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(11)
        lead = rng.normal(size=60)
        cond = np.concatenate([rng.integers(0, 7, size=57).astype(float),
                               [-0.0, 0.0, 3.5]])  # ties, signed zeros
        t = rankdata(cond, method="average") / (cond.size + 1.0)
        expected = []
        for k in (1, 2, 3):
            p = eval_sh_legendre(k, t)
            expected.append(float(np.mean((lead - lead.mean()) * (p - p.mean()))))
        assert _sample_directed(lead, cond) == tuple(expected)

    @pytest.mark.parametrize("n", [9, 20, 1000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_ranks_equal_the_searchsorted_formula(self, n, tied, monkeypatch):
        # the mapped ranks, bit for bit, of the formula with two unsorted
        # searchsorted queries that one argsort replaced
        from bivqf import comoment

        rng = np.random.default_rng(n)
        lead = rng.normal(size=n)
        cond = (rng.integers(0, max(2, n // 5), size=n).astype(float) if tied
                else rng.normal(size=n))
        ordered = np.sort(cond)
        last = np.searchsorted(ordered, cond, "right")
        count = last - np.searchsorted(ordered, cond, "left")
        t_old = (last - (count - 1) / 2.0) / (n + 1.0)
        seen = []
        monkeypatch.setattr(comoment, "eval_sh_legendre",
                            lambda k, t: seen.append(t) or eval_sh_legendre(k, t))
        _sample_directed(lead, cond)
        assert len(seen) == 3 and (count > 1).any() == tied
        for t in seen:
            assert t.tobytes() == t_old.tobytes()
