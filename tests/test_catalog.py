import math

import numpy as np
import pytest
from scipy.integrate import quad

from bivqf.catalog import (
    CATALOG_NAMES,
    closed_conditional_survival,
    closed_joint_survival,
    closed_marginal_cdf,
    closed_marginal_survival,
    generic_joint_survival,
    generic_marginal_cdf,
    make_case,
)
from bivqf.errors import DomainError, UnsupportedCaseError
from bivqf.model import big_q1


def oracle_quantile(entry, i, u):
    """Independent quantile value: direct quadrature of the quantile density."""
    m = entry.params.m1 if i == 1 else entry.params.m2
    val, _ = quad(lambda t: t ** m.alpha * (1 - t) ** m.beta,
                  0.5 if m.alpha <= -1 else 0.0, u,
                  epsabs=1e-13, epsrel=1e-12, limit=300)
    return entry.loc[i - 1] + m.c * val


class TestMappings:
    def test_exponential(self):
        e = make_case("exponential", c1=1.0, c2=1.0, theta=0.5)
        for m in (e.params.m1, e.params.m2):
            assert (m.alpha, m.beta) == (0.0, -1.0)
        assert e.params.theta == 0.5

    def test_uniform(self):
        e = make_case("uniform", b1=1.0, b2=1.0, theta=0.0)
        assert (e.params.m1.c, e.params.m1.alpha, e.params.m1.beta) == (1.0, 0.0, 0.0)

    def test_loglogistic(self):
        e = make_case("loglogistic", a1=2.0, b1=3.0, a2=2.0, b2=3.0)
        m = e.params.m1
        assert (m.c, m.alpha, m.beta) == (6.0, 1.0, -3.0)

    def test_power_round_trip(self):
        # natural -> mapped -> natural: a = 1/(alpha+1), b = c * a
        e = make_case("power", a1=2.5, b1=4.0, a2=0.8, b2=1.5, theta=0.3)
        for i, (a, b) in ((1, (2.5, 4.0)), (2, (0.8, 1.5))):
            m = e.params.m1 if i == 1 else e.params.m2
            assert math.isclose(1.0 / (m.alpha + 1.0), a, rel_tol=1e-14)
            assert math.isclose(m.c / (m.alpha + 1.0), b, rel_tol=1e-14)

    def test_pareto2_round_trip(self):
        # d = -1/(1+beta), b = c * d
        e = make_case("pareto2", d1=3.0, b1=2.0, d2=1.5, b2=0.7)
        for m, (d, b) in ((e.params.m1, (3.0, 2.0)), (e.params.m2, (1.5, 0.7))):
            assert math.isclose(-1.0 / (1.0 + m.beta), d, rel_tol=1e-14)
            assert math.isclose(m.c * d, b, rel_tol=1e-14)

    def test_loglogistic_round_trip(self):
        # a = alpha + 1 (= -(beta+1)), b = c / a
        e = make_case("loglogistic", a1=0.5, b1=1.2, a2=3.0, b2=0.4)
        for m, (a, b) in ((e.params.m1, (0.5, 1.2)), (e.params.m2, (3.0, 0.4))):
            assert math.isclose(m.alpha + 1.0, a, rel_tol=1e-14)
            assert math.isclose(-(m.beta + 1.0), a, rel_tol=1e-14)
            assert math.isclose(m.c / a, b, rel_tol=1e-14)

    def test_govindarajulu_mapping(self):
        e = make_case("govindarajulu", sigma1=2.0, b1=3.0, sigma2=1.0, b2=2.0)
        m = e.params.m1
        assert (m.c, m.alpha, m.beta) == (2.0 * 3.0 * 4.0, 2.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            make_case("power", a1=-1.0, b1=1.0, a2=1.0, b2=1.0)
        with pytest.raises(DomainError):
            make_case("exponential", c1=0.0, c2=1.0)
        with pytest.raises(DomainError):
            make_case("exponential", c1=1.0, c2=1.0, theta=-0.2)
        with pytest.raises(DomainError):
            make_case("no-such-case", c1=1.0)

    def test_missing_parameters_are_all_named(self):
        with pytest.raises(DomainError, match=r"'power' needs b1, a2, b2$"):
            make_case("power", a1=2.0)
        # before any value is checked, and a pinned parameter is never missing
        with pytest.raises(DomainError, match=r"'uniform' needs b2$"):
            make_case("uniform", b1=-1.0)


class TestClosedForms:
    def test_power_cdf(self):
        e = make_case("power", a1=1.0, b1=1.0, a2=1.0, b2=1.0)
        assert closed_marginal_cdf(e, 1, 0.3) == 0.3

    def test_exponential_cdf(self):
        e = make_case("exponential", c1=2.0, c2=2.0)
        assert math.isclose(closed_marginal_cdf(e, 1, 2.0 * math.log(2.0)), 0.5,
                            rel_tol=1e-14)

    def test_pareto1_survival(self):
        e = make_case("pareto1", sigma1=1.0, a1=2.0, sigma2=1.0, a2=2.0)
        assert math.isclose(closed_marginal_survival(e, 1, 2.0), 0.25,
                            rel_tol=1e-14)

    def test_govindarajulu_unsupported(self):
        e = make_case("govindarajulu", sigma1=1.0, b1=2.0, sigma2=1.0, b2=2.0)
        with pytest.raises(UnsupportedCaseError):
            closed_marginal_cdf(e, 1, 0.5)
        with pytest.raises(UnsupportedCaseError):
            closed_joint_survival(e, 0.5, 0.5)

    def test_govindarajulu_support_top(self):
        # Q(1) = sigma * ((b+1) - b) = sigma
        e = make_case("govindarajulu", sigma1=2.0, b1=3.0, sigma2=1.0, b2=2.0)
        assert math.isclose(big_q1(e.params.m1, 1.0), 2.0, rel_tol=1e-12)


ENTRIES = {
    "complementary-beta": dict(c1=1.0, alpha1=0.3, beta1=0.6, c2=2.0,
                               alpha2=-0.34, beta2=-0.35, theta=0.7),
    "power": dict(a1=2.0, b1=3.0, a2=0.8, b2=1.0, theta=0.9),
    "uniform": dict(b1=1.0, b2=2.0, theta=1.0),
    "exponential": dict(c1=1.0, c2=2.5, theta=0.5),
    "rescaled-beta": dict(a1=2.0, b1=1.0, a2=0.7, b2=3.0, theta=0.4),
    "pareto2": dict(d1=3.0, b1=1.0, d2=2.5, b2=2.0, theta=0.8),
    "pareto1": dict(sigma1=1.0, a1=3.0, sigma2=0.5, a2=2.5, theta=0.6),
    "loglogistic": dict(a1=0.5, b1=1.0, a2=0.4, b2=2.0, theta=0.7),
    "sine": dict(scale1=1.0, scale2=2.0),
    "scaled-t2": dict(c1=1.0, c2=0.5),
}


def support_grid(entry, i, n=25):
    m = entry.params.m1 if i == 1 else entry.params.m2
    loc = entry.loc[i - 1]
    qs = np.linspace(0.03, 0.97, n)
    return [loc + big_q1(m, float(u)) for u in qs]


class TestOracleAgreement:
    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES
                                      if n != "govindarajulu"])
    def test_marginal_cdf_against_independent_oracle(self, name):
        # the closed CDF evaluated at an independently integrated quantile
        # value must return the probability level
        entry = make_case(name, **ENTRIES[name])
        for i in (1, 2):
            for u in np.linspace(0.03, 0.97, 7):
                x = oracle_quantile(entry, i, float(u))
                assert math.isclose(closed_marginal_cdf(entry, i, x), float(u),
                                    abs_tol=2e-9), (name, i, u)

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES
                                      if n != "govindarajulu"])
    def test_marginal_cdf_closed_vs_generic(self, name):
        entry = make_case(name, **ENTRIES[name])
        for i in (1, 2):
            for x in support_grid(entry, i, n=25):
                closed = closed_marginal_cdf(entry, i, x)
                generic = generic_marginal_cdf(entry, i, x)
                assert abs(closed - generic) <= 1e-9, (name, i, x)

    @pytest.mark.parametrize("name", ["rescaled-beta", "pareto2", "pareto1",
                                      "loglogistic", "sine", "scaled-t2"])
    def test_marginal_cdf_lower_tail_relative(self, name):
        # the closed forms keep relative accuracy where F is tiny, so they
        # stay oracles there; 1 - S(x) would cancel
        entry = make_case(name, **ENTRIES[name])
        for i in (1, 2):
            m = entry.params.m1 if i == 1 else entry.params.m2
            for u in (1e-15, 1e-10, 1e-6):
                x = entry.loc[i - 1] + big_q1(m, u)
                assert math.isclose(closed_marginal_cdf(entry, i, x),
                                    generic_marginal_cdf(entry, i, x),
                                    rel_tol=1e-13), (name, i, u)

    @pytest.mark.parametrize("name", ["power", "uniform", "exponential",
                                      "rescaled-beta", "pareto2", "pareto1",
                                      "loglogistic", "complementary-beta"])
    def test_joint_survival_closed_vs_generic(self, name):
        entry = make_case(name, **ENTRIES[name])
        g1 = support_grid(entry, 1, n=5)
        g2 = support_grid(entry, 2, n=5)
        for x1 in g1:
            for x2 in g2:
                closed = closed_joint_survival(entry, x1, x2)
                generic = generic_joint_survival(entry, x1, x2)
                assert abs(closed - generic) <= 1e-9, (name, x1, x2)

    def test_conditional_survival_exponential_form(self):
        entry = make_case("exponential", **ENTRIES["exponential"])
        c2, th = 2.5, 0.5
        for u1 in (0.0, 0.3, 0.8):
            for x2 in (0.5, 2.0, 6.0):
                ref = math.exp(-x2 / (c2 * (1.0 + th * u1)))
                assert math.isclose(closed_conditional_survival(entry, u1, x2),
                                    ref, rel_tol=1e-12)

    def test_marginal_only_entries_reject_joint(self):
        for name in ("sine", "scaled-t2"):
            entry = make_case(name, **ENTRIES[name])
            with pytest.raises(UnsupportedCaseError):
                closed_joint_survival(entry, 0.2, 0.2)


# the natural parameter that scales Q2 in each case with a closed CDF
SCALE_STEM = {"complementary-beta": "c", "power": "b", "uniform": "b",
              "exponential": "c", "rescaled-beta": "b", "pareto2": "b",
              "pareto1": "sigma", "loglogistic": "b", "sine": "scale",
              "scaled-t2": "c"}


class TestTable:
    @pytest.mark.parametrize("name", list(SCALE_STEM))
    def test_scaled_argument_is_scaled_parameter(self, name):
        # the conditional survival reads F2 at x2 / g: multiplying Q2 by g
        # is the same as multiplying the scale parameter by g
        entry = make_case(name, **ENTRIES[name])
        key = SCALE_STEM[name] + "2"
        for g in (1.3, 2.7):
            scaled = make_case(name, **{**ENTRIES[name], key: ENTRIES[name][key] * g})
            for x in support_grid(scaled, 2, n=9):
                assert math.isclose(closed_marginal_cdf(entry, 2, x / g),
                                    closed_marginal_cdf(scaled, 2, x),
                                    rel_tol=1e-14, abs_tol=1e-15), (g, x)

    def test_closed_form_flags_and_notes(self):
        gov = make_case("govindarajulu", sigma1=2.0, b1=3.0, sigma2=1.0, b2=2.0)
        assert (gov.has_marginal_cdf, gov.has_joint_survival) == (False, False)
        assert gov.notes == ("no closed distribution function",)
        for name in ("sine", "scaled-t2"):
            e = make_case(name, **ENTRIES[name])
            assert e.has_marginal_cdf and not e.has_conditional_survival
            assert e.notes[0] == "marginal-only entry"
        e = make_case("pareto1", **ENTRIES["pareto1"])
        assert e.has_conditional_survival and e.has_joint_survival and e.notes == ()
        assert e.loc == (1.0, 0.5)

    def test_unknown_parameter_name(self):
        with pytest.raises(DomainError, match="c3.*c1, c2, theta"):
            make_case("exponential", c1=1.0, c2=2.5, c3=3.0)

    def test_natural_in_table_order_with_pinned_stems(self):
        e = make_case("uniform", b2=2.0, b1=1.0, a1=5.0, theta=1.0)
        assert list(e.natural.items()) == [("a1", 1.0), ("b1", 1.0), ("a2", 1.0),
                                           ("b2", 2.0), ("theta", 1.0)]
        assert e.params.m1.alpha == 0.0
