import itertools
import math

import mpmath
import numpy as np
import pytest

from bivqf.data import BUILTIN_DATASETS
from bivqf.errors import DivergentMomentError, DomainError, InsufficientDataError
from bivqf.lmom import (
    population_lmoments,
    sample_lmoments,
)
from bivqf.model import MarginalParams
from bivqf.specfun import complete_beta
from quad_oracles import population_lmoments_quadrature


def combinatorial_lmoments(x):
    """Exact unbiased sample L-moments by subset enumeration (small n only)."""
    x = sorted(x)
    n = len(x)
    out = [float(np.mean(x))]
    for r in (2, 3, 4):
        total = 0.0
        for combo in itertools.combinations(range(n), r):
            inner = 0.0
            for k in range(r):
                inner += ((-1) ** k * math.comb(r - 1, k)
                          * x[combo[r - 1 - k]])
            total += inner / r
        out.append(total / math.comb(n, r))
    return out


class TestPopulation:
    def test_exponential(self):
        lm = population_lmoments(MarginalParams(2.0, 0.0, -1.0))
        assert math.isclose(lm.l1, 2.0, rel_tol=1e-14)
        assert math.isclose(lm.l2, 1.0, rel_tol=1e-14)
        assert math.isclose(lm.tau2, 0.5, rel_tol=1e-12)
        assert math.isclose(lm.tau3, 1.0 / 3.0, rel_tol=1e-12)
        assert math.isclose(lm.tau4, 1.0 / 6.0, rel_tol=1e-12)

    def test_uniform(self):
        lm = population_lmoments(MarginalParams(1.0, 0.0, 0.0))
        assert math.isclose(lm.l1, 0.5, rel_tol=1e-14)
        assert math.isclose(lm.l2, 1.0 / 6.0, rel_tol=1e-14)
        assert lm.tau3 == 0.0
        assert lm.tau4 == 0.0

    def test_symmetric_shapes_have_zero_skew(self):
        for ab in (0.5, 1.0, 2.7):
            lm = population_lmoments(MarginalParams(3.0, ab, ab))
            assert abs(lm.tau3) < 1e-15

    def test_normalized_scale_reduction(self):
        # with c = 1/B(alpha+1, beta+1) the mean and L-scale reduce to
        # (beta+1)/(alpha+beta+2) and (alpha+1)(beta+1)/((a+b+2)(a+b+3))
        for alpha, beta in ((0.3, 0.6), (1.4, -0.2), (-0.4, 2.0)):
            c = 1.0 / complete_beta(alpha + 1.0, beta + 1.0)
            lm = population_lmoments(MarginalParams(c, alpha, beta))
            s = alpha + beta
            assert math.isclose(lm.l1, (beta + 1.0) / (s + 2.0), rel_tol=1e-12)
            assert math.isclose(
                lm.l2,
                (alpha + 1.0) * (beta + 1.0) / ((s + 2.0) * (s + 3.0)),
                rel_tol=1e-12)

    def test_existence_region(self):
        with pytest.raises(DivergentMomentError):
            population_lmoments(MarginalParams(1.0, -1.0, 0.0))
        with pytest.raises(DivergentMomentError):
            population_lmoments(MarginalParams(1.0, 0.0, -2.0))
        with pytest.raises(DivergentMomentError):
            population_lmoments_quadrature(MarginalParams(1.0, -1.5, -1.5))

    def test_gamma_formulas_vs_quadrature(self):
        for alpha in (-0.85, -0.3, 0.5, 1.7, 2.9):
            for beta in (-1.8, -1.0, -0.4, 0.9, 2.5):
                for c in (0.5, 10.0):
                    p = MarginalParams(c, alpha, beta)
                    g = population_lmoments(p)
                    q = population_lmoments_quadrature(p)
                    scale = g.l2
                    for name in ("l1", "l2", "l3", "l4"):
                        gv, qv = getattr(g, name), getattr(q, name)
                        err = abs(gv - qv) / max(abs(gv), scale)
                        assert err <= 1e-8, (alpha, beta, c, name, err)

    def test_gamma_formulas_vs_mpmath(self):
        # l1, l2, l3 as the gamma ratios of the formulas, in 40 digits
        G = mpmath.gamma
        with mpmath.workdps(40):
            for alpha in (-0.9, -0.3, 0.5, 3.0, 20.0, 50.0):
                for beta in (-1.9, -1.0, 0.3, 2.0, 30.0, 50.0):
                    g = population_lmoments(MarginalParams(1.7, alpha, beta))
                    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
                    refs = (G(a + 1) * G(b + 2) / G(a + b + 3),
                            G(a + 2) * G(b + 2) / G(a + b + 4),
                            (a - b) * G(a + 2) * G(b + 2) / G(a + b + 5))
                    for name, ref in zip(("l1", "l2", "l3"), refs):
                        assert math.isclose(getattr(g, name), float(1.7 * ref),
                                            rel_tol=2e-13), (alpha, beta, name)

    def test_tau4_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            alpha = float(rng.uniform(-0.95, 3.0))
            beta = float(rng.uniform(-1.9, 3.0))
            lm = population_lmoments(MarginalParams(1.0, alpha, beta))
            assert lm.tau4 >= (5.0 * lm.tau3 ** 2 - 1.0) / 4.0 - 1e-12
            assert lm.tau4 < 1.0

    def test_tau2_below_one(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            alpha = float(rng.uniform(-0.95, 3.0))
            beta = float(rng.uniform(-1.9, 3.0))
            lm = population_lmoments(MarginalParams(2.0, alpha, beta))
            assert lm.tau2 < 1.0


class TestSample:
    def test_matches_combinatorial_oracle(self):
        rng = np.random.default_rng(3)
        datasets = [
            BUILTIN_DATASETS["cable"].x1,
            BUILTIN_DATASETS["cable"].x2,
            tuple(rng.gamma(2.0, 1.5, size=8)),
            tuple(rng.uniform(0, 10, size=11)),
        ]
        for data in datasets:
            lm = sample_lmoments(data)
            ref = combinatorial_lmoments(data)
            for got, want in zip((lm.l1, lm.l2, lm.l3, lm.l4), ref):
                assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)

    def test_builtin_means(self):
        assert math.isclose(sample_lmoments(BUILTIN_DATASETS["cable"].x1).l1,
                            17.6222222222, rel_tol=1e-9)
        assert math.isclose(
            sample_lmoments(BUILTIN_DATASETS["components"].x1).l1, 2.7975,
            rel_tol=1e-12)

    def test_shift_scale_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.exponential(3.0, size=25)
        base = sample_lmoments(x)
        moved = sample_lmoments(4.0 * x + 11.0)
        assert math.isclose(moved.l1, 4.0 * base.l1 + 11.0, rel_tol=1e-12)
        for name in ("l2", "l3", "l4"):
            assert math.isclose(getattr(moved, name), 4.0 * getattr(base, name),
                                rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(moved.tau3, base.tau3, rel_tol=1e-10)
        assert math.isclose(moved.tau4, base.tau4, rel_tol=1e-10)

    def test_degenerate(self):
        lm = sample_lmoments([5.0, 5.0, 5.0, 5.0])
        assert lm.l1 == 5.0
        assert lm.l2 == 0.0
        assert math.isnan(lm.tau3)

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            sample_lmoments([1.0, 2.0], r_max=4)
        with pytest.raises(InsufficientDataError):
            sample_lmoments([1.0, math.inf, 2.0, 3.0])

    @pytest.mark.parametrize("r_max", [0, 5, -1])
    def test_r_max_outside_one_to_four(self, r_max):
        with pytest.raises(InsufficientDataError, match=f"r_max must be in 1..4, got {r_max}"):
            sample_lmoments([1.0, 2.0, 3.0, 4.0, 5.0], r_max=r_max)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sums_are_refused(self):
        # finite values whose sums pass 1.8e308: l1 would be inf and l4 NaN
        with pytest.raises(DomainError, match="overflow"):
            sample_lmoments([1e300, 1e305, 5e307, 1.7e308, 3e306])
        lm = sample_lmoments([2e300, 3e304, 1e305, 4e305, 8e305])
        assert all(math.isfinite(v) for v in (lm.l1, lm.l2, lm.l3, lm.l4))

    def test_r_max_truncation(self):
        lm = sample_lmoments([1.0, 2.0, 4.0], r_max=2)
        assert not math.isnan(lm.l2)
        assert math.isnan(lm.l3)
