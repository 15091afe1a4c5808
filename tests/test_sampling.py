import math

import mpmath
import numpy as np
import pytest

from bivqf import sampling
from bivqf.catalog import make_case
from bivqf.data import PairedSample
from bivqf.errors import ConvergenceError, DomainError
from bivqf.model import (BivariateParams, MarginalParams, NumericConfig, _halley_passes,
                         _newton_bisect, big_q1, f1, joint_survival, q1)
from bivqf.sampling import SamplerSpec, _exact_conditional, draw

EXP_BP = BivariateParams(MarginalParams(1.0, 0.0, -1.0),
                         MarginalParams(1.0, 0.0, -1.0), 0.0)


def two_sample_ks(a, b):
    a = np.sort(a)
    b = np.sort(b)
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestDeterminism:
    def test_bitwise_reproducible(self):
        bp = make_case("power", a1=2.0, b1=1.0, a2=0.5, b2=1.0, theta=1.0).params
        for method in ("transform", "exact"):
            s1 = draw(bp, SamplerSpec(seed=123, n=500, method=method))
            s2 = draw(bp, SamplerSpec(seed=123, n=500, method=method))
            assert s1.rows == s2.rows

    def test_seed_changes_output(self):
        s1 = draw(EXP_BP, SamplerSpec(seed=1, n=100))
        s2 = draw(EXP_BP, SamplerSpec(seed=2, n=100))
        assert s1.rows != s2.rows

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SamplerSpec(seed=1, n=0)
        with pytest.raises(DomainError):
            SamplerSpec(seed=1, n=10, method="fancy")
        for seed in (-1, 2 ** 128):
            with pytest.raises(DomainError, match="seed"):
                SamplerSpec(seed=seed, n=10)
        SamplerSpec(seed=2 ** 128 - 1, n=10)


class TestMarginals:
    def test_independence_correlation(self):
        bp = EXP_BP
        for method in ("transform", "exact"):
            s = draw(bp, SamplerSpec(seed=7, n=100_000, method=method))
            r = np.corrcoef(np.asarray(s.x1), np.asarray(s.x2))[0, 1]
            assert abs(r) <= 0.01, method

    def test_exponential_marginal_ks(self):
        # one-sample K-S against 1 - exp(-x) at the 1% level
        bp = BivariateParams(MarginalParams(2.0, 0.0, -1.0),
                             MarginalParams(1.0, 0.0, -1.0), 0.5)
        for method in ("transform", "exact"):
            s = draw(bp, SamplerSpec(seed=11, n=100_000, method=method))
            x = np.sort(np.asarray(s.x1))
            u = -np.expm1(-x / 2.0)
            n = x.size
            i = np.arange(1, n + 1)
            d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
            assert d <= 1.6276 / math.sqrt(n), method

    def test_x1_marginal_same_under_both_methods(self):
        bp = make_case("power", a1=2.0, b1=1.0, a2=0.5, b2=1.0, theta=1.0).params
        st = draw(bp, SamplerSpec(seed=5, n=100_000, method="transform"))
        se = draw(bp, SamplerSpec(seed=5, n=100_000, method="exact"))
        assert np.array_equal(st.x1, se.x1)  # same seed stream, same quantile map

    def test_transform_and_exact_x2_differ(self):
        # the two constructions define different laws for theta > 0; a
        # two-sample K-S at n = 1e5 must separate them decisively
        bp = make_case("power", a1=1.0, b1=1.0, a2=1.0, b2=1.0, theta=1.0).params
        st = draw(bp, SamplerSpec(seed=31, n=100_000, method="transform"))
        se = draw(bp, SamplerSpec(seed=32, n=100_000, method="exact"))
        d = two_sample_ks(np.asarray(st.x2), np.asarray(se.x2))
        crit = 1.628 * math.sqrt(2.0 / 100_000)
        assert d > 3.0 * crit


def exact_mpmath(m2: MarginalParams, k: float, v: float) -> float:
    """First crossing of S(w) = v for one draw: a scan of the sampler's 65
    cells, the last ending at 1 - 1e-12, then mpmath's root of S in the
    cell that first crosses, at 30 digits.

    Returns Q2 at the root.
    """
    def surv(w: float) -> float:
        return (1.0 - w) - k * big_q1(m2, w) / q1(m2, w)

    lo = 0.0
    for j in range(1, 65):
        hi = j / 65.0
        if surv(hi) <= v:
            break
        lo = hi
    else:
        hi = 1.0 - 1e-12
        if surv(hi) > v:
            raise ConvergenceError("conditional survival failed to cross the draw level")
    with mpmath.workdps(30):
        a, b = mpmath.mpf(m2.alpha) + 1, mpmath.mpf(m2.beta) + 1

        def big_q(w):
            return m2.c * mpmath.betainc(a, b, 0, w)

        def s_minus_v(w):  # Q2/q2 -> 0 as w -> 0
            ratio = big_q(w) / (m2.c * w ** m2.alpha * (1 - w) ** m2.beta) if w else 0
            return (1 - w) - k * ratio - v

        w = mpmath.findroot(s_minus_v, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        return float(big_q(w))


PUBLISHED = {
    "cable": BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                             MarginalParams(29.2295, -0.3406, -0.3531), 0.6821),
    "components": BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                                  MarginalParams(5.9257, 0.3555, -0.6695), 0.5492),
}


def assert_matches_mpmath(bp, u1, v, x2):
    for a, b, x in zip(u1, v, x2):
        g = 1.0 + bp.theta * a
        ref = g * exact_mpmath(bp.m2, (1.0 - a) * bp.theta / g, b)
        assert math.isclose(x, ref, rel_tol=1e-13), (a, b, (x - ref) / ref)


class TestExactSampler:
    @pytest.mark.parametrize("bp", [
        PUBLISHED["cable"],
        PUBLISHED["components"],
        BivariateParams(MarginalParams(2.0, 0.0, -1.0),
                        MarginalParams(1.0, 0.0, -1.0), 0.5),
    ], ids=["cable", "components", "exponential"])
    def test_matches_mpmath_roots(self, bp):
        n = 300
        s = draw(bp, SamplerSpec(seed=23, n=n, method="exact"))
        rng = np.random.Generator(np.random.Philox(key=23))  # the sampler's stream
        u1, v = rng.random(n), rng.random(n)
        assert_matches_mpmath(bp, u1, v, s.x2)

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_tail_draws_match_mpmath(self, name):
        # 1 - v log-uniform in [1e-8, 1e-1]: w is small there, and the
        # residual v - (1 - w) + k Q2/q2 lost up to 7e-9 of x2 to cancellation
        bp = PUBLISHED[name]
        rng = np.random.default_rng(41)
        u1, v = rng.random(60), 1.0 - 10.0 ** rng.uniform(-8.0, -1.0, 60)
        assert_matches_mpmath(bp, u1, v, _exact_conditional(bp, u1, v, NumericConfig()))

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_one_pass_draws_near_both_ends(self, name, monkeypatch):
        # draws that settle in the one Halley pass, without _newton_bisect:
        # near w = 0 (v -> 1) in the first cell, and near w = 1 in the last
        # cells where k -> 0 (u1 -> 1) makes S nearly 1 - w
        def no_newton(*args):
            raise AssertionError("a draw left the one pass")

        monkeypatch.setattr(sampling, "_newton_bisect", no_newton)
        bp = PUBLISHED[name]
        rng = np.random.default_rng(43)
        for u1, v in ((rng.random(40), 1.0 - 10.0 ** rng.uniform(-8.0, -3.0, 40)),
                      (1.0 - 10.0 ** rng.uniform(-9.0, -6.0, 40), rng.uniform(0.016, 0.05, 40))):
            x2 = _exact_conditional(bp, u1, v, NumericConfig())
            w = f1(bp.m2, x2 / (1.0 + bp.theta * u1))
            assert np.all(w < 1e-3) or np.all(w > 0.95), w
            assert_matches_mpmath(bp, u1, v, x2)

    @pytest.mark.parametrize("bp", [
        PUBLISHED["components"],
        BivariateParams(MarginalParams(1.0, 0.3, 0.4), MarginalParams(1.0, 0.5, -1.5), 0.8),
    ], ids=["components", "corner"])
    def test_last_cell_draws_match_mpmath(self, bp):
        # v below 1/65 and u1 near 1 (k small) leave S(64/65) > v: only the
        # last scan cell, from 64/65 to 1 - 1e-12, catches these draws.  The
        # three pinned draws of the corner margin (beta2 = -1.5) end 6e-13 to
        # 7e-13 off when started from the cell's midpoint, not its Hermite inverse
        rng = np.random.default_rng(47)
        u1 = np.append(1.0 - 10.0 ** rng.uniform(-3.0, 0.0, 200),
                       [0.9347175378932754, 0.9908380753072197, 0.9988775686925233])
        v = np.append(rng.uniform(0.0, 1.0 / 65.0, 200),
                      [2.585267966783028e-05, 2.5118625335976207e-05, 3.808718339375521e-05])
        x2 = _exact_conditional(bp, u1, v, NumericConfig())
        last = np.flatnonzero(f1(bp.m2, x2 / (1.0 + bp.theta * u1)) > 64.0 / 65.0)
        assert last.size >= 100 and np.all(last[-3:] == [200, 201, 202])
        last = np.append(last[:40], last[-3:])
        assert_matches_mpmath(bp, u1[last], v[last], x2[last])

    def test_newton_draws_continue_from_their_last_evaluation(self, monkeypatch):
        # the draws the Halley passes leave go to one _newton_bisect call on
        # their bracket; no separate Q2 pass follows it.  Here the passes
        # report every draw unsettled at its start, so all of them take that path
        calls = []

        def spy(h, lo, hi, x, cfg):
            calls.append(lo.size)
            assert np.all((lo <= x) & (x <= hi))
            return _newton_bisect(h, lo, hi, x, cfg)

        def unsettled(step, w, lo, hi):
            return np.arange(w.size)

        monkeypatch.setattr(sampling, "_newton_bisect", spy)
        monkeypatch.setattr(sampling, "_halley_passes", unsettled)
        bp = PUBLISHED["components"]
        s = draw(bp, SamplerSpec(seed=23, n=300, method="exact"))
        assert calls == [300]
        rng = np.random.Generator(np.random.Philox(key=23))
        u1, v = rng.random(300), rng.random(300)
        assert_matches_mpmath(bp, u1, v, s.x2)

    def test_newton_after_the_passes_ends_at_a_root(self, monkeypatch):
        # the real passes run, then every draw goes on to _newton_bisect on
        # its narrowed bracket.  The Halley point of u1 = 0.61986,
        # v = 0.027969 is a bracket end next to the root: the small Newton
        # step back onto that end ends its solve, where a bisection midpoint
        # would leave x2 2e-13 off
        def unsettled(step, w, lo, hi):
            _halley_passes(step, w, lo, hi)
            return np.arange(w.size)

        monkeypatch.setattr(sampling, "_halley_passes", unsettled)
        bp = PUBLISHED["components"]
        s = draw(bp, SamplerSpec(seed=23, n=300, method="exact"))
        rng = np.random.Generator(np.random.Philox(key=23))
        u1, v = rng.random(300), rng.random(300)
        assert_matches_mpmath(bp, u1, v, s.x2)

    @pytest.mark.parametrize("name", sorted(PUBLISHED))
    def test_second_pass_settles_the_top_cells(self, name, monkeypatch):
        # the Hermite start misses the one-pass bound in the top cells, where
        # Q2/q2 is far from cubic; a second Halley pass settles nearly all
        calls = []

        def spy(h, lo, hi, x, cfg):
            calls.append(lo.size)
            return _newton_bisect(h, lo, hi, x, cfg)

        monkeypatch.setattr(sampling, "_newton_bisect", spy)
        bp = PUBLISHED[name]
        for seed in (3, 7, 11):
            s = draw(bp, SamplerSpec(seed=seed, n=1000, method="exact"))
            rng = np.random.Generator(np.random.Philox(key=seed))
            u1, v = rng.random(1000), rng.random(1000)
            # the 20 draws with the highest conditional level, in the top cells (54/65 = 0.83)
            w = f1(bp.m2, s.x2 / (1.0 + bp.theta * u1))
            top = np.argsort(w)[-20:]
            assert np.all(w[top] > 0.83)
            assert_matches_mpmath(bp, u1[top], v[top], s.x2[top])
        assert sum(calls) < 0.01 * 3000, calls


    def test_joint_survival_grid(self):
        # power case with a small second shape: the clamped region is
        # negligible and the empirical joint survival must match the
        # product form within binomial noise
        entry = make_case("power", a1=2.0, b1=1.0, a2=0.5, b2=1.0, theta=1.0)
        bp = entry.params
        n = 100_000
        s = draw(bp, SamplerSpec(seed=17, n=n, method="exact"))
        x1 = np.asarray(s.x1)
        x2 = np.asarray(s.x2)
        for u1l in (0.2, 0.4, 0.6, 0.8):
            for u2l in (0.2, 0.4, 0.6, 0.8):
                g1 = big_q1(bp.m1, u1l)
                g2 = big_q1(bp.m2, u2l)
                model = joint_survival(bp, g1, g2)
                emp = float(np.mean((x1 > g1) & (x2 > g2)))
                se = math.sqrt(max(model * (1.0 - model), 1e-12) / n)
                assert abs(emp - model) <= 3.0 * se, (u1l, u2l, emp, model)

    def test_clamped_region_bias_is_real(self):
        # with a large second shape the product form loses mass near the
        # conditional support edge; the sampler (a true law) must sit
        # visibly above it there, documenting the construction's defect
        bp = make_case("power", a1=2.0, b1=1.0, a2=2.0, b2=1.0, theta=1.0).params
        n = 100_000
        s = draw(bp, SamplerSpec(seed=19, n=n, method="exact"))
        x1 = np.asarray(s.x1)
        x2 = np.asarray(s.x2)
        g1 = big_q1(bp.m1, 0.2)
        g2 = big_q1(bp.m2, 0.8)
        model = joint_survival(bp, g1, g2)
        emp = float(np.mean((x1 > g1) & (x2 > g2)))
        se = math.sqrt(model * (1.0 - model) / n)
        assert emp - model > 3.0 * se

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_generic_solver_matches_closed_power_path(self):
        # beta2 = 0 (the power margins) takes the same scan and passes as every
        # margin; the oracle is S's closed inverse there: R = w/(alpha2+1), so S is
        # linear in w, w = (1 - v)/(1 + k/(alpha2+1)) and x2 = g Q2(w).  Both round
        # w to an ulp or so, and x2 ~ w^(alpha2+1) carries alpha2 + 1 times that.
        # From alpha2 = 80 on, Q2 and q2 underflow where w^(alpha2+1) does, and
        # the sampler forms R without them; an x2 below the normal range has
        # lost digits, and the bound there is absolute
        m1 = MarginalParams(1.0, 1.0, 0.0)
        for alpha2, theta, seed in ((-0.9, 0.7, 3), (-0.5, 2.0, 3), (0.0, 5.0, 3), (0.5, 0.9, 3),
                                    (3.0, 0.3, 3), (80.0, 0.5, 1), (500.0, 3.0, 3)):
            m2 = MarginalParams(2.0, alpha2, 0.0)
            s = draw(BivariateParams(m1, m2, theta), SamplerSpec(seed=seed, n=2000, method="exact"))
            rng = sampling._rng(seed)
            u1, v = rng.random(2000), rng.random(2000)
            g = 1.0 + theta * u1
            w = (1.0 - v) / (1.0 + (1.0 - u1) * theta / g / (alpha2 + 1.0))
            np.testing.assert_allclose(s.x2, g * big_q1(m2, w), rtol=(alpha2 + 2.0) * 5e-16,
                                       atol=np.finfo(float).tiny)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m2, theta", [
        (MarginalParams(1.0, 623.0148526331, 2.4043690536921387), 0.0043070381928096285),
        (MarginalParams(1.0, 200.0, 2.0), 3.0),
        (MarginalParams(0.5, 120.0, -0.5), 1.0),
    ], ids=["alpha2-623", "alpha2-200", "alpha2-120-beta2-neg"])
    def test_large_alpha2_where_q2_underflows(self, m2, theta):
        # Q2 and q2 are 0 at small w here, also at scan levels; R is
        # w/a 2F1(a, -beta2; a+1; w)/(1-w)^beta2 there (a = alpha2 + 1), and the
        # oracle is that ratio at 40 digits, scanned over the sampler's cells.
        # x2 ~ w^a carries a times the few ulps of w; a draw below the normal
        # range is checked to 1e-300
        bp = BivariateParams(MarginalParams(1.0, 0.5, 0.2), m2, theta)
        n = 40
        s = draw(bp, SamplerSpec(seed=5, n=n, method="exact"))
        rng = sampling._rng(5)
        u1, v = rng.random(n), rng.random(n)
        with mpmath.workdps(40):
            a, beta = mpmath.mpf(m2.alpha) + 1, mpmath.mpf(m2.beta)
            levels = [mpmath.mpf(j) / 65 for j in range(1, 65)] + [1 - mpmath.mpf(1e-12)]
            for x, b, c in zip(s.x2, u1, v):
                g = 1 + theta * b
                k = (1 - b) * theta / g

                def s_minus_v(w):
                    return (1 - w) - k * w / a * mpmath.hyp2f1(a, -beta, a + 1, w) / (1 - w) ** beta - c

                lo = 0
                for hi in levels:
                    if s_minus_v(hi) <= 0:
                        break
                    lo = hi
                w = mpmath.findroot(s_minus_v, (lo, hi), solver="anderson")
                ref = float(g * m2.c * mpmath.betainc(a, beta + 1, 0, w))
                assert math.isclose(x, ref, rel_tol=float(a) * 4e-15, abs_tol=1e-300), (b, c, x, ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_k_zero_against_an_infinite_ratio(self):
        # k = 0 where u1 = 1, or where theta (1 - u1) underflows (theta = 5e-324,
        # u1 = 0.6), and S = 1 - w; q2 underflows at the scan's last level
        # (beta2 = 30), and the scan, the Hermite slopes and the Halley steps
        # take k R = 0 there, not 0 * inf: the draw lands on w = 1 - v.  At
        # u1 = 0.2, k = 5e-324 and S is -inf at that level
        m1, m2 = MarginalParams(1.0, 0.5, 0.2), MarginalParams(1.0, 0.5, 30.0)
        for theta, u1 in ((2.0, 1.0), (5e-324, 0.6), (5e-324, 0.2)):
            bp = BivariateParams(m1, m2, theta)
            x2 = _exact_conditional(bp, np.array([u1]), np.array([0.001]), NumericConfig())
            assert math.isclose(x2[0], (1.0 + theta * u1) * big_q1(m2, 0.999), rel_tol=1e-13)

    def test_theta_zero_is_the_limit_of_small_theta(self):
        # k = 0 for every draw at theta = 0, and S = 1 - w: x2 = Q2(1 - v), the
        # draw that theta = 5e-324, whose k is 0 or 5e-324, reaches through the
        # scan and its passes
        m1, m2 = MarginalParams(9.0819, -0.4864, -0.9946), MarginalParams(29.2295, -0.3406, -0.3531)
        spec = SamplerSpec(seed=1, n=2000, method="exact")
        at_zero, tiny = (draw(BivariateParams(m1, m2, theta), spec).x2 for theta in (0.0, 5e-324))
        np.testing.assert_allclose(at_zero, tiny, rtol=1e-13, atol=0.0)

    def test_a_draw_no_cell_catches_is_a_convergence_error(self):
        # v = 0 where k R(1 - 1e-12) is below 1e-12 (beta2 = -1.5: R ~ 2 (1 - w)):
        # S stays positive up to the scan's last level, so no cell holds a crossing
        bp = BivariateParams(MarginalParams(1.0, 0.3, 0.4), MarginalParams(1.0, 0.5, -1.5), 0.8)
        with pytest.raises(ConvergenceError, match="failed to cross"):
            _exact_conditional(bp, np.array([0.5, 0.9]), np.array([0.5, 0.0]), NumericConfig())

    def test_an_infinite_draw_is_a_domain_error(self, monkeypatch):
        # Generator.random can return 0; v = 0 at theta = 0 draws Q2(1), which is
        # infinite for beta2 <= -1, and the sampler refuses it
        class Zeros:
            def random(self, n):
                return np.zeros(n)

        monkeypatch.setattr(sampling, "_rng", lambda seed: Zeros())
        bp = BivariateParams(MarginalParams(1.0, 0.3, 0.4), MarginalParams(2.0, 0.5, -1.0), 0.0)
        with pytest.raises(DomainError, match=r"draw 1 overflows float64: \(0\.0, inf\)"):
            draw(bp, SamplerSpec(seed=1, n=3, method="exact"))

    def test_exact_requires_nonnegative_support(self):
        bp = BivariateParams(MarginalParams(1.0, 0.0, 0.0),
                             MarginalParams(1.0, -1.5, -1.5), 0.5)
        with pytest.raises(DomainError):
            draw(bp, SamplerSpec(seed=1, n=10, method="exact"))


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        from bivqf.data import ingest

        s = draw(EXP_BP, SamplerSpec(seed=42, n=25))
        path = tmp_path / "sample.csv"
        path.write_text(s.to_csv(), encoding="utf-8")
        back = ingest(path)
        assert back.rows == s.rows

    def test_source_label(self):
        s = draw(EXP_BP, SamplerSpec(seed=42, n=5, method="exact"))
        assert s.source == "sampler:exact:seed=42"
        assert isinstance(s, PairedSample)
