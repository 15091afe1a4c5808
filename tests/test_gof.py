import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest

from bivqf import gof
from bivqf.data import BUILTIN_DATASETS, PairedSample
from bivqf.errors import DomainError
from bivqf.fit import MrqParams, fit_mrq
from bivqf.gof import (
    kolmogorov_pvalue,
    ks_conditional,
    ks_marginal,
    mrq_ks_conditional,
    mrq_ks_marginal,
    qq_data,
)
from bivqf.model import (
    DEFAULT_NUMERIC_CONFIG,
    BivariateParams,
    MarginalParams,
    NumericConfig,
    big_q1,
    f1,
    f1_flagged,
)
from bivqf.sampling import SamplerSpec, draw
from quad_oracles import ks_per_point_loop

CABLE = BUILTIN_DATASETS["cable"]
COMP = BUILTIN_DATASETS["components"]
BP_CABLE = BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                           MarginalParams(29.2295, -0.3406, -0.3531), 0.6821)
BP_COMP = BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                          MarginalParams(5.9257, 0.3555, -0.6695), 0.5492)
MRQ_PUB = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=-7.16)


class TestStatistic:
    def test_exact_construction(self):
        # data placed at the model quantiles of i/(n+1) gives D = 1/(n+1)
        unif = MarginalParams(1.0, 0.0, 0.0)
        for n in (4, 9, 25):
            data = [(i + 1.0) / (n + 1.0) for i in range(n)]
            g = ks_marginal(data, unif)
            assert math.isclose(g.d_stat, 1.0 / (n + 1.0), rel_tol=1e-12)

    def test_scale_invariance(self):
        data = np.asarray(CABLE.x1)
        g1 = ks_marginal(data, MarginalParams(9.0, -0.4, -0.9))
        g2 = ks_marginal(5.0 * data, MarginalParams(45.0, -0.4, -0.9))
        assert math.isclose(g1.d_stat, g2.d_stat, abs_tol=1e-12)
        assert math.isclose(g1.d_point, g2.d_point, abs_tol=1e-12)

    def test_clamp_counting(self):
        unif = MarginalParams(1.0, 0.0, 0.0)
        g = ks_marginal([0.2, 0.5, 1.7, 2.3], unif)
        assert g.n_clamped == 2
        assert g.d_stat <= 1.0


def kolmogorov_series(d: float, n: int) -> float:
    """2 sum (-1)^(k-1) exp(-2 k^2 y^2), y = sqrt(n) d, summed in 40 digits.

    The terms fall monotonically, so the partial sum stopped at a term
    below 1e-45 is within that term of the limit.
    """
    with mpmath.workdps(40):
        y2 = n * mpmath.mpf(d) ** 2
        s, k, term = mpmath.mpf(0), 1, mpmath.mpf(1)
        while term >= 1e-45:
            term = mpmath.exp(-2 * k * k * y2)
            s += term if k % 2 else -term
            k += 1
        return float(2 * s)


class TestPValue:
    def test_boundaries(self):
        assert kolmogorov_pvalue(0.0, 10) == 1.0
        assert kolmogorov_pvalue(-0.1, 10) == 1.0
        assert 0.0 <= kolmogorov_pvalue(0.99, 10) <= 1e-6

    @pytest.mark.parametrize("d, n", [
        # sqrt(n) d < 0.05, where p rounds to 1; 0.0005 is d = 1/(2n) at n = 1000
        (0.0003, 5), (0.0005, 1000),
        (0.05, 20), (0.2, 20), (0.1, 1000),
        (0.3, 1000),  # the far tail, about 1.34e-78
    ])
    def test_against_series(self, d, n):
        assert math.isclose(kolmogorov_pvalue(d, n), kolmogorov_series(d, n),
                            rel_tol=1e-13)

    def test_monotone_in_d(self):
        # strictly decreasing wherever the true value is below 1; where it
        # rounds to 1 (the first two points) the p-value is exactly 1
        ds = np.linspace(0.01, 0.6, 25)
        ps = [kolmogorov_pvalue(float(d), 20) for d in ds]
        refs = [kolmogorov_series(float(d), 20) for d in ds]
        below = [p for p, r in zip(ps, refs) if r < 1.0]
        assert [p for p, r in zip(ps, refs) if r == 1.0] == [1.0] * (len(ps) - len(below))
        assert ps[len(ps) - len(below):] == below
        assert all(b < a for a, b in zip(below, below[1:]))


class TestReferenceValues:
    def test_cable_marginal(self):
        g = ks_marginal(CABLE.x1, BP_CABLE.m1)
        assert math.isclose(g.d_point, 0.09770659344229049, rel_tol=1e-9)
        assert math.isclose(g.d_stat, 0.13894257868477777, rel_tol=1e-9)

    def test_cable_pit_values(self):
        g = ks_marginal(CABLE.x1, BP_CABLE.m1)
        u = g.pit_values
        assert u.shape == (CABLE.n,) and g.n == CABLE.n
        assert np.all(np.diff(u) >= 0.0)
        assert np.all((u >= 0.0) & (u <= 1.0))
        np.testing.assert_array_equal(u, np.sort(f1(BP_CABLE.m1, CABLE.x1)))
        with pytest.raises(ValueError):
            u[0] = 0.5

    def test_cable_per_point_conditional(self):
        per = ks_conditional(CABLE, BP_CABLE, mode="per-point")
        assert per[0].cond_x1 == min(CABLE.x1)
        assert math.isclose(per[0].d_point, 0.15534703030610708, rel_tol=1e-9)
        assert len(per) == CABLE.n

    def test_components_marginal(self):
        g = ks_marginal(COMP.x1, BP_COMP.m1)
        assert math.isclose(g.d_point, 0.11056933835534255, rel_tol=1e-9)

    def test_components_conditional_modes(self):
        pooled = ks_conditional(COMP, BP_COMP, mode="pooled")
        assert math.isclose(pooled.d_point, 0.14382228695509786, rel_tol=1e-9)
        per = ks_conditional(COMP, BP_COMP, mode="per-point")
        assert math.isclose(per[0].d_point, 0.1326272287586815, rel_tol=1e-9)

    def test_competitor_values(self):
        g = mrq_ks_marginal(COMP.x1, MRQ_PUB)
        assert math.isclose(g.d_point, 0.12014865254050142, rel_tol=1e-8)
        pooled = mrq_ks_conditional(COMP, MRQ_PUB, mode="pooled")
        assert math.isclose(pooled.d_point, 0.32903958275381473, rel_tol=1e-8)

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            ks_conditional(COMP, BP_COMP, mode="nope")


def family_cdfs(bp):
    """The family's (pit, clamped) CDFs, as ks_conditional builds them."""
    return (lambda x1: f1_flagged(bp.m1, x1),
            lambda u1, x2: f1_flagged(bp.m2, x2 / (1.0 + bp.theta * u1)))


def assert_rows_equal(rows, ref):
    assert len(rows) == len(ref)
    for g, r in zip(rows, ref):
        np.testing.assert_array_equal(g.pit_values, r.pit_values)
        for name in ("d_stat", "p_value", "n", "method", "d_plus", "d_minus",
                     "d_point", "n_clamped", "cond_x1"):
            assert getattr(g, name) == getattr(r, name), name


class TestPerPointBlocks:
    """Per-point mode, one cdf2 call per row block, against the per-level loop."""

    @pytest.mark.parametrize("s, bp", [(CABLE, BP_CABLE), (COMP, BP_COMP)])
    def test_published_fits_equal_the_loop(self, s, bp):
        assert_rows_equal(ks_conditional(s, bp, mode="per-point"),
                          ks_per_point_loop(s, *family_cdfs(bp)))

    # a corner solve stops each element on its own, so a row computed in a
    # block equals the row computed alone
    @pytest.mark.parametrize("alpha, beta", [
        (-0.5, -1.4), (-1.2, -0.3), (-0.9, -1.8), (0.3, -1.2), (-1.5, -1.5),
        (-0.99, -1.0), (-1.0, 0.5), (-2.0, 0.0)])
    def test_corner_sweep_within_an_ulp_of_the_loop(self, alpha, beta):
        bp = BivariateParams(MarginalParams(1.0, 0.3, 0.6),
                             MarginalParams(1.0, alpha, beta), 0.7)
        s = draw(bp, SamplerSpec(seed=11, n=300, method="transform"))
        assert_rows_equal(ks_conditional(s, bp, mode="per-point"),
                          ks_per_point_loop(s, *family_cdfs(bp)))

    @pytest.mark.parametrize("fitted", [False, True])
    def test_competitor_within_an_ulp_of_the_loop(self, fitted):
        p = fit_mrq(COMP).params if fitted else MRQ_PUB
        rows = mrq_ks_conditional(COMP, p, mode="per-point")
        assert all(g.n_clamped == 0 for g in rows)
        assert_rows_equal(rows, ks_per_point_loop(COMP, *gof._mrq_cdfs(p, DEFAULT_NUMERIC_CONFIG)))

    def test_two_blocks(self):
        n = 600
        s = draw(BP_CABLE, SamplerSpec(seed=1, n=n, method="transform"))
        cdf1, cdf2 = family_cdfs(BP_CABLE)
        sizes = []

        def spy(u1, x2):
            pit, clamped = cdf2(u1, x2)
            sizes.append(pit.size)
            return pit, clamped

        rows = gof._ks_conditional(s, cdf1, spy, "per-point")
        assert len(sizes) == math.ceil(n / max(1, 2 ** 18 // n)) == 2
        assert max(sizes) <= 2 ** 18 and sum(sizes) == n * n
        assert_rows_equal(rows, ks_per_point_loop(s, cdf1, cdf2))


class TestKeptPit:
    """ks_marginal and ks_conditional invert a margin's sample column once."""

    @staticmethod
    def counting_rows(monkeypatch, *margins):
        calls = []
        for i, m in enumerate(margins):
            row = m._plan[2]
            monkeypatch.setattr(row, "f", lambda *a, i=i, f=row.f: calls.append(i) or f(*a))
        return calls

    def test_d1_then_d21_inverts_x1_once(self, monkeypatch):
        bp = BivariateParams(*(dataclasses.replace(m) for m in (BP_COMP.m1, BP_COMP.m2)),
                             BP_COMP.theta)
        calls = self.counting_rows(monkeypatch, bp.m1, bp.m2)
        d1 = ks_marginal(COMP.x1, bp.m1)
        d21 = ks_conditional(COMP, bp)
        assert calls == [0, 1]
        # the results are those of fresh margins, which keep nothing yet
        assert_rows_equal([d1, d21], [ks_marginal(COMP.x1, dataclasses.replace(BP_COMP.m1)),
                                      ks_conditional(COMP, dataclasses.replace(BP_COMP))])
        ks_conditional(COMP, bp, mode="per-point")
        assert calls == [0, 1, 1]

    def test_a_new_column_shape_or_cfg_inverts_again(self, monkeypatch):
        m = dataclasses.replace(BP_CABLE.m1)
        calls = self.counting_rows(monkeypatch, m)
        x = np.asarray(CABLE.x1)
        ks_marginal(x, m)
        ks_marginal(x.copy(), m)  # equal bytes, another array: kept
        assert len(calls) == 1
        for data, cfg in ((x[:-1], DEFAULT_NUMERIC_CONFIG),
                          (x[:-1].reshape(1, -1), DEFAULT_NUMERIC_CONFIG),
                          (np.nextafter(x, np.inf), DEFAULT_NUMERIC_CONFIG),
                          (x, NumericConfig(root_tol=1e-13))):
            before = len(calls)
            ks_marginal(data, m, cfg)
            assert len(calls) == before + 1

    def test_kept_arrays_are_read_only_and_not_part_of_the_margin(self):
        m = dataclasses.replace(BP_CABLE.m1)
        ks_marginal(CABLE.x1, m)
        pit, clamped = gof._kept_pit(m, CABLE.x1, DEFAULT_NUMERIC_CONFIG)
        assert not (pit.flags.writeable or clamped.flags.writeable)
        assert "_gof_pit" in vars(m)
        assert m == BP_CABLE.m1 and repr(m) == repr(BP_CABLE.m1)
        assert "_gof_pit" not in vars(dataclasses.replace(m))
        back = pickle.loads(pickle.dumps(m))
        assert back == m and "_gof_pit" not in vars(back)
        assert pickle.dumps(m) == pickle.dumps(MarginalParams(m.c, m.alpha, m.beta))


class TestPitRoundTrip:
    def test_transform_sampler_pit_is_uniform(self):
        # data generated by the quantile transform makes the conditional
        # PIT exactly uniform; the pooled K-S should reject at the 1%
        # level in at most a handful of 100 seeded replications
        bp = BivariateParams(MarginalParams(1.0, 0.3, 0.6),
                             MarginalParams(2.0, -0.34, -0.35), 0.8)
        passes = 0
        for seed in range(100):
            s = draw(bp, SamplerSpec(seed=seed, n=200, method="transform"))
            g = ks_conditional(s, bp, mode="pooled")
            passes += g.p_value >= 0.01
        assert passes >= 95


class TestQQ:
    def test_perfect_model(self):
        unif = MarginalParams(1.0, 0.0, 0.0)
        n = 9
        data = [(i + 1.0) / (n + 1.0) for i in range(n)]
        qq = qq_data(data, lambda p: big_q1(unif, p))
        for pos, emp, model in qq.rows:
            assert math.isclose(emp, model, abs_tol=1e-14)

    def test_order_independence(self):
        data = list(CABLE.x1)
        qq1 = qq_data(data, lambda p: big_q1(BP_CABLE.m1, p))
        qq2 = qq_data(list(reversed(data)), lambda p: big_q1(BP_CABLE.m1, p))
        assert qq1.rows == qq2.rows

    def test_positions_strictly_increasing(self):
        qq = qq_data(CABLE.x1, lambda p: big_q1(BP_CABLE.m1, p))
        pos = [r[0] for r in qq.rows]
        assert all(0.0 < a < b < 1.0 for a, b in zip(pos, pos[1:]))

    @pytest.mark.parametrize("data, m", [(CABLE.x1, BP_CABLE.m1), (CABLE.x2, BP_CABLE.m2),
                                         (BUILTIN_DATASETS["components"].x1,
                                          MarginalParams(13.0499, 0.8856, -0.1844))])
    def test_one_array_call_matches_pointwise(self, data, m):
        calls = []

        def quantile(p):
            calls.append(p)
            return big_q1(m, p)

        qq = qq_data(data, quantile)
        assert len(calls) == 1 and calls[0].shape == (len(data),)
        assert [r[2] for r in qq.rows] == [big_q1(m, float(p)) for p in calls[0]]

    def test_tsv_round_trip(self):
        qq = qq_data(CABLE.x1, lambda p: big_q1(BP_CABLE.m1, p))
        text = qq.to_tsv()
        lines = text.strip().split("\n")
        assert lines[0] == "position\tempirical\tmodel"
        parsed = [tuple(float(v) for v in line.split("\t")) for line in lines[1:]]
        assert parsed == list(qq.rows)
