import math

import numpy as np
import pytest

from bivqf.data import BUILTIN_DATASETS, PairedSample
from bivqf.errors import DomainError
from bivqf.fit import MrqParams
from bivqf.gof import (
    kolmogorov_pvalue,
    ks_conditional,
    ks_marginal,
    mrq_ks_conditional,
    mrq_ks_marginal,
    qq_data,
)
from bivqf.model import BivariateParams, MarginalParams, big_q1, f1
from bivqf.sampling import SamplerSpec, draw

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


class TestPValue:
    def test_boundaries(self):
        assert kolmogorov_pvalue(0.0, 10) == 1.0
        assert 0.0 <= kolmogorov_pvalue(0.99, 10) <= 1e-6

    def test_monotone_in_d(self):
        ds = np.linspace(0.01, 0.6, 25)
        ps = [kolmogorov_pvalue(float(d), 20) for d in ds]
        assert all(b < a for a, b in zip(ps, ps[1:]))


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
