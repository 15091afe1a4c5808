"""Bivariate L-comoments: population values by quadrature, sample estimators.

Directed L-comoments of the family, defined through the product-form
joint survival parametrized over the unit square:

    L_k(1,2) = g_k int int (1-u1) (u2 - u21) W_k(u2) q1(u1) du1 du2
    L_k(2,1) = g_k int int (1-u1) (u2 - u21) W_k(u1) q2(u2) du1 du2

with W_2 = 1 (g_2 = 2), W_3 = 12t - 6, W_4 = 60t^2 - 60t + 12, and u21
the conditional probability level from the model.  L-correlations divide
by the leading variable's second L-moment.

The (2,1) direction reduces exactly to a one-dimensional integral: the
inner u2-integral against q2 equals the difference between conditional
and marginal partial means,

    J(u1) = g c2 B_w(alpha2+1, beta2+2) - l1_2,

with g = 1 + theta*u1 and Q2(w) = Q2(1)/g, the partial mean that
E(X1 X2) shares (model._partial_mean2); for beta2 <= -1 the partial mean
is g l1_2, J = theta*u1*l1_2 is exactly linear in u1, and the (2,1)
comoments are (theta l1_2/3, 0, 0).  The integrals over u1 run on
model._u1_rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_sh_legendre, hyp2f1

from .data import PairedSample
from .errors import DivergentMomentError, InsufficientDataError
from .lmom import population_lmoments, sample_lmoments
from .model import (
    BivariateParams,
    DEFAULT_NUMERIC_CONFIG,
    NumericConfig,
    _partial_mean2,
    _u1_rule,
    _u2_rule,
    u21,
)

__all__ = ["LComomentSet", "PowerLcovComparison", "population_lcomoments",
           "power_case_lcov_closed_form", "power_case_lcov_hypergeometric",
           "sample_lcomoments"]

# g_k of the k = 2, 3, 4 comoments and their weight polynomials W_k
_GAMMA = np.array([2.0, 1.0, 1.0])


def _weights(t: np.ndarray) -> np.ndarray:
    return np.stack([np.ones_like(t), 12.0 * t - 6.0, (60.0 * t - 60.0) * t + 12.0])


@dataclass(frozen=True)
class LComomentSet:
    """Directed L-comoments, L-correlations, and normalized higher ratios.

    rho12 = L2(1,2) / lambda2(X1); ratio3_12 = L3(1,2) / lambda2(X1), and
    mirrored for the (2,1) direction.
    """

    l2_12: float
    l3_12: float
    l4_12: float
    l2_21: float
    l3_21: float
    l4_21: float
    rho12: float
    rho21: float
    ratio3_12: float
    ratio4_12: float
    ratio3_21: float
    ratio4_21: float


def _build_set(l12: tuple[float, float, float], l21: tuple[float, float, float],
               lam2_1: float, lam2_2: float) -> LComomentSet:
    return LComomentSet(
        l2_12=l12[0], l3_12=l12[1], l4_12=l12[2],
        l2_21=l21[0], l3_21=l21[1], l4_21=l21[2],
        rho12=l12[0] / lam2_1, rho21=l21[0] / lam2_2,
        ratio3_12=l12[1] / lam2_1, ratio4_12=l12[2] / lam2_1,
        ratio3_21=l21[1] / lam2_2, ratio4_21=l21[2] / lam2_2,
    )


def population_lcomoments(bp: BivariateParams,
                          cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG
                          ) -> LComomentSet:
    """Population L-comoments of the family by quadrature.

    Requires both marginals in the finite-mean region.  theta = 0 returns
    exact zeros.
    """
    m1, m2 = bp.m1, bp.m2
    for label, m in (("m1", m1), ("m2", m2)):
        if not m.in_lmoment_region():
            raise DivergentMomentError(
                f"L-comoments need alpha > -1, beta > -2 for {label}")
    th, lm2 = bp.theta, population_lmoments(m2)
    lam2_1 = population_lmoments(m1).l2
    if th == 0.0:
        z = (0.0, 0.0, 0.0)
        return _build_set(z, z, lam2_1, lm2.l2)

    # (1,2): an inner rule over u2 with as many nodes as the outer one, so
    # the outer n-against-2n test covers both, on the whole grid in one
    # u21 call.  Near u2 = 1 the integrand mixes powers of (1-u2) and
    # (1-u2)^(beta2+1), or for beta2 <= -1 has a (1-u2)^(1/(1+theta*u1))
    # kink; 1 - u2 = s^k makes them powers of s^2 or smoother.  k is at
    # most 2(1+theta), before _u2_rule's cap.
    k_smooth = 2.0 / min(max(m2.beta + 1.0, 1.0 / (1.0 + th)), 1.0)

    def inner_12(u1: np.ndarray) -> np.ndarray:
        s, w, k = _u2_rule(u1.size, k_smooth)
        t = 1.0 - s ** k
        return m1.c * ((_weights(t) * w) @ (t - u21(bp, u1[:, None], t, cfg)).T)

    l12 = _GAMMA * _u1_rule(inner_12, m1.alpha, m1.beta + 1.0, th, cfg)

    # (2,1): exact inner reduction to the partial-mean difference J(u1)
    if m2.beta <= -1.0:
        # J = theta*u1*l1_2 is linear, and W_3, W_4 are orthogonal to it; a
        # rule would leave noise of the size of l1_2 (unbounded at beta2 = -2)
        l21 = np.array([th * lm2.l1 / 3.0, 0.0, 0.0])
    else:
        l21 = _GAMMA * _u1_rule(
            lambda u: _weights(u) * (_partial_mean2(m2, 1.0 + th * u) - lm2.l1),
            0.0, 1.0, th, cfg)

    return _build_set(tuple(map(float, l12)), tuple(map(float, l21)), lam2_1, lm2.l2)


@dataclass(frozen=True)
class PowerLcovComparison:
    """Published closed-form value of the power-case L-covariance vs quadrature.

    The published hypergeometric expression does not reproduce the
    defining integral (wrong sign and a dropped scale on its second
    term); it is retained verbatim for cross-checking, with the
    discrepancy reported alongside.
    """

    formula_value: float
    quadrature_value: float
    discrepancy: float


def power_case_lcov_closed_form(bp: BivariateParams,
                                cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG
                                ) -> PowerLcovComparison:
    """Evaluate the published power-case L2(1,2) expression and compare.

    Both marginals must have beta = 0 (power case) and alpha > -1, where
    the L-comoments exist.  The published form is

        -c1 a1 2F1(1/a1, a2; 1 + 1/a1; -theta)
            - (2F1(1 + 1/a1, a2; 2 + 1/a1; -theta) + a1) / (1 + a1)

    with a_i = 1/(alpha_i + 1).
    """
    _require_power(bp)
    a1 = 1.0 / (bp.m1.alpha + 1.0)
    a2 = 1.0 / (bp.m2.alpha + 1.0)
    th = bp.theta
    fa = float(hyp2f1(1.0 / a1, a2, 1.0 + 1.0 / a1, -th))
    fb = float(hyp2f1(1.0 + 1.0 / a1, a2, 2.0 + 1.0 / a1, -th))
    formula = -bp.m1.c * a1 * fa - (fb + a1) / (1.0 + a1)
    quadrature = population_lcomoments(bp, cfg).l2_12
    return PowerLcovComparison(formula, quadrature, quadrature - formula)


def power_case_lcov_hypergeometric(bp: BivariateParams) -> float:
    """Corrected hypergeometric closed form of the power-case L2(1,2).

    Derived from the Euler integral representation:

        L2(1,2) = c1 a1 [ a1/(1+a1) - F_A + F_B/(1+a1) ]

    with F_A = 2F1(a2, 1/a1; 1 + 1/a1; -theta) and
    F_B = 2F1(a2, 1 + 1/a1; 2 + 1/a1; -theta).  Used as an independent
    oracle for the quadrature path.
    """
    _require_power(bp)
    a1 = 1.0 / (bp.m1.alpha + 1.0)
    a2 = 1.0 / (bp.m2.alpha + 1.0)
    th = bp.theta
    fa = float(hyp2f1(a2, 1.0 / a1, 1.0 + 1.0 / a1, -th))
    fb = float(hyp2f1(a2, 1.0 + 1.0 / a1, 2.0 + 1.0 / a1, -th))
    return bp.m1.c * a1 * (a1 / (1.0 + a1) - fa + fb / (1.0 + a1))


def _require_power(bp: BivariateParams) -> None:
    if bp.m1.beta != 0.0 or bp.m2.beta != 0.0:
        raise DivergentMomentError(
            "power-case closed form requires beta1 = beta2 = 0")
    if not (bp.m1.in_lmoment_region() and bp.m2.in_lmoment_region()):
        raise DivergentMomentError(
            "power-case closed form requires alpha1, alpha2 > -1")


# ---------------------------------------------------------------------------
# sample estimators


def _sample_directed(lead: np.ndarray, cond: np.ndarray) -> tuple[float, float, float]:
    """Plug-in L-comoments of `lead` toward `cond`.

    Ranks of the conditioning variable (average ranks on ties) are mapped
    to r/(n+1); the k-th comoment is the centered sample covariance of
    `lead` with the shifted Legendre polynomial of the mapped ranks.
    """
    n = lead.size
    # a group of tied values has the average of its first and last ranks,
    # exact in floating point; found on the sorted values (sorted queries)
    # and scattered back through one argsort, whose order among ties does
    # not matter, as tied values share their group's ranks
    order = cond.argsort()
    ordered = cond[order]
    first = ordered.searchsorted(ordered, "left")
    t = np.empty(n)
    t[order] = (first + ordered.searchsorted(ordered, "right") + 1) / (2.0 * n + 2.0)
    # each mean as its sum over n: np.mean's value, bit for bit, at a third of its cost
    centered = lead - lead.sum() / n
    out = []
    for k in (1, 2, 3):
        p = eval_sh_legendre(k, t)
        out.append(float((centered * (p - p.sum() / n)).sum() / n))
    return tuple(out)


def sample_lcomoments(s: PairedSample) -> LComomentSet:
    """Sample L-comoments of a paired sample (concomitant rank plug-in)."""
    if s.n < 4:
        raise InsufficientDataError(f"need at least 4 pairs, got {s.n}")
    l2_1 = sample_lmoments(s.x1, r_max=2).l2
    l2_2 = sample_lmoments(s.x2, r_max=2).l2
    if not (l2_1 > 0.0 and l2_2 > 0.0):
        raise InsufficientDataError("degenerate sample: zero L-scale")
    l12 = _sample_directed(s.x1, s.x2)
    l21 = _sample_directed(s.x2, s.x1)
    return _build_set(l12, l21, l2_1, l2_2)
