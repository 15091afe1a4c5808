"""Reference implementations for the tests.

The package evaluates every integral in closed form or on fixed
Gauss-Jacobi rules.  These routines compute the same quantities by
scipy.integrate.quad with an endpoint-flattening substitution, as an
independent reference: beta-kernel integrals and population L-moments.
The per-point conditional K-S is also kept here the plain way, one CDF
call per conditioning level.
"""

from typing import Callable

import numpy as np
from scipy.integrate import quad

from bivqf.errors import DivergentMomentError, QuadratureError
from bivqf.gof import _ks_from_pit
from bivqf.lmom import LMomentVector
from bivqf.model import DEFAULT_NUMERIC_CONFIG, MarginalParams, NumericConfig


def _quad(f: Callable[[float], float], lo: float, hi: float,
          cfg: NumericConfig) -> float:
    """Adaptive quadrature asked for a tenth of the configured tolerances.

    A result whose error estimate is far beyond target raises
    QuadratureError.
    """
    val, abserr = quad(f, lo, hi, epsabs=0.1 * cfg.quad_abs_tol,
                       epsrel=0.1 * cfg.quad_rel_tol, limit=200)
    tol = max(cfg.quad_abs_tol, cfg.quad_rel_tol * abs(val))
    if abserr > 1e3 * tol:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}")
    return val


def quad_beta_kernel(f: Callable[[float], float], a_exp: float, b_exp: float,
                     cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """int_0^1 u^a_exp (1-u)^b_exp f(u) du for a bounded f on (0, 1).

    The halves [0, 1/2] and [1/2, 1] are integrated apart; a negative
    exponent is flattened by u = s^(1/(a+1)) on the left and by
    1 - u = s^(1/(b+1)) on the right.
    """
    if a_exp <= -1.0 or b_exp <= -1.0:
        raise DivergentMomentError(f"u^{a_exp} (1-u)^{b_exp} is not integrable")
    if a_exp < 0.0:
        k = 1.0 / (a_exp + 1.0)
        left = _quad(lambda s: k * (1.0 - s ** k) ** b_exp * f(s ** k),
                     0.0, 0.5 ** (a_exp + 1.0), cfg)
    else:
        left = _quad(lambda u: u ** a_exp * (1.0 - u) ** b_exp * f(u), 0.0, 0.5, cfg)
    if b_exp < 0.0:
        k = 1.0 / (b_exp + 1.0)
        right = _quad(lambda s: k * (1.0 - s ** k) ** a_exp * f(1.0 - s ** k),
                      0.0, 0.5 ** (b_exp + 1.0), cfg)
    else:
        right = _quad(lambda u: u ** a_exp * (1.0 - u) ** b_exp * f(u), 0.5, 1.0, cfg)
    return left + right


def population_lmoments_quadrature(p: MarginalParams,
                                   cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG
                                   ) -> LMomentVector:
    """Population L-moments by direct quadrature of the defining integrals.

    l_r = int_0^1 w_r(u) q(u) du with w1 = 1-u, w2 = u-u^2,
    w3 = 3u^2 - 2u^3 - u, w4 = u - 6u^2 + 10u^3 - 5u^4; each w_r carries
    the factors u (r > 1) and 1-u, so the kernel exponents are
    (alpha [+1], beta + 1).
    """
    a, b, c = p.alpha, p.beta, p.c
    if not p.in_lmoment_region():
        raise DivergentMomentError(
            f"L-moments require alpha > -1 and beta > -2, got ({a}, {b})")
    l1 = c * quad_beta_kernel(lambda u: 1.0, a, b + 1.0, cfg)
    l2 = c * quad_beta_kernel(lambda u: 1.0, a + 1.0, b + 1.0, cfg)
    l3 = c * quad_beta_kernel(lambda u: 2.0 * u - 1.0, a + 1.0, b + 1.0, cfg)
    l4 = c * quad_beta_kernel(lambda u: (5.0 * u - 5.0) * u + 1.0, a + 1.0, b + 1.0, cfg)
    return LMomentVector(l1, l2, l3, l4)


def ks_per_point_loop(s, cdf1, cdf2) -> list:
    """Per-point conditional K-S rows, one cdf2 call per level in x1 order.

    cdf1 and cdf2 are the (pit, clamped) array CDFs that
    bivqf.gof._ks_conditional takes; here cdf2 gets one float level.
    """
    u1, _ = cdf1(s.x1)
    out = []
    for idx in np.argsort(s.x1):
        pit, clamped = cdf2(float(u1[idx]), s.x2)
        out.append(_ks_from_pit(pit, "conditional-per-point", clamped,
                                cond_x1=float(s.x1[idx])))
    return out
