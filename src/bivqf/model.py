"""Core bivariate quantile-density model.

The family is specified by a quantile density q(u) = c u^alpha (1-u)^beta
for each marginal and the conditional quantile function
Q21(u1, u2) = (1 + theta*u1) * Q2(u2) for the second component given that
the first exceeds its u1-quantile.  This module holds the parameter
containers, the quantile / distribution functions with their numerical
inversion, the conditional and joint survival functions, and the
population product moment E(X1 X2).

The joint survival used throughout is the product form
F(x1, x2) = S1(x1) * S21(x2 | x1); all population integrals are taken
against that definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad as _scipy_quad
from scipy.optimize import brentq as _scipy_brentq
from scipy.special import betainc, betaincinv, roots_jacobi

from .errors import (BracketError, ConvergenceError, DivergentMomentError, DomainError,
                     QuadratureError)
from .specfun import complete_beta, inc_beta, inv_reg_inc_beta, log_gamma, reg_inc_beta

__all__ = [
    "MarginalParams",
    "BivariateParams",
    "SupportInfo",
    "NumericConfig",
    "DEFAULT_NUMERIC_CONFIG",
    "support",
    "q1",
    "big_q1",
    "f1",
    "f1_flagged",
    "u21",
    "q2_bar_conditional",
    "joint_survival",
    "product_moment",
]


@dataclass(frozen=True)
class MarginalParams:
    """One marginal: q(u) = c * u^alpha * (1-u)^beta with c > 0."""

    c: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("c", "alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
        if not self.c > 0.0:
            raise DomainError(f"scale c must be positive, got {self.c}")

    def scaled(self, factor: float) -> "MarginalParams":
        """Same shape with the scale multiplied by `factor`."""
        return MarginalParams(self.c * factor, self.alpha, self.beta)

    def in_lmoment_region(self) -> bool:
        """True when all gamma arguments of the L-moment formulas are positive."""
        return self.alpha > -1.0 and self.beta > -2.0


@dataclass(frozen=True)
class BivariateParams:
    """Two marginals plus the dependence parameter theta >= 0."""

    m1: MarginalParams
    m2: MarginalParams
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and self.theta >= 0.0):
            raise DomainError(f"theta must be finite and >= 0, got {self.theta}")


@dataclass(frozen=True)
class SupportInfo:
    """Support endpoints and the probability level at which Q is anchored."""

    lower: float
    upper: float
    anchor: float


@dataclass(frozen=True)
class NumericConfig:
    """Quadrature and root-finding tolerances."""

    quad_abs_tol: float = 1e-10
    quad_rel_tol: float = 1e-8
    quad_max_depth: int = 50
    root_tol: float = 1e-12
    root_max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("quad_abs_tol", "quad_rel_tol", "root_tol"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        if self.quad_max_depth < 1 or self.root_max_iter < 1:
            raise DomainError("iteration limits must be at least 1")


DEFAULT_NUMERIC_CONFIG = NumericConfig()


# ---------------------------------------------------------------------------
# internal quadrature helpers


def _quad(f: Callable[[float], float], lo: float, hi: float,
          cfg: NumericConfig) -> float:
    """Adaptive quadrature with the configured tolerances.

    The engine is asked for a tenth of the target tolerance so the result
    carries margin; a result whose error estimate is far beyond target
    raises QuadratureError.
    """
    if lo == hi:
        return 0.0
    val, abserr = _scipy_quad(
        f, lo, hi,
        epsabs=0.1 * cfg.quad_abs_tol,
        epsrel=0.1 * cfg.quad_rel_tol,
        limit=max(50, 4 * cfg.quad_max_depth),
        full_output=0,
    )
    tol = max(cfg.quad_abs_tol, cfg.quad_rel_tol * abs(val))
    if abserr > 1e3 * tol:
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}"
        )
    return val


def _beta_piece_left(f: Callable[[float], float], a_exp: float, b_exp: float,
                     lo: float, hi: float, cfg: NumericConfig) -> float:
    """int_lo^hi u^a (1-u)^b f(u) du on a piece not touching u = 1.

    When a_exp < 0 (and a_exp > -1) the substitution u = s^(1/(a+1))
    flattens the left-endpoint singularity.
    """
    if -1.0 < a_exp < 0.0:
        k = 1.0 / (a_exp + 1.0)

        def g(s: float) -> float:
            u = s ** k
            return k * (1.0 - u) ** b_exp * f(u)

        return _quad(g, lo ** (a_exp + 1.0), hi ** (a_exp + 1.0), cfg)
    return _quad(lambda u: u ** a_exp * (1.0 - u) ** b_exp * f(u), lo, hi, cfg)


def _beta_piece_right(f: Callable[[float], float], a_exp: float, b_exp: float,
                      lo: float, hi: float, cfg: NumericConfig) -> float:
    """int_lo^hi u^a (1-u)^b f(u) du on a piece not touching u = 0."""
    if -1.0 < b_exp < 0.0:
        k = 1.0 / (b_exp + 1.0)

        def g(s: float) -> float:
            u = 1.0 - s ** k
            return k * u ** a_exp * f(u)

        return _quad(g, (1.0 - hi) ** (b_exp + 1.0), (1.0 - lo) ** (b_exp + 1.0), cfg)
    return _quad(lambda u: u ** a_exp * (1.0 - u) ** b_exp * f(u), lo, hi, cfg)


def quad_beta_kernel(f: Callable[[float], float], a_exp: float, b_exp: float,
                     cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG,
                     lo: float = 0.0, hi: float = 1.0) -> float:
    """int_lo^hi u^a_exp (1-u)^b_exp f(u) du with integrable endpoint powers.

    Requires a_exp > -1 if lo = 0 and b_exp > -1 if hi = 1; f must be
    bounded on (0, 1).  Used for every population integral against the
    quantile density.
    """
    if lo == 0.0 and a_exp <= -1.0:
        raise DivergentMomentError(f"u^{a_exp} is not integrable at 0")
    if hi == 1.0 and b_exp <= -1.0:
        raise DivergentMomentError(f"(1-u)^{b_exp} is not integrable at 1")
    mid = 0.5
    if hi <= mid:
        return _beta_piece_left(f, a_exp, b_exp, lo, hi, cfg)
    if lo >= mid:
        return _beta_piece_right(f, a_exp, b_exp, lo, hi, cfg)
    return (_beta_piece_left(f, a_exp, b_exp, lo, mid, cfg)
            + _beta_piece_right(f, a_exp, b_exp, mid, hi, cfg))


def _beta_integral(alpha: float, beta: float, lo: float, hi: float,
                   cfg: NumericConfig) -> float:
    """Signed int_lo^hi t^alpha (1-t)^beta dt, endpoints possibly singular."""
    if lo == hi:
        return 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0
    return sign * quad_beta_kernel(lambda _u: 1.0, alpha, beta, cfg, lo, hi)


# the fixed rules start at 16 nodes and give up with QuadratureError
# past this many
MAX_RULE_NODES = 512


def _fixed_rule(f: Callable[[np.ndarray], np.ndarray], a_exp: float, b_exp: float,
                cfg: NumericConfig) -> np.ndarray:
    """int_0^1 u^a_exp (1-u)^b_exp f(u) du on Gauss-Jacobi nodes (Golub-Welsch).

    `f` maps the node vector to values of shape (..., n), so integrands
    that share the nodes are contracted together; an inner rule inside
    `f` may size itself from the node count.  The count doubles until the
    n- and 2n-node results agree to the quadrature tolerances in every
    component; the 2n-node result is returned.
    """
    prev, n = None, 16
    while n <= MAX_RULE_NODES:
        x, w = roots_jacobi(n, b_exp, a_exp)
        val = f(0.5 * (x + 1.0)) @ w * 0.5 ** (a_exp + b_exp + 1.0)
        if prev is not None:
            err = np.abs(val - prev)
            if np.all(err <= np.maximum(cfg.quad_abs_tol, cfg.quad_rel_tol * np.abs(val))):
                return val
        prev, n = val, 2 * n
    raise QuadratureError(
        f"fixed rule did not reach the quadrature tolerance within "
        f"{MAX_RULE_NODES} nodes (last change {np.max(err):.3e})")


def _newton_bisect(h: Callable[[np.ndarray], np.ndarray],
                   dh: Callable[[np.ndarray], np.ndarray],
                   lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                   cfg: NumericConfig) -> np.ndarray:
    """Elementwise root of h with h(lo) <= 0 <= h(hi), for whole arrays.

    Safeguarded Newton: a step that leaves the bracket, or a nonpositive
    slope, is replaced by bisection, and every evaluation shrinks the
    bracket on the sign of h.  Stops when no element moves by more than
    root_tol.
    """
    for _ in range(cfg.root_max_iter):
        hx = h(x)
        lo = np.where(hx < 0.0, x, lo)
        hi = np.where(hx > 0.0, x, hi)
        slope = dh(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - hx / slope
        newton = (slope > 0.0) & (xn >= lo) & (xn <= hi)
        xn = np.where(hx == 0.0, x, np.where(newton, xn, 0.5 * (lo + hi)))
        if np.all(np.abs(xn - x) <= cfg.root_tol):
            return xn
        x = xn
    raise ConvergenceError(
        f"safeguarded Newton did not converge within {cfg.root_max_iter} steps")


# ---------------------------------------------------------------------------
# quantile density / quantile function / inversion


def support(p: MarginalParams, cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> SupportInfo:
    """Support of the marginal with its anchoring convention.

    Q(0) = 0 when alpha > -1; otherwise the left tail is infinite and the
    quantile function is anchored at the median, Q(1/2) = 0.
    """
    if p.alpha > -1.0:
        lower, anchor = 0.0, 0.0
    else:
        lower, anchor = -math.inf, 0.5
    upper = big_q1(p, 1.0, cfg) if p.beta > -1.0 else math.inf
    return SupportInfo(lower, upper, anchor)


def q1(p: MarginalParams, u: float) -> float:
    """Quantile density c * u^alpha * (1-u)^beta."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    if u == 0.0 and p.alpha < 0.0:
        raise DomainError("quantile density is singular at u = 0 for alpha < 0")
    if u == 1.0 and p.beta < 0.0:
        raise DomainError("quantile density is singular at u = 1 for beta < 0")
    return p.c * u ** p.alpha * (1.0 - u) ** p.beta


def big_q1(p: MarginalParams, u: float,
           cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Quantile function Q(u), the anchored integral of the quantile density.

    Closed forms cover beta = 0, alpha = 0 (with the log limit at
    beta = -1) and the incomplete-beta region alpha, beta > -1; all other
    parameter corners fall back to adaptive quadrature with an
    endpoint-flattening substitution.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    c, alpha, beta = p.c, p.alpha, p.beta

    if alpha > -1.0:
        if u == 0.0:
            return 0.0
        if beta == 0.0:
            return c * u ** (alpha + 1.0) / (alpha + 1.0)
        if alpha == 0.0:
            if beta == -1.0:
                return math.inf if u == 1.0 else -c * math.log1p(-u)
            if u == 1.0:
                return math.inf if beta < -1.0 else c / (beta + 1.0)
            return c * (1.0 - (1.0 - u) ** (beta + 1.0)) / (beta + 1.0)
        if beta > -1.0:
            return c * inc_beta(u, alpha + 1.0, beta + 1.0)
        if u == 1.0:
            return math.inf
        return c * _beta_integral(alpha, beta, 0.0, u, cfg)

    # alpha <= -1: infinite left tail, anchored at the median
    if u == 0.0:
        return -math.inf
    if u == 1.0:
        if beta <= -1.0:
            return math.inf
        return c * _beta_integral(alpha, beta, 0.5, 1.0, cfg)
    return c * _beta_integral(alpha, beta, 0.5, u, cfg)


def _f1_closed(p: MarginalParams, x: float) -> float | None:
    """Closed-form inverse of Q where available, else None."""
    c, alpha, beta = p.c, p.alpha, p.beta
    if alpha > -1.0:
        a1 = alpha + 1.0
        if beta == 0.0:
            return (a1 * x / c) ** (1.0 / a1)
        if alpha == 0.0:
            if beta == -1.0:
                return -math.expm1(-x / c)
            base = 1.0 - (beta + 1.0) * x / c
            if base <= 0.0:
                return 1.0
            return 1.0 - base ** (1.0 / (beta + 1.0))
        if beta > -1.0:
            total = c * complete_beta(a1, beta + 1.0)
            return inv_reg_inc_beta(min(max(x / total, 0.0), 1.0), a1, beta + 1.0)
    return None


def f1_flagged(p: MarginalParams, x: float,
               cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> tuple[float, bool]:
    """Distribution function u = F(x) with an out-of-support clamp flag.

    Inputs below (above) the support return 0 (1) with the flag set, so
    goodness-of-fit routines degrade gracefully in the tails.
    """
    sup = support(p, cfg)
    if x <= sup.lower:
        return 0.0, x < sup.lower
    if x >= sup.upper:
        return 1.0, x > sup.upper

    u = _f1_closed(p, x)
    if u is not None:
        return min(max(u, 0.0), 1.0), False

    # generic monotone inversion: bracket then Brent
    lo = 0.0
    if p.alpha <= -1.0:
        lo = 0.5
        while big_q1(p, lo, cfg) > x:
            lo *= 0.5
            if lo < 1e-300:
                return 0.0, True
    if math.isfinite(sup.upper):
        hi = 1.0
    else:
        gap = 0.25
        hi = 0.75
        while big_q1(p, hi, cfg) < x:
            gap *= 0.5
            hi = 1.0 - gap
            if gap < 1e-16:
                return 1.0, True
    u = _brentq(lambda v: big_q1(p, v, cfg) - x, lo, hi, cfg)
    return u, False


def f1(p: MarginalParams, x: float,
       cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Distribution function value F(x); out-of-support inputs clamp to 0/1."""
    return f1_flagged(p, x, cfg)[0]


def _brentq(f: Callable[[float], float], lo: float, hi: float,
            cfg: NumericConfig) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"root not bracketed on [{lo}, {hi}]")
    return float(_scipy_brentq(f, lo, hi, xtol=cfg.root_tol,
                               maxiter=cfg.root_max_iter))


# ---------------------------------------------------------------------------
# conditional structure


def u21(bp: BivariateParams, u1: float, u2: float | np.ndarray,
        cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float | np.ndarray:
    """Solve Q2(v) = Q2(u2) / (1 + theta*u1) for v.

    This is the probability level of the second marginal reached by the
    conditional quantile; v <= u2 with equality iff theta*u1 = 0.  `u2`
    may be an array, and the result then has its shape.
    """
    v = np.array(u2, dtype=float)
    if not (0.0 <= u1 <= 1.0 and np.all((v >= 0.0) & (v <= 1.0))):
        raise DomainError("u1 and u2 must lie in [0, 1]")
    out = _u21(bp, 1.0 + bp.theta * u1, v, cfg)
    return out if out.ndim else float(out)


def _u21(bp: BivariateParams, g: float, u2: np.ndarray,
         cfg: NumericConfig) -> np.ndarray:
    """u21 at g = 1 + theta*u1 on a private copy of u2, which may be overwritten."""
    if g == 1.0:
        return u2
    m2 = bp.m2
    alpha, beta = m2.alpha, m2.beta
    if alpha > -1.0 and beta == 0.0:
        return u2 * g ** (-1.0 / (alpha + 1.0))
    if alpha == 0.0:
        with np.errstate(divide="ignore"):  # u2 = 1 gives the limit 1
            if beta == -1.0:
                return -np.expm1(np.log1p(-u2) / g)
            inner = 1.0 - (1.0 - (1.0 - u2) ** (beta + 1.0)) / g
            return np.where((u2 == 1.0) & (beta < -1.0), 1.0,
                            1.0 - inner ** (1.0 / (beta + 1.0)))
    if alpha > -1.0 and beta > -1.0:
        a, b = alpha + 1.0, beta + 1.0
        return betaincinv(a, b, betainc(a, b, u2) / g)
    if alpha > -1.0 and -2.0 < beta < -1.0:
        return _u21_heavy_right(alpha + 1.0, beta + 1.0, g, u2, cfg)
    # no closed form: invert the quantile function per element.  For
    # median-anchored marginals (alpha <= -1) the negative half scales
    # toward the anchor, so the solution can exceed u2
    for i, u in np.ndenumerate(u2):
        if 0.0 < u < 1.0:
            u2[i] = f1_flagged(m2, big_q1(m2, float(u), cfg) / g, cfg)[0]
    return u2


def _u21_heavy_right(a: float, b: float, g: float, u2: np.ndarray,
                     cfg: NumericConfig) -> np.ndarray:
    """u21 for alpha > -1 and -2 < beta < -1, where Q2 diverges at 1.

    With a = alpha+1 and b = beta+1 in (-1, 0), the recurrence
    B_v(a, b) = [(a+b) B_v(a, b+1) - v^a (1-v)^b] / b reduces Q2 to the
    regular incomplete beta.  log Q2 is solved for w = -log(1-v), in
    which it is nearly linear near v = 1.
    """
    nb = complete_beta(a, b + 1.0)

    def log_q(w: np.ndarray) -> np.ndarray:  # log Q2(v) / (c2 B(a, b+1))
        v = -np.expm1(-w)
        return np.log((v ** a * np.exp(-b * w) / nb
                       - (a + b) * betainc(a, b + 1.0, v)) / -b)

    def slope(w: np.ndarray) -> np.ndarray:
        v = -np.expm1(-w)
        return v ** (a - 1.0) * np.exp(-b * w - log_q(w)) / nb

    inside = (u2 > 0.0) & (u2 < 1.0)
    w_top = -np.log1p(-u2[inside])
    target = log_q(w_top) - math.log(g)
    w = _newton_bisect(lambda w: log_q(w) - target, slope, np.zeros_like(w_top),
                       w_top, w_top * g ** (-1.0 / a), cfg)
    u2[inside] = -np.expm1(-w)
    return u2


def q2_bar_conditional(bp: BivariateParams, u1: float, x2: float,
                       cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Survival of X2 given X1 beyond its u1-quantile: 1 - F2(x2 / (1+theta*u1))."""
    if not 0.0 <= u1 <= 1.0:
        raise DomainError(f"u1 must lie in [0, 1], got {u1}")
    scaled = bp.m2.scaled(1.0 + bp.theta * u1)
    return 1.0 - f1(scaled, x2, cfg)


def joint_survival(bp: BivariateParams, x1: float, x2: float,
                   cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Product-form joint survival S1(x1) * S21(x2 | x1)."""
    u = f1(bp.m1, x1, cfg)
    s1 = 1.0 - u
    if s1 == 0.0:
        return 0.0
    return s1 * q2_bar_conditional(bp, u, x2, cfg)


# ---------------------------------------------------------------------------
# product moment


def _lambda1(p: MarginalParams) -> float:
    return p.c * math.exp(
        log_gamma(p.alpha + 1.0) + log_gamma(p.beta + 2.0)
        - log_gamma(p.alpha + p.beta + 3.0)
    )


def _lambda2(p: MarginalParams) -> float:
    return p.c * math.exp(
        log_gamma(p.alpha + 2.0) + log_gamma(p.beta + 2.0)
        - log_gamma(p.alpha + p.beta + 4.0)
    )


def product_moment(bp: BivariateParams,
                   cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """E(X1 X2) = double integral of (1-u1)(1-u21) q1(u1) q2(u2).

    The inner u2-integral reduces exactly, by the change of variable
    w = u21, to (1+theta*u1) * c2 * B_w*(alpha2+1, beta2+2) with
    w* = I^-1(1/(1+theta*u1)); only a one-dimensional adaptive
    integral remains.  Requires both marginals in the finite-mean region
    with nonnegative support (alpha > -1, beta > -2).
    """
    for label, m in (("m1", bp.m1), ("m2", bp.m2)):
        if m.alpha <= -1.0 or m.beta <= -2.0:
            raise DivergentMomentError(
                f"product moment requires alpha > -1 and beta > -2 for {label}"
            )
    th = bp.theta
    m1, m2 = bp.m1, bp.m2
    if th == 0.0:
        return _lambda1(m1) * _lambda1(m2)
    if m2.beta <= -1.0:
        # u21 sweeps the whole unit interval: inner integral is exact
        return _lambda1(m2) * (_lambda1(m1) + th * _lambda2(m1))

    a2, b2 = m2.alpha + 1.0, m2.beta + 1.0
    norm2 = complete_beta(a2, b2 + 1.0)

    def inner(u: float) -> float:
        g = 1.0 + th * u
        w = inv_reg_inc_beta(1.0 / g, a2, b2)
        return m2.c * g * norm2 * reg_inc_beta(w, a2, b2 + 1.0)

    val = quad_beta_kernel(lambda u: m1.c * inner(u),
                           m1.alpha, m1.beta + 1.0, cfg)
    return val
