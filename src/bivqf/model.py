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
from scipy.special import betainc, betaincinv, roots_jacobi

from .errors import (BracketError, ConvergenceError, DivergentMomentError, DomainError,
                     QuadratureError)
from .specfun import complete_beta, log_gamma

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

# relative x tolerance of Brent's method: scipy.optimize.brentq's default
_BRENT_RTOL = 4.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# internal quadrature helpers


def _quad(f: Callable[[float], float], lo: float, hi: float,
          cfg: NumericConfig) -> float:
    """Adaptive quadrature with the configured tolerances.

    The engine is asked for a tenth of the target tolerance so the result
    carries margin; a result whose error estimate is far beyond target
    raises QuadratureError.  scipy.integrate is imported here, on the
    first call, so that importing the package does not load it.
    """
    from scipy.integrate import quad

    if lo == hi:
        return 0.0
    val, abserr = quad(
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
    flattens the left-endpoint singularity.  When a_exp <= -1 (so lo > 0),
    u = exp(-s) turns the spike near lo into the smooth exp(-(a+1) s).
    """
    if -1.0 < a_exp < 0.0:
        k = 1.0 / (a_exp + 1.0)

        def g(s: float) -> float:
            u = s ** k
            return k * (1.0 - u) ** b_exp * f(u)

        return _quad(g, lo ** (a_exp + 1.0), hi ** (a_exp + 1.0), cfg)
    if a_exp <= -1.0:
        def g_log(s: float) -> float:
            u = math.exp(-s)
            return math.exp(-(a_exp + 1.0) * s) * (1.0 - u) ** b_exp * f(u)

        return -_quad(g_log, -math.log(lo), -math.log(hi), cfg)
    return _quad(lambda u: u ** a_exp * (1.0 - u) ** b_exp * f(u), lo, hi, cfg)


def _beta_piece_right(f: Callable[[float], float], a_exp: float, b_exp: float,
                      lo: float, hi: float, cfg: NumericConfig) -> float:
    """int_lo^hi u^a (1-u)^b f(u) du on a piece not touching u = 0.

    When -1 < b_exp < 0 the substitution 1-u = s^(1/(b+1)) flattens the
    singularity at u = 1.  When b_exp <= -1 (so hi < 1), 1-u = exp(-s)
    turns the spike near hi into the smooth exp(-(b+1) s).
    """
    if -1.0 < b_exp < 0.0:
        k = 1.0 / (b_exp + 1.0)

        def g(s: float) -> float:
            u = 1.0 - s ** k
            return k * u ** a_exp * f(u)

        return _quad(g, (1.0 - hi) ** (b_exp + 1.0), (1.0 - lo) ** (b_exp + 1.0), cfg)
    if b_exp <= -1.0:
        def g_log(s: float) -> float:
            u = -math.expm1(-s)
            return u ** a_exp * math.exp(-(b_exp + 1.0) * s) * f(u)

        return _quad(g_log, -math.log1p(-lo), -math.log1p(-hi), cfg)
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

    Safeguarded Newton: a step that does not land strictly inside the
    bracket (where h is down to rounding noise, steps onto its ends can
    cycle between them) and is not zero, or a nonpositive slope, is
    replaced by bisection, and every evaluation shrinks the bracket on
    the sign of h.  Stops when no element moves by more than root_tol.
    """
    for _ in range(cfg.root_max_iter):
        hx = h(x)
        lo = np.where(hx < 0.0, x, lo)
        hi = np.where(hx > 0.0, x, hi)
        slope = dh(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - hx / slope
        newton = (slope > 0.0) & (((xn > lo) & (xn < hi)) | (xn == x))
        xn = np.where(hx == 0.0, x, np.where(newton, xn, 0.5 * (lo + hi)))
        if np.all(np.abs(xn - x) <= cfg.root_tol):
            return xn
        x = xn
    raise ConvergenceError(
        f"safeguarded Newton did not converge within {cfg.root_max_iter} steps")


# ---------------------------------------------------------------------------
# quantile density / quantile function / inversion
#
# big_q1 and f1_flagged take a float or an array; their branch kernels use
# operators and ufuncs that accept both, so a float is never made a 0-d array.


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


def _per_element(fn: Callable[[float], float], x):
    """fn on a float, or one element at a time on an array."""
    if isinstance(x, float):
        return fn(x)
    return np.array([fn(float(v)) for v in x.ravel()]).reshape(x.shape)


# the recurrence in _heavy_inc_beta loses about 4e-15/|beta+1| relative;
# closer to beta = -1 than this, quadrature is the more accurate
HEAVY_RIGHT_GAP = 1e-4


def _heavy_inc_beta(a: float, b: float, v, tail):
    """B_v(a, b) for a > 0, -1 < b < 0, given tail = (1-v)^b, by the
    recurrence B_v(a,b) = [(a+b) B_v(a,b+1) - v^a (1-v)^b]/b."""
    return (v ** a * tail
            - (a + b) * complete_beta(a, b + 1.0) * betainc(a, b + 1.0, v)) / -b


def _heavy_right_level(a: float, b: float, log_target, cfg: NumericConfig):
    """w = -log(1-v) at which log B_v(a, b) = log_target, for -1 < b < 0.

    In w the log quantile is nearly linear near v = 1.  The Newton solve
    starts from the smaller of two upper bounds on the root, from
    B_v(a, b) >= v^a / a (the small-v asymptote) and from
    B_v(a, b) >= min(1, 2^(1-a)) ((1-v)^b - 2^-b) / -b.
    """
    def log_b(w):
        return np.log(_heavy_inc_beta(a, b, -np.expm1(-w), np.exp(-b * w)))

    def slope(w):
        return (-np.expm1(-w)) ** (a - 1.0) * np.exp(-b * w - log_b(w))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_small = -np.log1p(-np.minimum(np.exp((log_target + math.log(a)) / a), 1.0))
        w_large = np.log(2.0 ** -b - b * np.exp(log_target)
                         / min(1.0, 2.0 ** (1.0 - a))) / -b
        hi = np.minimum(w_small, w_large)
        return _newton_bisect(lambda w: log_b(w) - log_target, slope,
                              np.zeros_like(hi), hi, hi, cfg)


def _quadrature_q(p: MarginalParams, u: float, cfg: NumericConfig) -> float:
    """Q(u) by adaptive quadrature from the anchor, for 0 < u <= 1."""
    anchor = 0.0 if p.alpha > -1.0 else 0.5
    lo, hi, sign = (u, anchor, -1.0) if u < anchor else (anchor, u, 1.0)
    return sign * p.c * quad_beta_kernel(lambda _u: 1.0, p.alpha, p.beta, cfg, lo, hi)


def _q_top(p: MarginalParams, cfg: NumericConfig) -> float:
    """Q(1), the upper end of the support."""
    if p.beta <= -1.0:
        return math.inf
    if p.alpha > -1.0:
        return p.c * complete_beta(p.alpha + 1.0, p.beta + 1.0)
    return _quadrature_q(p, 1.0, cfg)


def _big_q(p: MarginalParams, u, cfg: NumericConfig):
    """The branch table of Q on 0 < u < 1."""
    c, alpha, beta = p.c, p.alpha, p.beta
    if alpha > -1.0:
        if beta == 0.0:
            return c * u ** (alpha + 1.0) / (alpha + 1.0)
        if alpha == 0.0:
            log_s = np.log1p(-u)  # keeps 1 - (1-u)^(beta+1) accurate at small u
            if beta == -1.0:
                return -c * log_s
            return -c * np.expm1((beta + 1.0) * log_s) / (beta + 1.0)
        a = alpha + 1.0
        if beta > -1.0:
            return c * complete_beta(a, beta + 1.0) * betainc(a, beta + 1.0, u)
        if -2.0 < beta < -1.0 - HEAVY_RIGHT_GAP:
            return c * _heavy_inc_beta(a, beta + 1.0, u, (1.0 - u) ** (beta + 1.0))
    # alpha <= -1, beta <= -2, or -1 - HEAVY_RIGHT_GAP <= beta <= -1 with alpha != 0
    return _per_element(lambda v: _quadrature_q(p, v, cfg), u)


def big_q1(p: MarginalParams, u: float | np.ndarray,
           cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float | np.ndarray:
    """Quantile function Q(u), the anchored integral of the quantile density.

    `u` may be a float or an array; the result has its shape.  Closed
    forms cover beta = 0, alpha = 0 (with the log limit at beta = -1),
    the incomplete-beta region alpha, beta > -1 and, through the
    recurrence in b, alpha > -1 with -2 < beta < -1 - HEAVY_RIGHT_GAP.  The
    remaining corners (alpha <= -1, beta <= -2, beta within HEAVY_RIGHT_GAP
    below -1 with alpha != 0) fall back to adaptive quadrature with an
    endpoint-flattening substitution, one element at a time.
    """
    low = 0.0 if p.alpha > -1.0 else -math.inf
    if isinstance(u, (float, int)):
        if not 0.0 < u < 1.0:
            if u == 0.0:
                return low
            if u != 1.0:
                raise DomainError(f"u must lie in [0, 1], got {u}")
            return _q_top(p, cfg)
        return float(_big_q(p, u, cfg))
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise DomainError("u must lie in [0, 1]")
    out = np.where(u == 0.0, low, _q_top(p, cfg))
    inside = (u > 0.0) & (u < 1.0)
    out[inside] = _big_q(p, u[inside], cfg)
    return out


def _f1_search(p: MarginalParams, x: float, upper: float, cfg: NumericConfig) -> float:
    """Invert Q at one x inside the support: bracket, then Brent.

    Returns exactly 0 or 1 only when the bracket search gives up.
    """
    lo = 0.0
    if p.alpha <= -1.0:
        lo = 0.5
        while big_q1(p, lo, cfg) > x:
            lo *= 0.5
            if lo < 1e-300:
                return 0.0
    if math.isfinite(upper):
        hi = 1.0
    else:
        gap = 0.25
        hi = 0.75
        while big_q1(p, hi, cfg) < x:
            gap *= 0.5
            hi = 1.0 - gap
            if gap < 1e-16:
                return 1.0
    return _brentq(lambda v: big_q1(p, v, cfg) - x, lo, hi, cfg)


def _f1(p: MarginalParams, x, upper: float, cfg: NumericConfig):
    """The branch table of F inside the support, with the clamp flag."""
    c, alpha, beta = p.c, p.alpha, p.beta
    if alpha > -1.0:
        a = alpha + 1.0
        # (beta + 1) x / c and friends as x / upper: below 1 whenever x < upper
        if beta == 0.0:
            return (x / upper) ** (1.0 / a), False
        if alpha == 0.0:
            if beta == -1.0:
                return -np.expm1(-x / c), False
            t = x / upper if beta > -1.0 else (beta + 1.0) * x / c
            return -np.expm1(np.log1p(-t) / (beta + 1.0)), False
        if beta > -1.0:
            u = betaincinv(a, beta + 1.0, x / upper)
            if alpha != beta:
                return u, False
            # betaincinv(a, a, p) is off by up to 1.4e-8 within ulps of p = 1/2
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (upper * betainc(a, a, u) - x) / (c * (u * (1.0 - u)) ** alpha)
                return np.where(np.abs(step) < 0.5 * np.minimum(u, 1.0 - u), u - step, u), False
        if -2.0 < beta < -1.0 - HEAVY_RIGHT_GAP:
            return -np.expm1(-_heavy_right_level(a, beta + 1.0, np.log(x / c), cfg)), False
    u = _per_element(lambda v: _f1_search(p, v, upper, cfg), x)
    return u, (u == 0.0) | (u == 1.0)


def f1_flagged(p: MarginalParams, x: float | np.ndarray,
               cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG
               ) -> tuple[float, bool] | tuple[np.ndarray, np.ndarray]:
    """Distribution function u = F(x) with an out-of-support clamp flag.

    Inputs below (above) the support return 0 (1) with the flag set, so
    goodness-of-fit routines degrade gracefully in the tails.  `x` may be
    a float or an array; for an array both results are arrays of its
    shape.
    """
    sup = support(p, cfg)
    if isinstance(x, (float, int)):
        if x <= sup.lower:
            return 0.0, x < sup.lower
        if x >= sup.upper:
            return 1.0, x > sup.upper
        u, flag = _f1(p, float(x), sup.upper, cfg)
        return float(u), bool(flag)
    x = np.asarray(x, dtype=float)
    u = np.where(x <= sup.lower, 0.0, 1.0)
    flags = (x < sup.lower) | (x > sup.upper)
    inside = (x > sup.lower) & (x < sup.upper)
    u[inside], flags[inside] = _f1(p, x[inside], sup.upper, cfg)
    return u, flags


def f1(p: MarginalParams, x: float | np.ndarray,
       cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float | np.ndarray:
    """Distribution function value F(x); out-of-support inputs clamp to 0/1."""
    return f1_flagged(p, x, cfg)[0]


def _brentq(f: Callable[[float], float], lo: float, hi: float,
            cfg: NumericConfig) -> float:
    """Root of f on [lo, hi] by Brent's method.

    A transcription of scipy.optimize.brentq (its C `brentq`) with
    xtol = cfg.root_tol, rtol = 4 eps and maxiter = cfg.root_max_iter:
    the same iterates, the same function calls and the same result, without
    importing scipy.optimize.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(f"root search met a NaN function value at {x}")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"root not bracketed on [{lo}, {hi}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(cfg.root_max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (cfg.root_tol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {cfg.root_max_iter} "
                           f"iterations on [{lo}, {hi}]; last iterate {xcur}")


# ---------------------------------------------------------------------------
# conditional structure


def u21(bp: BivariateParams, u1: float, u2: float | np.ndarray,
        cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float | np.ndarray:
    """Solve Q2(v) = Q2(u2) / (1 + theta*u1) for v, as F2(Q2(u2) / (1 + theta*u1)).

    This is the probability level of the second marginal reached by the
    conditional quantile; v <= u2 with equality iff theta*u1 = 0 when
    alpha2 > -1.  For median-anchored marginals (alpha2 <= -1) the
    negative half scales toward the anchor, so v can exceed u2.  `u2`
    may be an array, and the result then has its shape.
    """
    if not 0.0 <= u1 <= 1.0:
        raise DomainError(f"u1 must lie in [0, 1], got {u1}")
    g = 1.0 + bp.theta * u1
    if g != 1.0:
        return f1(bp.m2, big_q1(bp.m2, u2, cfg) / g, cfg)
    v = np.array(u2, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise DomainError("u2 must lie in [0, 1]")
    return v if v.ndim else float(v)


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


def _lambda(p: MarginalParams, r: int) -> float:
    """l1 (r = 1) or l2 (r = 2) of a marginal: c G(alpha+r) G(beta+2) / G(alpha+beta+r+2)."""
    return p.c * math.exp(
        log_gamma(p.alpha + r) + log_gamma(p.beta + 2.0)
        - log_gamma(p.alpha + p.beta + (r + 2.0))
    )


def product_moment(bp: BivariateParams,
                   cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """E(X1 X2) = double integral of (1-u1)(1-u21) q1(u1) q2(u2).

    The inner u2-integral reduces exactly, by the change of variable
    w = u21, to (1+theta*u1) * c2 * B_w*(alpha2+1, beta2+2) with
    w* = I^-1(1/(1+theta*u1)); the remaining one-dimensional integral
    runs on a Gauss-Jacobi rule.
    Requires both marginals in the finite-mean region with nonnegative
    support (alpha > -1, beta > -2).
    """
    for label, m in (("m1", bp.m1), ("m2", bp.m2)):
        if m.alpha <= -1.0 or m.beta <= -2.0:
            raise DivergentMomentError(
                f"product moment requires alpha > -1 and beta > -2 for {label}"
            )
    th = bp.theta
    m1, m2 = bp.m1, bp.m2
    if th == 0.0:
        return _lambda(m1, 1) * _lambda(m2, 1)
    if m2.beta <= -1.0:
        # u21 sweeps the whole unit interval: inner integral is exact
        return _lambda(m2, 1) * (_lambda(m1, 1) + th * _lambda(m1, 2))

    a2, b2 = m2.alpha + 1.0, m2.beta + 1.0
    scale2 = m2.c * complete_beta(a2, b2 + 1.0)
    # where w* underflows (alpha2 near -1), g I_w*(a2, b2+1) has reached
    # its limit B(a2, b2) / B(a2, b2+1), since w*^a2 -> a2 B(a2, b2) / g
    limit = m2.c * complete_beta(a2, b2)
    # u1 = s^k: the integrand has a (theta*u1)^(1 + 1/b2) kink at u1 = 0
    # and changes on the scale u1 ~ 1/theta; k = max(3, log10 theta)
    # smooths the kink and moves that scale to s >= 0.1, where the nodes
    # resolve it
    k = max(3.0, math.log10(th))
    e = m1.beta + 1.0

    def inner(s: np.ndarray) -> np.ndarray:
        u = s ** k
        g = 1.0 + th * u
        w = betaincinv(a2, b2, 1.0 / g)
        second = np.where(w > 1e-300, scale2 * g * betainc(a2, b2 + 1.0, w), limit)
        # (1 - u1)^e = (1-s)^e ((1 - s^k)/(1-s))^e, the ratio k at s = 1
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(s < 1.0, (1.0 - u) / (1.0 - s), k)
        return k * m1.c * second * ratio ** e

    return float(_fixed_rule(inner, k * (m1.alpha + 1.0) - 1.0, e, cfg))
