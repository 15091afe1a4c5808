"""Method-of-L-moments estimation for the family and the competitor model.

Marginal fitting solves the 2x2 linear system implied by the ratio
formulas tau2 = (alpha+1)/(alpha+beta+3) and
tau3 = (alpha-beta)/(alpha+beta+4), then recovers the scale from the
first L-moment.  The dependence parameter solves
E(X1 X2 | theta) = mean(x1*x2) by bracketed root-finding, using the
monotonicity of the product moment in theta.

The competitor is the bivariate linear mean-residual quantile model

    Q1(u1)      = -(a1 + b1) log(1-u1) - 2 b1 u1
    Q21(u2|u1)  = -(a2 + c + (b2 + d) u1) log(1-u2) - 2 (c + d u1) u2.

Its first two coefficients per margin come from l1 and l2; b2 has the
exact relation E(X1 X2) = a1 a2 + lambda2(X1) * b2 under the product
survival, and d is matched to the sample L-covariance of X1 toward X2.
(The L-covariance of X2 toward X1 reduces to b2/3 for this model, so it
cannot identify d.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comoment import sample_lcomoments
from .data import PairedSample
from .errors import (
    BracketError,
    DomainError,
    InfeasibleRegionError,
    InsufficientDataError,
    SingularSystemError,
)
from .lmom import LMomentVector, population_lmoments, sample_lmoments
from .model import (
    BivariateParams,
    DEFAULT_NUMERIC_CONFIG,
    MarginalParams,
    NumericConfig,
    _fixed_rule,
    _gauss_jacobi,
    _newton_bisect,
    _secant,
    product_moment,
)
from .specfun import log_gamma

__all__ = ["FitResult", "MrqParams", "fit_marginal", "fit_theta",
           "fit_bivariate", "mrq_quantile", "fit_mrq", "MrqFitResult"]

_THETA_CAP = 1e6


@dataclass(frozen=True)
class FitResult:
    params: BivariateParams
    sample_lmoments: tuple[LMomentVector, LMomentVector]
    theta_bracket: tuple[float, float]
    residuals: dict
    warnings: tuple[str, ...] = field(default=())


def fit_marginal(data) -> MarginalParams:
    """Fit (c, alpha, beta) to univariate data by matching l1, t2, t3.

    The ratio equations are linear in (alpha, beta):

        (1 - t2) alpha - t2 beta       = 3 t2 - 1
        (1 - t3) alpha - (1 + t3) beta = 4 t3

    and c = l1 * G(alpha+beta+3) / (G(alpha+1) G(beta+2)).
    """
    lm = sample_lmoments(data, r_max=3)
    if not lm.l2 > 0.0:
        raise InsufficientDataError("sample L-scale must be positive to fit")
    t2, t3 = lm.tau2, lm.tau3
    a_mat = np.array([[1.0 - t2, -t2], [1.0 - t3, -(1.0 + t3)]])
    rhs = np.array([3.0 * t2 - 1.0, 4.0 * t3])
    det = float(np.linalg.det(a_mat))
    if abs(det) < 1e-12:
        raise SingularSystemError(
            f"degenerate ratio system for t2={t2:.6g}, t3={t3:.6g}")
    alpha, beta = (float(v) for v in np.linalg.solve(a_mat, rhs))
    if not (alpha > -1.0 and beta > -2.0):
        raise InfeasibleRegionError(
            f"fitted shapes ({alpha:.6g}, {beta:.6g}) leave the existence "
            f"region alpha > -1, beta > -2")
    c = lm.l1 * math.exp(
        log_gamma(alpha + beta + 3.0) - log_gamma(alpha + 1.0)
        - log_gamma(beta + 2.0))
    return MarginalParams(c, alpha, beta)


def fit_theta(s: PairedSample, m1: MarginalParams, m2: MarginalParams,
              cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG,
              ) -> tuple[float, tuple[float, float], list[str]]:
    """Match E(X1 X2) to the sample product mean by bracketed root-finding.

    Returns (theta_hat, bracket, warnings).  A sample product mean at or
    below the independence value yields theta = 0 with a warning.
    """
    target = float(np.mean(np.asarray(s.x1) * np.asarray(s.x2)))
    warnings: list[str] = []

    def pm(th: float) -> float:
        return product_moment(BivariateParams(m1, m2, th), cfg)

    e0 = pm(0.0)
    if target <= e0:
        warnings.append(
            f"sample product mean {target:.6g} does not exceed the "
            f"independence value {e0:.6g}; theta set to 0")
        return 0.0, (0.0, 0.0), warnings

    # the last two ends of the doubling loop bracket the root; the reported
    # bracket stays (0, hi)
    lo, f_lo = 0.0, e0 - target
    hi, f_hi = 1.0, pm(1.0) - target
    while f_hi < 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if hi > _THETA_CAP:
            raise BracketError(
                f"product moment never reaches {target:.6g} for theta up to "
                f"{_THETA_CAP:.0e}")
        f_hi = pm(hi) - target
    h = _secant(lambda th: pm(th) - target, hi, f_hi)
    theta = float(_newton_bisect(h, lo, hi, lo - f_lo * (hi - lo) / (f_hi - f_lo), cfg))
    return theta, (0.0, hi), warnings


def fit_bivariate(s: PairedSample,
                  cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> FitResult:
    """Fit both marginals, then the dependence parameter."""
    m1 = fit_marginal(s.x1)
    m2 = fit_marginal(s.x2)
    theta, bracket, warnings = fit_theta(s, m1, m2, cfg)
    bp = BivariateParams(m1, m2, theta)
    lm1, lm2 = sample_lmoments(s.x1), sample_lmoments(s.x2)
    residuals = {
        "l1_m1": population_lmoments(m1).l1 - lm1.l1,
        "l1_m2": population_lmoments(m2).l1 - lm2.l1,
        "product_moment": product_moment(bp, cfg)
        - float(np.mean(np.asarray(s.x1) * np.asarray(s.x2))),
    }
    return FitResult(bp, (lm1, lm2), bracket, residuals, tuple(warnings))


# ---------------------------------------------------------------------------
# competitor: linear mean-residual quantile model


@dataclass(frozen=True)
class MrqParams:
    """Coefficients of the linear mean-residual quantile model."""

    a1: float
    b1: float
    a2: float
    b2: float
    c: float
    d: float

    def constraint_violations(self) -> tuple[str, ...]:
        out = []
        if not self.a1 > 0.0:
            out.append(f"a1 = {self.a1:.6g} must be positive")
        if not self.a1 + self.b1 > 0.0:
            out.append(f"a1 + b1 = {self.a1 + self.b1:.6g} must be positive")
        if not self.a2 > 0.0:
            out.append(f"a2 = {self.a2:.6g} must be positive")
        if not self.a2 + self.c > 0.0:
            out.append(f"a2 + c = {self.a2 + self.c:.6g} must be positive")
        if self.a2 + self.b2 < self.c + self.d:
            out.append(
                f"a2 + b2 = {self.a2 + self.b2:.6g} must be >= "
                f"c + d = {self.c + self.d:.6g}")
        return tuple(out)


def mrq_quantile(p: MrqParams, u1: float, u2: float) -> tuple[float, float]:
    """(Q1(u1), Q21(u2 | u1)) of the competitor model."""
    if not (0.0 <= u1 < 1.0 and 0.0 <= u2 < 1.0):
        raise DomainError("u1 and u2 must lie in [0, 1)")
    bad = p.constraint_violations()
    if bad:
        raise DomainError("invalid competitor parameters: " + "; ".join(bad))
    q1v = -(p.a1 + p.b1) * math.log1p(-u1) - 2.0 * p.b1 * u1
    q21v = (-(p.a2 + p.c + (p.b2 + p.d) * u1) * math.log1p(-u2)
            - 2.0 * (p.c + p.d * u1) * u2)
    return q1v, q21v


# -expm1(-y) rounds to 1 for y beyond this, so a later root is reported as inf
_Y_TOP = 40.0


def _mrq_q(y, aa, cc):
    """The competitor's quantile -aa log(1-v) - 2 cc v in y = -log(1-v)."""
    return aa * y + 2.0 * cc * np.expm1(-y)


def _mrq_root(aa, cc, x, cfg: NumericConfig) -> np.ndarray:
    """First root y >= 0 of _mrq_q(y, aa, cc) = x, elementwise.

    In y the quantile is nearly linear.  For cc >= 0 it is convex, so it
    crosses a positive x at most once; for cc < 0 it rises while
    aa > 2 cc e^(-y), so for aa < 0 it peaks at y* = log(2 cc / aa) and the
    first crossing, if any, lies below y*.  Gives 0 where x <= 0 and inf
    (v = 1) where the quantile stays below x up to y* or _Y_TOP.
    """
    aa, cc, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (aa, cc, x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.where((aa < 0.0) & (cc < 0.0), np.log(2.0 * cc / aa), np.inf)
        top = np.clip(peak, 0.0, _Y_TOP)
        start = np.clip(x / aa, 0.0, top)
    y = np.where(x > 0.0, np.inf, 0.0)
    live = (x > 0.0) & (_mrq_q(top, aa, cc) >= x)
    if np.any(live):
        a, c, xl = aa[live], cc[live], x[live]
        y[live] = _newton_bisect(lambda y: (_mrq_q(y, a, c) - xl, a - 2.0 * c * np.exp(-y)),
                                 np.zeros_like(xl), top[live], start[live], cfg)
    return y


def _level(y: np.ndarray):
    """v = 1 - exp(-y), a float for a 0-d y."""
    v = -np.expm1(-y)
    return v if v.ndim else float(v)


def mrq_marginal1_cdf(p: MrqParams, x,
                      cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG):
    """F1 of the competitor at x (a float or an array): Q1 inverted at x."""
    return _level(_mrq_root(p.a1 + p.b1, p.b1, x, cfg))


def mrq_conditional_cdf(p: MrqParams, u1, x2,
                        cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG):
    """F21(x2 | u1) of the competitor: Q21(. | u1) inverted at x2 (floats or arrays)."""
    u1 = np.asarray(u1)
    return _level(_mrq_root(p.a2 + p.c + (p.b2 + p.d) * u1, p.c + p.d * u1, x2, cfg))


@dataclass(frozen=True)
class MrqFitResult:
    params: MrqParams
    residuals: dict
    warnings: tuple[str, ...] = field(default=())


def _mrq_lcov_12(p: MrqParams, cfg: NumericConfig) -> float:
    """Population L2(1,2) of the competitor on a tensor Gauss-Legendre rule.

    L2(1,2) = 2 int int (1-u1)(u2 - v) q1(u1) du1 du2 where v solves
    Q21(v | u1) = Q2(u2); the outer integrand (1-u1) q1(u1) is the
    bounded polynomial (a1 + b1) - 2 b1 (1-u1).  Near u2 = 1 the gap
    u2 - v mixes the powers (1-u2)^r and (1-u2), r = (a2 + c) / aa with
    aa = a2 + c + (b2 + d) u1, so the inner rule substitutes 1-u2 = s^k
    with k = 3 max(1, 1/r) per outer node.  v is solved on the whole grid
    at once in y = -log(1-v), where Q21 is nearly linear.
    """
    a_marg = p.a2 + p.c

    def inner(u1: np.ndarray) -> np.ndarray:
        x, w = _gauss_jacobi(u1.size, 0.0, 0.0)
        s, ws = 0.5 * (x + 1.0), 0.5 * w
        aa = (a_marg + (p.b2 + p.d) * u1)[:, None]
        cc = (p.c + p.d * u1)[:, None]
        k = 3.0 * np.maximum(1.0, aa / a_marg)
        sk = s ** k
        x2 = -a_marg * k * np.log(s) - 2.0 * p.c * (1.0 - sk)
        gap = np.exp(-_mrq_root(aa, cc, x2, cfg)) - sk
        return ((p.a1 + p.b1) - 2.0 * p.b1 * (1.0 - u1)) * ((gap * k * s ** (k - 1.0)) @ ws)

    return 2.0 * float(_fixed_rule(inner, 0.0, 0.0, cfg))


def fit_mrq(s: PairedSample,
            cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> MrqFitResult:
    """Fit the competitor model by the method of L-moments.

    a_i and the first dependence coefficient come from l1 and l2 of each
    margin (lambda1 = a1, lambda2 = (a1+b1)/2 - b1/3, and likewise a2, c
    from the u1 -> 0 marginal).  b2 follows exactly from the product
    moment, E(X1 X2) = a1 a2 + lambda2(X1) b2; d is matched to the sample
    L-covariance of X1 toward X2 by monotone root-finding.  a2 + c =
    6 l2 - 2 l1 of x2 must be positive (its L-CV above 1/3): otherwise
    Q21(. | 0) turns down toward v = 1 and is no quantile function, so
    InfeasibleRegionError is raised before the search for d.  The other
    constraint violations are reported as warnings, not errors.
    """
    if s.n < 4:
        raise InsufficientDataError(f"need at least 4 pairs, got {s.n}")
    lm1 = sample_lmoments(s.x1)
    lm2 = sample_lmoments(s.x2)
    a1 = lm1.l1
    b1 = 6.0 * lm1.l2 - 3.0 * a1
    a2 = lm2.l1
    c = 6.0 * lm2.l2 - 3.0 * a2
    if not a2 + c > 0.0:
        raise InfeasibleRegionError(
            f"competitor needs a2 + c > 0, got a2 + c = {a2 + c:.6g} "
            f"(L-CV of x2 {lm2.tau2:.6g} is not above 1/3)")

    target_pm = float(np.mean(np.asarray(s.x1) * np.asarray(s.x2)))
    b2 = (target_pm - a1 * a2) / lm1.l2

    lcov = sample_lcomoments(s)
    target_l12 = lcov.l2_12

    def resid(d: float) -> float:
        if a2 + c + b2 + d <= 1e-9:
            # conditional quantile density degenerates at u1 = 1; such d
            # act as unboundedly strong dependence in the search
            return 1e300
        trial = MrqParams(a1, b1, a2, b2, c, d)
        return _mrq_lcov_12(trial, cfg) - target_l12

    # L2(1,2) is decreasing in d; expand a bracket around 0, one end at a time
    ends = []
    for x, sign, side in ((-1.0, 1.0, "below"), (1.0, -1.0, "above")):
        for _ in range(41):
            r = resid(x)
            if sign * r >= 0.0:
                break
            x *= 2.0
        else:
            raise BracketError(f"could not bracket d from {side}")
        ends.append((x, r))
    (lo, r_lo), (hi, r_hi) = ends
    h = _secant(lambda d: -resid(d), hi, -r_hi)
    d = float(_newton_bisect(h, lo, hi, lo + r_lo * (hi - lo) / (r_lo - r_hi), cfg))

    params = MrqParams(a1, b1, a2, b2, c, d)
    warnings = tuple(params.constraint_violations())
    residuals = {
        "product_moment": a1 * a2 + lm1.l2 * b2 - target_pm,
        "lcov_12": _mrq_lcov_12(params, cfg) - target_l12,
        "lcov_21_consistency": b2 / 3.0 - lcov.l2_21,
    }
    return MrqFitResult(params, residuals, warnings)
