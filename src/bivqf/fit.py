"""Method-of-L-moments estimation for the family and the competitor model.

Marginal fitting solves the 2x2 linear system implied by the ratio
formulas tau2 = (alpha+1)/(alpha+beta+3) and
tau3 = (alpha-beta)/(alpha+beta+4), then recovers the scale from the
first L-moment.  The dependence parameter solves
E(X1 X2 | theta) = mean(x1*x2): in closed form where the product moment
is linear in theta, elsewhere by Newton on its exact slope from
theta = 0, as it is increasing and concave in theta.

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
    ConvergenceError,
    DomainError,
    InfeasibleRegionError,
    InsufficientDataError,
    QuadratureError,
    SingularSystemError,
)
from .lmom import LMomentVector, population_lmoments, sample_lmoments
from .model import (
    BivariateParams,
    DEFAULT_NUMERIC_CONFIG,
    MarginalParams,
    NumericConfig,
    _fixed_rule,
    _lambda,
    _newton_bisect,
    _product_moment,
    _u2_rule,
)
from .specfun import complete_beta

__all__ = ["FitResult", "MrqParams", "fit_marginal", "fit_theta",
           "fit_bivariate", "mrq_quantile", "fit_mrq", "MrqFitResult"]

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

    and c = l1 / B(alpha+1, beta+2).
    """
    return _fit_lmoments(sample_lmoments(data, r_max=3))


def _fit_lmoments(lm: LMomentVector) -> MarginalParams:
    """fit_marginal from the sample L-moments l1, l2, l3."""
    if not lm.l2 > 0.0:
        raise InsufficientDataError("sample L-scale must be positive to fit")
    t2, t3 = lm.tau2, lm.tau3
    # Cramer's rule on [[1 - t2, -t2], [1 - t3, -(1 + t3)]] (alpha, beta) = (r2, r3)
    a22, r2, r3 = -(1.0 + t3), 3.0 * t2 - 1.0, 4.0 * t3
    det = (1.0 - t2) * a22 + t2 * (1.0 - t3)
    if abs(det) < 1e-12:
        raise SingularSystemError(
            f"degenerate ratio system for t2={t2:.6g}, t3={t3:.6g}")
    alpha = (r2 * a22 + t2 * r3) / det
    beta = ((1.0 - t2) * r3 - r2 * (1.0 - t3)) / det
    if not (alpha > -1.0 and beta > -2.0):
        raise InfeasibleRegionError(
            f"fitted shapes ({alpha:.6g}, {beta:.6g}) leave the existence "
            f"region alpha > -1, beta > -2")
    c = lm.l1 / complete_beta(alpha + 1.0, beta + 2.0)
    return MarginalParams(c, alpha, beta)


class _ThetaFit(tuple):
    """fit_theta's (theta, bracket, warnings); `value` is the product moment
    at the solve's last evaluation, which fit_bivariate reports."""

    def __new__(cls, theta: float, bracket: tuple[float, float], warnings: list[str],
                value: float):
        out = super().__new__(cls, (theta, bracket, warnings))
        out.value = value
        return out


# theta past 1e6 is beyond what the u1 rule resolves
_THETA_CAP = 1e6


def fit_theta(s: PairedSample, m1: MarginalParams, m2: MarginalParams,
              cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG,
              ) -> tuple[float, tuple[float, float], list[str]]:
    """Match E(X1 X2) to the sample product mean; returns (theta_hat, bracket, warnings).

    A sample product mean at or below the independence value yields
    theta = 0 with a warning.  The product moment and its exact slope
    come from model._product_moment, the routine product_moment returns
    the value of.  For beta2 <= -1 it is the line
    l1_2 (l1_1 + theta lambda2_1), and theta is that line's root, its own
    bracket.  Otherwise it is increasing and concave in theta, so Newton
    from theta = 0, where both are closed, rises to the root from below
    (to a few ulps, over which the rule's value can stay flat): the
    bracket is (the last iterate below the target, theta).  Each
    iterate past 0 runs model._u1_rule.  A tangent that reaches the
    target only past theta = 1e6 raises BracketError: by concavity the
    root lies beyond it too.
    """
    target = s.product_mean
    warnings: list[str] = []
    e0, slope0 = _product_moment(m1, m2, 0.0, cfg)
    if target <= e0:
        warnings.append(
            f"sample product mean {target:.6g} does not exceed the "
            f"independence value {e0:.6g}; theta set to 0")
        return _ThetaFit(0.0, (0.0, 0.0), warnings, e0)

    def beyond_cap(th: float, value: float, slope: float) -> None:
        if th + (target - value) / slope > _THETA_CAP:
            raise BracketError(
                f"theta passes {_THETA_CAP:.6g}: the product moment is {value:.6g} "
                f"at {th:.6g}, below the sample product mean {target:.6g}")

    if m2.beta <= -1.0:
        beyond_cap(0.0, e0, slope0)
        theta = (target / _lambda(m2, 1) - _lambda(m1, 1)) / _lambda(m1, 2)
        return _ThetaFit(theta, (theta, theta), warnings,
                         _product_moment(m1, m2, theta, cfg)[0])

    below, value = 0.0, e0  # the last iterate below the target; the last evaluation's value

    def h(th):
        nonlocal below, value
        th = float(th[0])
        value, slope = _product_moment(m1, m2, th, cfg)
        if math.isnan(value):
            raise ConvergenceError(f"root search met a NaN function value at {th}")
        if value <= target:
            beyond_cap(th, value, slope)
            below = th
        return value - target, slope

    theta = float(_newton_bisect(h, 0.0, _THETA_CAP, np.zeros(1), cfg)[0])
    return _ThetaFit(theta, (below, theta), warnings, float(value))


def fit_bivariate(s: PairedSample,
                  cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> FitResult:
    """Fit both marginals, then the dependence parameter."""
    lm1, lm2 = sample_lmoments(s.x1), sample_lmoments(s.x2)
    m1, m2 = _fit_lmoments(lm1), _fit_lmoments(lm2)
    solved = fit_theta(s, m1, m2, cfg)
    theta, bracket, warnings = solved
    residuals = {
        "l1_m1": population_lmoments(m1).l1 - lm1.l1,
        "l1_m2": population_lmoments(m2).l1 - lm2.l1,
        "product_moment": solved.value - s.product_mean,
    }
    return FitResult(BivariateParams(m1, m2, theta), (lm1, lm2), bracket, residuals,
                     tuple(warnings))


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
    a, c, xl = aa[live], cc[live], x[live]
    y[live] = _newton_bisect(lambda y: (_mrq_q(y, a, c) - xl, a - 2.0 * c * np.exp(-y)),
                             0.0, top[live], start[live], cfg)
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


def _mrq_lcov_12(p: MrqParams, cfg: NumericConfig) -> np.ndarray:
    """Population L2(1,2) of the competitor and its slope in d, on one rule.

    L2(1,2) = 2 int int (1-u1)(u2 - v) q1(u1) du1 du2 where v solves
    Q21(v | u1) = Q2(u2); the outer integrand (1-u1) q1(u1) is the
    bounded polynomial (a1 + b1) - 2 b1 (1-u1).  Near u2 = 1 the gap
    u2 - v mixes the powers (1-u2)^r and (1-u2), r = (a2 + c) / aa with
    aa = a2 + c + (b2 + d) u1, so the inner rule (model._u2_rule)
    substitutes 1 - u2 = s^k with one k = 3 max(1, 1/r), r at its smallest
    over u1, before the rule's cap.  v is solved on the whole grid at once
    in y = -log(1-v), where Q21 is nearly linear.  The slope, stacked with
    the value on the tensor Gauss-Jacobi rule the value alone sizes, is the
    gap's -e^-y dy/dd (0 at y = inf), dy/dd = -u1 (y + 2 expm1(-y)) /
    (aa - 2 cc e^-y) from differentiating aa y + 2 cc expm1(-y) = x2.
    """
    a_marg = p.a2 + p.c
    k_smooth = 3.0 * max(1.0, 1.0 + (p.b2 + p.d) / a_marg)

    def inner(u1: np.ndarray) -> np.ndarray:
        s, w, k = _u2_rule(u1.size, k_smooth)
        aa = (a_marg + (p.b2 + p.d) * u1)[:, None]
        cc = (p.c + p.d * u1)[:, None]
        sk = s ** k
        x2 = -a_marg * k * np.log(s) - 2.0 * p.c * (1.0 - sk)
        y = _mrq_root(aa, cc, x2, cfg)
        e = np.exp(-y)
        with np.errstate(invalid="ignore"):
            slope = np.where(np.isinf(y), 0.0,
                             e * u1[:, None] * (y + 2.0 * np.expm1(-y)) / (aa - 2.0 * cc * e))
        return ((p.a1 + p.b1) - 2.0 * p.b1 * (1.0 - u1)) * np.stack([(e - sk) @ w, slope @ w])

    return 2.0 * _fixed_rule(inner, 0.0, 0.0, cfg, judged=0)


def fit_mrq(s: PairedSample,
            cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> MrqFitResult:
    """Fit the competitor model by the method of L-moments.

    a_i and the first dependence coefficient come from l1 and l2 of each
    margin (lambda1 = a1, lambda2 = (a1+b1)/2 - b1/3, and likewise a2, c
    from the u1 -> 0 marginal).  b2 follows exactly from the product
    moment, E(X1 X2) = a1 a2 + lambda2(X1) b2.  d matches the sample
    L-covariance of X1 toward X2 on (d_min, d_max] = (-(a2 + c + b2),
    a2 + b2 - c], where Q21's density stays positive at u1 = 1 and
    a2 + b2 >= c + d.  L2(1,2) is decreasing and concave in d there, so
    model._newton_bisect runs on its exact slope from d = 0 (the midpoint if
    0 is outside), and InfeasibleRegionError refuses at once a root that a
    tangent puts below d_min or L2(1,2) at d_max puts above d_max; so too
    a2 + c <= 0 (Q21(. | 0) is then no quantile function), a2 + b2 <= 0, and
    a last L2(1,2) off the sample value by over max(quad_rel_tol, root_tol)
    max(1, |sample value|).  Other violated constraints are warnings.
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

    target_pm = s.product_mean
    b2 = (target_pm - a1 * a2) / lm1.l2
    if not a2 + b2 > 0.0:  # (d_min, d_max] is empty
        raise InfeasibleRegionError(f"competitor needs a2 + b2 > 0, got a2 + b2 = {a2 + b2:.6g}")
    d_min, d_max = -(a2 + c + b2), a2 + b2 - c

    lcov = sample_lcomoments(s)
    target_l12 = lcov.l2_12

    def refuse(why: str) -> InfeasibleRegionError:
        return InfeasibleRegionError(
            f"no competitor matches the sample L-covariance {target_l12:.6g}: {why}")

    value, top = math.nan, None  # L2(1,2) at the last evaluation, and at d_max once tried

    def h(d):
        nonlocal value, top
        d = float(d[0])  # a 1-d d would reach the cached rules of _u2_rule through k_smooth
        value, slope = _mrq_lcov_12(MrqParams(a1, b1, a2, b2, c, d), cfg).tolist()
        if math.isnan(value):
            raise ConvergenceError(f"root search met a NaN function value at {d}")
        # L2(1,2) is decreasing and concave, so it lies below its tangent at d
        newton = d + (target_l12 - value) / slope if slope < 0.0 else d
        if value < target_l12 and newton <= d_min:
            raise refuse(f"its root lies below d_min = -(a2 + c + b2) = {d_min:.6g}")
        if value > target_l12 and newton > d_max and top is None:
            try:
                top = _mrq_lcov_12(MrqParams(a1, b1, a2, b2, c, d_max), cfg)[0]
            except QuadratureError:
                top = math.nan  # bisection goes on toward d_max
            if top > target_l12:
                raise refuse(f"its root lies above d_max = a2 + b2 - c = {d_max:.6g}")
        return target_l12 - value, -slope

    start = 0.0 if d_min < 0.0 <= d_max else 0.5 * (d_min + d_max)
    d = float(_newton_bisect(h, d_min, d_max, np.array([start]), cfg)[0])
    tol = max(cfg.quad_rel_tol, cfg.root_tol) * max(1.0, abs(target_l12))
    if not abs(value - target_l12) <= tol:  # a NaN fails too
        raise refuse(f"the solve on (d_min, d_max] = ({d_min:.6g}, {d_max:.6g}] ended at "
                     f"d = {d:.6g}, where its L-covariance is {value:.6g}")
    params = MrqParams(a1, b1, a2, b2, c, d)
    residuals = {
        "product_moment": a1 * a2 + lm1.l2 * b2 - target_pm,
        "lcov_12": value - target_l12,
        "lcov_21_consistency": b2 / 3.0 - lcov.l2_21,
    }
    return MrqFitResult(params, residuals, params.constraint_violations())
