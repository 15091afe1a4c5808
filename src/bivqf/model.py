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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import (beta as beta_fn, betainc, betaincinv, eval_jacobi,
                           eval_legendre, expit, exprel, hyp2f1, logit)

from .errors import ConvergenceError, DivergentMomentError, DomainError, QuadratureError
from .specfun import complete_beta

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
        fields = vars(self)
        for name, v in fields.items():
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
            fields[name] = float(v)  # a numpy scalar would leak numpy booleans
        if not self.c > 0.0:
            raise DomainError(f"scale c must be positive, got {self.c}")

    @functools.cached_property
    def _plan(self) -> tuple[float, float, _Row]:
        """(Q(0), Q(1), row), bound on first use; no field, so == and repr skip it."""
        top, lower, row = _shape_plan(self.alpha, self.beta)
        return lower, self.c * top, row

    def __getstate__(self) -> dict:  # pickles the fields only: no plan, no PIT kept by gof
        return {name: vars(self)[name] for name in self.__dataclass_fields__}

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
    """Tolerances of the Gauss rules (relative) and the root searches."""

    quad_rel_tol: float = 1e-8
    root_tol: float = 1e-12

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be positive and finite, got {v}")

    @property
    def quad_abs_tol(self) -> float:  # the Gauss rules' absolute floor
        return 1e-2 * self.quad_rel_tol


DEFAULT_NUMERIC_CONFIG = NumericConfig()


# ---------------------------------------------------------------------------
# fixed rules and the array root finder


# the fixed rules start at 16 nodes and give up with QuadratureError past
# MAX_RULE_NODES; _newton_bisect raises ConvergenceError after ROOT_MAX_ITER steps;
# f1 starts a row with more values inside the support than its row's grid_past from
# Q at _GRID: 64 on a beta row, 0 on a corner row (at the published fits 1.4% of a
# long row then needs the exact solve; 3% at 63 levels)
MAX_RULE_NODES = 512
ROOT_MAX_ITER = 200
_GRID = np.arange(1, 128) / 128.0


@functools.lru_cache(maxsize=256)
def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights w for u^a (1-u)^b on [0, 1], summing to B(a+1, b+1).

    Golub-Welsch in scipy.special's steps on [-1, 1] (its exponents (b, a),
    u = (1 + x)/2), with the eigenvalues from numpy's eigvalsh, so no rule
    loads scipy.linalg: the nodes are scipy's on nearly every rule, within a
    few ulps elsewhere, and not its route where a == b != 0.  Where P_n
    overflows (512 nodes, an exponent past about 1000) a node keeps its
    eigenvalue, with weight 0 if P_(n-1) or P_n' is not finite.  (n, 0, 0)
    is Gauss-Legendre on its own recurrence, symmetrised.  Each rule is
    built on first use, kept and returned read-only: the fits ask for the
    same few many times.
    """
    a, b = b, a
    k, legendre = np.arange(n, dtype="d"), a == b == 0.0
    if legendre:
        diag, off, mu0 = np.zeros(n), k[1:] * np.sqrt(1.0 / (4 * k[1:] * k[1:] - 1)), 1.0
        p = eval_legendre
        dp = lambda x: (-n * x * p(n, x) + n * p(n - 1, x)) / (1 - x ** 2)  # noqa: E731
    else:
        s, j = 2.0 * k + a + b, k[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = np.where(k == 0, (b - a) / (2 + a + b), (b * b - a * a) / (s * (s + 2)))
            off = (2.0 / s[1:] * np.sqrt((j + a) * (j + b) / (s[1:] + 1))
                   * np.where(j == 1, 1.0, np.sqrt(j * (j + a + b) / (s[1:] - 1))))
        mu0 = beta_fn(a + 1, b + 1)
        p = lambda m, x: eval_jacobi(m, a, b, x)  # noqa: E731
        dp = lambda x: 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x)  # noqa: E731
    jacobi = np.diag(diag)
    jacobi.flat[1::n + 1] = off  # the superdiagonal, the only half eigvalsh reads
    x = np.linalg.eigvalsh(jacobi, UPLO="U")
    with np.errstate(over="ignore", invalid="ignore"):
        dy = dp(x)
        step = p(n, x) / dy
        x = np.where(np.isfinite(step), x - step, x)
        fm = p(n - 1, x)
        ok = np.isfinite(fm) & np.isfinite(dy)
        for v in (fm, dy):  # log-normalised, as their product may overflow
            log_v = np.log(np.abs(v[ok]))
            v /= np.exp((log_v.max() + log_v.min()) / 2.0)
        w = np.where(ok, 1.0 / (fm * dy), 0.0)
    if legendre:
        w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    x = 0.5 * (x + 1.0)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _fixed_rule(f: Callable[[np.ndarray], np.ndarray], a_exp: float, b_exp: float,
                cfg: NumericConfig, judged=...) -> np.ndarray:
    """int_0^1 u^a_exp (1-u)^b_exp f(u) du on Gauss-Jacobi nodes (Golub-Welsch).

    `f` maps the node vector to values of shape (..., n), so integrands
    that share the nodes are contracted together; an inner rule inside
    `f` may size itself from the node count.  The count doubles from 16
    until the n- and 2n-node results agree to the quadrature tolerances
    in the components `judged` selects, all by default; the 2n-node
    result is returned.

    An exponent below -1/2 is raised by one, as the nodes turn NaN within
    about 1e-14 of -1: f is also evaluated at that end (in the same call
    as the nodes), the line through those end values (zero at an end not
    raised) is integrated exactly, and the rule runs on the rest divided
    by u or 1-u.
    """
    lift_a, lift_b = a_exp < -0.5, b_exp < -0.5
    if lift_a or lift_b:
        ends = np.array([0.0] * lift_a + [1.0] * lift_b)
        # the integrals of u^a_exp (1-u)^b_exp times 1-u and times u
        end_w = np.array([complete_beta(a_exp + 1.0, b_exp + 2.0)] * lift_a
                         + [complete_beta(a_exp + 2.0, b_exp + 1.0)] * lift_b)
    prev, n = None, 16
    while n <= MAX_RULE_NODES:
        u, w = _gauss_jacobi(n, a_exp + lift_a, b_exp + lift_b)
        if not (lift_a or lift_b):
            val = f(u) @ w
        else:
            vals = f(np.concatenate([u, ends]))
            fe = vals[..., n:]
            line = ((fe[..., :1] * (1.0 - u) if lift_a else 0.0)
                    + (fe[..., -1:] * u if lift_b else 0.0))
            rest = (vals[..., :n] - line) / (u ** lift_a * (1.0 - u) ** lift_b)
            val = fe @ end_w + rest @ w
        if prev is not None:
            err = np.abs(val - prev)
            if np.all(err[judged] <= np.maximum(cfg.quad_abs_tol,
                                                cfg.quad_rel_tol * np.abs(val[judged]))):
                return val
        prev, n = val, 2 * n
    raise QuadratureError(
        f"fixed rule did not reach the quadrature tolerance within "
        f"{MAX_RULE_NODES} nodes (last change {np.max(err):.3e})")


def _u1_rule(f: Callable[[np.ndarray], np.ndarray], a_exp: float, b_exp: float,
             theta: float, cfg: NumericConfig, judged=...) -> np.ndarray:
    """int_0^1 u^a_exp (1-u)^b_exp f(u) du over u = u1, as _fixed_rule, theta > 0.

    The integrands over u1 have a (theta*u1)^p kink at u1 = 0 and change
    on the scale u1 ~ 1/theta; u = s^k with k = max(3, log10 theta)
    smooths the kink and moves that scale to s >= 0.1, where the nodes
    resolve it.  (1-u)^b_exp is (1-s)^b_exp ((1-u)/(1-s))^b_exp.
    """
    k = max(3.0, math.log10(theta))

    def in_s(s: np.ndarray) -> np.ndarray:
        u = s ** k
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(s < 1.0, (1.0 - u) / (1.0 - s), k)
        return k * ratio ** b_exp * f(u)

    return _fixed_rule(in_s, k * (a_exp + 1.0) - 1.0, b_exp, cfg, judged)


def _u2_rule(n: int, k: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes s, weights w and the k used, of int_0^1 du2 after 1 - u2 = s^k.

    The inner rule of the (1,2) integrals, sized by the caller from the
    outer node count: n Gauss-Jacobi nodes for the weight s^(k-1), with
    the Jacobian k s^(k-1) folded into w, so sum(w f(1 - s^k)) is the
    integral of f.  The k asked for, at least 1, is capped at 1000: the
    512-node rules lose accuracy past that exponent.
    """
    k = min(k, 1000.0)
    s, w = _gauss_jacobi(n, k - 1.0, 0.0)
    return s, k * w, k


def _pick(cond, a, b):
    """a where cond holds, else b: np.where on an array; on a float cond
    (the float F of _LineRow and _T2Row) a numpy float, not a 0-d array."""
    if not isinstance(cond, np.ndarray):
        return np.float64(a if cond else b)
    return np.where(cond, a, b)


def _newton_bisect(h: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                   lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                   cfg: NumericConfig) -> np.ndarray:
    """Elementwise root of h with h(lo) <= 0 <= h(hi), for a 1-d array of starts x.

    `h(x)` returns its value and slope in one call; lo, hi and the start x
    are finite.  Safeguarded Newton: a step that leaves the bracket, or
    lands on one of its ends and is over root_tol (where h is down to
    rounding noise, steps onto its ends can cycle between them), or a
    nonpositive slope, is replaced by bisection, and every evaluation
    shrinks the bracket on the sign of h.  An element stops at a zero of h,
    at its first Newton step of at most root_tol, which is its result, or
    once its bracket is at most root_tol wide or has no float inside; a
    small bisection step alone does not stop it.  h sees the whole batch
    at every step, a stopped element at its last evaluation, so a batch
    solve gives each element its own solve bit for bit; once all have
    stopped the solve returns without calling h again (an empty batch at
    once).  A single root (fit_theta, fit_mrq) is a one-element array.
    """
    out = np.empty(x.size)
    moving = np.ones(x.size, dtype=bool)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while moving.any():
            if steps == ROOT_MAX_ITER:
                raise ConvergenceError(
                    f"safeguarded Newton did not converge within {ROOT_MAX_ITER} steps")
            steps += 1
            hx, slope = h(x)
            lo = np.where(hx < 0.0, x, lo)
            hi = np.where(hx > 0.0, x, hi)
            xn = x - hx / slope
            small = abs(xn - x) <= cfg.root_tol
            newton = (slope > 0.0) & (((xn > lo) & (xn < hi))
                                      | (small & (xn >= lo) & (xn <= hi)))
            mid = 0.5 * (lo + hi)
            xn = np.where(hx == 0.0, x, np.where(newton, xn, mid))
            done = ((newton & small) | (hx == 0.0) | (hi - lo <= cfg.root_tol)
                    | (mid == lo) | (mid == hi))
            out = np.where(moving, xn, out)  # a stopped element keeps its result
            moving &= ~done
            x = np.where(moving, xn, x)
    return out


# ---------------------------------------------------------------------------
# quantile density / quantile function / inversion
#
# big_q1 and f1 take a float or an array; a row's q sees a 1-d array, and so
# does its f, but for a closed row's f, which f1 hands a float as it is.


def support(p: MarginalParams) -> SupportInfo:
    """Support of the marginal with its anchoring convention.

    Q(0) = 0 when alpha > -1; otherwise the left tail is infinite and the
    quantile function is anchored at the median, Q(1/2) = 0.
    """
    return SupportInfo(*p._plan[:2], 0.0 if p.alpha > -1.0 else 0.5)


def q1(p: MarginalParams, u: float) -> float:
    """Quantile density c * u^alpha * (1-u)^beta."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    if u == 0.0 and p.alpha < 0.0:
        raise DomainError("quantile density is singular at u = 0 for alpha < 0")
    if u == 1.0 and p.beta < 0.0:
        raise DomainError("quantile density is singular at u = 1 for beta < 0")
    return _q_density(p, u)


def _q_density(p: MarginalParams, u):
    """q1 without its checks; u may be an array."""
    return p.c * u ** p.alpha * (1.0 - u) ** p.beta


# ---------------------------------------------------------------------------
# the corners: alpha <= -1, and beta <= -1 with alpha != 0, off the closed
# rows in logit(u), the log-logistic line alpha + beta = -2 and the t2
# shape alpha = beta = -3/2
#
# Q is split at u = 1/2.  On each half Q/c is an integral of
# s^(p-1) (1-s)^(r-1) over [0, y] or [y, 1/2], with y = u on the left
# (p, r = a, b) and y = 1 - u on the right (p, r = b, a), a = alpha + 1,
# b = beta + 1.  A half is a function of mu = -log(2y) >= 0, so both tails
# keep relative accuracy.  F is _from_grid's, and in its end cells f's:
# safeguarded Newton in mu on the half that holds x; mu is -logit(u) - log 2
# in the far left tail and w - log 2, w = -log(1-u), on the right.

# exp(-_MU_MAX)/2 underflows, so no root in mu lies beyond it
_MU_MAX = 745.0
# next to a pole p + k = 0 of B_y(p, r) (k = 0, 1, ...) the difference
# B_(1/2) - B_y loses about 5e-15/|p + k| relative; this close to one the
# term-by-term series runs instead
_POLE_BAND = 0.05


def _inc_beta_cont(p: float, r: float, y):
    """B_y(p, r) = y^p/p 2F1(p, 1-r; p+1; y), continued to p < 0 (DLMF 8.17.7).

    Poles at p = 0, -1, -2, ...; called with y <= 1/2 only.
    """
    return y ** p / p * hyp2f1(p, 1.0 - r, p + 1.0, y)


class _Half:
    """One half of Q/c as G(mu); dG/dmu = `rising` y^p (1-y)^(r-1)."""

    rising = 1.0

    def __init__(self, p: float, r: float):
        self.p, self.r = p, r

    def value(self, mu):
        return self._at(0.5 * np.exp(-mu), mu)

    def _log(self, mu):
        """log G at mu, and the slope of `rising` log G in mu."""
        y = 0.5 * np.exp(-mu)
        val = self._at(y, mu)
        return np.log(val), y ** self.p * (1.0 - y) ** (self.r - 1.0) / val

    def solve(self, g, cfg: NumericConfig):
        """mu at which G(mu) = g, elementwise, by safeguarded Newton on log G."""
        lo, hi = self.bracket(g)
        s, log_g = self.rising, np.log(g)

        def h(mu):
            log_val, slope = self._log(mu)
            return s * (log_val - log_g), slope

        return _newton_bisect(h, lo, hi, lo, cfg)


class _FromZero(_Half):
    """G = B_y(a, b), the integral over [0, y], for a > 0 and b <= 1."""

    rising = -1.0

    def _at(self, y, mu):
        return _inc_beta_cont(self.p, self.r, y)

    def _log(self, mu):
        # log G = p log y - log p + log 2F1 with log y = -mu - log 2 exact:
        # where y is subnormal, y**p has a few digits and stops moving with mu
        p, r = self.p, self.r
        y = 0.5 * np.exp(-mu)
        f = hyp2f1(p, 1.0 - r, p + 1.0, y)
        return (-p * (mu + math.log(2.0)) - math.log(p) + np.log(f),
                p * (1.0 - y) ** (r - 1.0) / f)

    def bracket(self, g):
        # y^p/p <= G <= 2^(1-r) y^p/p; the first, the tail asymptote, gives
        # the lower end in mu, where Newton starts; log p + log g, as p g
        # underflows to 0 where g is subnormal
        lo = np.maximum(-math.log(2.0) - (math.log(self.p) + np.log(g)) / self.p, 0.0)
        return lo, lo + (1.0 - self.r) * math.log(2.0) / self.p


class _ToHalf(_Half):
    """G = B_(1/2)(p, r) - B_y(p, r), the integral over [y, 1/2]."""

    rest = None

    def __init__(self, p: float, r: float):
        super().__init__(p, r)
        self.mid = _inc_beta_cont(p, r, 0.5)
        if p >= _POLE_BAND:
            # G tends to B_(1/2)(p, r) as mu grows, and log G flattens: solve
            # for the rest, B_y(p, r), which falls as y^p/p (next to p = 0
            # the rest cancels, and log G stays steep up to mu ~ 1/p)
            self.rest = _FromZero(p, r)

    def _at(self, y, mu):
        return self.mid - _inc_beta_cont(self.p, self.r, y)

    def solve(self, g, cfg: NumericConfig):
        if self.rest is not None:
            return self.rest.solve(self.mid - g, cfg)
        return super().solve(g, cfg)

    def bracket(self, g):
        # m E <= G <= M E, with m, M the extremes of (1-s)^(r-1) on [0, 1/2]
        # and E = 2^-p mu exprel(-p mu) the integral of s^(p-1), so the root
        # lies between the levels where E = g/M and E = g/m; Newton starts
        # from the lower one (from the upper, where log G bends down, its
        # first step overshoots the bracket)
        p, f = self.p, 2.0 ** (1.0 - self.r)
        lo, hi = g / max(1.0, f), g / min(1.0, f)
        if p != 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                # NaN where E stays below the level
                lo, hi = (-np.log1p(-p * 2.0 ** p * v) / p for v in (lo, hi))
        return np.fmin(lo, _MU_MAX), np.fmin(hi, _MU_MAX)


class _ToHalfSeries(_ToHalf):
    """_ToHalf next to a pole: the binomial series of (1-s)^(r-1) integrated
    term by term, G = sum_k t_k (2^-e - y^e)/e, e = p + k, t_k = (1-r)_k/k!.

    The term whose e is closest to 0 is 2^-e mu exprel(-e mu); the others
    are d_k (1 - (2y)^e), d_k = t_k 2^-e/e.  The terms fall roughly as
    k^-r 2^-k; 64 + 16 max(0, -r) of them past the pole reach 2^-56 of
    the largest.
    """

    def __init__(self, p: float, r: float):
        _Half.__init__(self, p, r)
        pole = max(0, round(-p))
        k = np.arange(pole + 64 + 16 * max(0, math.ceil(-r)), dtype=float)
        t = np.cumprod(np.append(1.0, (k[:-1] + 1.0 - r) / (k[:-1] + 1.0)))
        e = p + k
        with np.errstate(divide="ignore", invalid="ignore"):
            self.d = t * 0.5 ** e / e
        self.d[pole] = 0.0
        self.d.flags.writeable = False
        self.pole = (e[pole], t[pole] * 0.5 ** e[pole])
        self.total = self._poly(1.0)

    def _poly(self, eta):
        powers = np.expand_dims(eta, -1) ** np.arange(1.0, self.d.size)
        return self.d[0] + (powers * self.d[1:]).sum(-1)

    def _at(self, y, mu):
        eta = 2.0 * y
        e, t = self.pole
        return self.total - eta ** self.p * self._poly(eta) + t * mu * exprel(-e * mu)


def _to_half(p: float, r: float) -> _ToHalf:
    near_pole = abs(p + max(0, round(-p))) < _POLE_BAND
    return (_ToHalfSeries if near_pole else _ToHalf)(p, r)


class _Row:
    """A row: Q by q(p, u, upper) on 0 < u < 1, F by f(p, x, upper, cfg), upper = Q(1).

    A root-solving row sets `grid_past`: f1 starts a row with more values inside
    the support from Q on a grid (_from_grid), and f takes the rest, a 1-d array.
    """

    grid_past = None  # a closed row, whose f takes a float too

    def __init__(self):  # an instance's own grid_past: f1's float path reads it faster
        self.grid_past = type(self).grid_past


class _LineRow(_Row):  # the log-logistic line alpha + beta = -2
    def q(self, p, u, upper):
        # q du = c exp(a t) dt in t = logit(u); anchored at 0 for a > 0,
        # at the median otherwise (before beta = 0, which anchors (-2, 0) at 0)
        c, a, t = p.c, p.alpha + 1.0, logit(u)
        return c * np.exp(a * t) / a if a > 0.0 else c * t * exprel(a * t)

    def f(self, p, x, upper, cfg):
        c, a = p.c, p.alpha + 1.0
        if a > 0.0:
            t = np.log(a * x / c) / a
        else:
            t = x / c if a == 0.0 else np.log1p(a * x / c) / a
        # 1 - expit(-t) rounds once above 1/2, where expit(t) rounds twice
        e = expit(-abs(t))
        return _pick(t < 0.0, e, 1.0 - e)


class _T2Row(_Row):  # the t2 shape alpha = beta = -3/2
    def q(self, p, u, upper):
        # a = -1/2 on the line alpha + beta = -3: q du = 2c cosh(t/2) dt, so
        # Q = 4c sinh(t/2) from the median; this equal form is exact to ulps
        # in both tails, where sinh of the rounded t is off by |t| ulps
        return 2.0 * p.c * (2.0 * u - 1.0) / np.sqrt(u * (1.0 - u))

    def f(self, p, x, upper, cfg):
        # exp(|t|/2) = sqrt(1 + y^2) + |y| with y = x/(4c), and
        # min(u, 1-u) = 1/(1 + exp(|t|)), to ulps in both tails, where expit
        # of the rounded t = 2 asinh(y) is off by |t| ulps
        y = 0.25 * x / p.c
        v = 1.0 / (np.hypot(1.0, y) + np.abs(y))
        s = v * v / (1.0 + v * v)
        return _pick(y < 0.0, s, 1.0 - s)


class _ArcsineRow(_Row):  # alpha = beta = -1/2
    def q(self, p, u, upper):
        # 2c asin(sqrt(u)), mirrored above 1/2, where 1 - u is exact
        h = 2.0 * p.c * np.arcsin(np.sqrt(np.minimum(u, 1.0 - u)))
        return np.where(u <= 0.5, h, upper - h)

    def f(self, p, x, upper, cfg):
        s = np.sin(0.5 * x / p.c)
        return s * s  # as on arrays: a numpy scalar's s ** 2 is pow, off by an ulp


class _PowerRow(_Row):  # beta = 0
    def q(self, p, u, upper):
        return p.c * u ** (p.alpha + 1.0) / (p.alpha + 1.0)

    def f(self, p, x, upper, cfg):
        # a x / c as x / upper, as (beta + 1) x / c in _AlphaZeroRow: below 1 for x < upper
        return (x / upper) ** (1.0 / (p.alpha + 1.0))


class _AlphaZeroRow(_Row):  # alpha = 0, with the log at beta = -1
    def q(self, p, u, upper):
        c, beta = p.c, p.beta
        log_s = np.log1p(-u)  # keeps 1 - (1-u)^(beta+1) accurate at small u
        if beta == -1.0:
            return -c * log_s
        return -c * np.expm1((beta + 1.0) * log_s) / (beta + 1.0)

    def f(self, p, x, upper, cfg):
        c, beta = p.c, p.beta
        if beta == -1.0:
            return -np.expm1(-x / c)
        t = x / upper if beta > -1.0 else (beta + 1.0) * x / c
        return -np.expm1(np.log1p(-t) / (beta + 1.0))


class _BetaRow(_Row):  # the incomplete beta, alpha, beta > -1
    grid_past = 64  # betaincinv costs less than the grid on a shorter row

    def q(self, p, u, upper):
        return upper * betainc(p.alpha + 1.0, p.beta + 1.0, u)

    def f(self, p, x, upper, cfg):
        c, alpha, beta = p.c, p.alpha, p.beta
        a, b = alpha + 1.0, beta + 1.0
        u = betaincinv(a, b, x / upper)
        # betaincinv is NaN at tiny levels on some shapes (a in about
        # (1.001, 1.02) with b <= 0.2 below 1e-17; a = b = 3 below 1e-108):
        # those start from the tail asymptote u^a/a = x/c of B_u(a, b)
        start = np.isnan(u)
        if start.any():
            u = np.where(start, (a * x / c) ** (1.0 / a), u)
        elif alpha != beta:
            return u
        # one Newton step on those, and on every element when alpha == beta off
        # the arcsine row: betaincinv(a, a, p) can miss just above p = 1/2
        # (betaincinv(1.09375, 1.09375, 0.5 + 2**-53) is 0.49999999845, 3.1e-9 off)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (upper * betainc(a, b, u) - x) / _q_density(p, u)
            take = np.abs(step) < 0.5 * np.minimum(u, 1.0 - u)
            return np.where(take if alpha == beta else take & start, u - step, u)


class _CornerRow(_Row):  # the left half, its sign in Q/c, the right half, Q(1/2)/c
    grid_past = 0

    def __init__(self, left: _Half, sign: float, right: _Half, mid: float):
        self.left, self.sign, self.right, self.mid = left, sign, right, mid

    def q(self, p, u, upper):
        out = np.full(u.shape, self.mid)
        low, high = u < 0.5, u > 0.5
        if low.any():
            out[low] = self.sign * self.left.value(-np.log(2.0 * u[low]))
        if high.any():
            out[high] = self.mid + self.right.value(-np.log(2.0 * (1.0 - u[high])))
        return p.c * out

    def f(self, p, x, upper, cfg):
        """F at the 1-d x inside the support, by Newton in mu on the half that holds each."""
        xc = x / p.c
        u = np.full(xc.shape, 0.5)
        low, high = xc < self.mid, xc > self.mid
        if low.any():
            u[low] = 0.5 * np.exp(-self.left.solve(self.sign * xc[low], cfg))
        if high.any():
            u[high] = 1.0 - 0.5 * np.exp(-self.right.solve(xc[high] - self.mid, cfg))
        return u


def _shape_plan(alpha: float, beta: float) -> tuple[float, float, _Row]:
    """(Q(1)/c, Q(0), row) of the shape (alpha, beta), built for one margin.

    The only code that chooses a row, by exact float tests.  The arcsine
    top is pi (the rounded B(1/2, 1/2) is 5 ulps above it).  A margin
    binds its plan on first use (MarginalParams._plan) and keeps it.
    """
    a, b = alpha + 1.0, beta + 1.0
    if beta <= -1.0:
        top = math.inf
    elif alpha > -1.0:
        top = math.pi if alpha == beta == -0.5 else complete_beta(a, b)
    else:
        top = float(_inc_beta_cont(b, a, 0.5))
    if alpha + beta == -2.0:
        row = _LineRow()
    elif alpha == beta == -1.5:
        row = _T2Row()
    elif alpha == beta == -0.5:
        row = _ArcsineRow()
    elif beta == 0.0 and alpha > -1.0:
        row = _PowerRow()
    elif alpha == 0.0:
        row = _AlphaZeroRow()
    elif alpha > -1.0 and beta > -1.0:
        row = _BetaRow()
    elif alpha > -1.0:
        row = _CornerRow(_FromZero(a, b), 1.0, _to_half(b, a), float(_inc_beta_cont(a, b, 0.5)))
    else:
        row = _CornerRow(_to_half(a, b), -1.0, _to_half(b, a), 0.0)
    return top, 0.0 if alpha > -1.0 else -math.inf, row


def big_q1(p: MarginalParams, u: float | np.ndarray) -> float | np.ndarray:
    """Quantile function Q(u), the anchored integral of the quantile density.

    `u` may be a float or an array; the result has its shape.  Closed
    forms cover the log-logistic line alpha + beta = -2 (in logit(u)),
    the t2 shape alpha = beta = -3/2, the arcsine shape alpha = beta = -1/2,
    beta = 0, alpha = 0 (with the log limit at beta = -1) and the
    incomplete-beta region alpha, beta > -1.
    The other corners alpha <= -1 and beta <= -1 (alpha != 0) split at
    u = 1/2 into B_u(alpha+1, beta+1) continued through 2F1 and its
    mirror in 1-u, with a term-by-term series next to the poles at
    integer exponents.
    """
    lower, upper, row = p._plan
    v = np.asarray(u, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise DomainError("u must lie in [0, 1]" + ("" if v.ndim else f", got {u}"))
    out = np.where(v == 0.0, lower, upper)
    inside = (v > 0.0) & (v < 1.0)
    out[inside] = row.q(p, v[inside], upper)
    return out if out.ndim else float(out)


def f1(p: MarginalParams, x: float | np.ndarray,
       cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float | np.ndarray:
    """Distribution function u = F(x); out-of-support inputs clamp to 0/1.

    `x` may be a float or an array; the result has its shape.  A NaN `x`
    raises DomainError.  A closed row's f takes the values, a float too.
    On a root-solving row f1 looks at each row along an array's last axis
    (a float is a row of one): past the row's `grid_past` values inside
    the support (0 on a corner row, 64 on a beta row), each starts from
    Q at the 127 levels k/128 (_from_grid), and the row's f solves the
    rest.  A value from the grid is within 1e-13 min(u, 1-u)
    + 4e-16 |x|/q(u), and an ulp of u, of its exact solve where Q rounds
    to 4e-16 (the published fits), and depends on x and the margin alone.
    Quadrature grids are rows too: the u21 grids of population_lcomoments
    take the grid path where their rows pass 64 nodes.
    """
    lower, upper, row = p._plan
    if isinstance(x, (float, int)) and row.grid_past is None:
        if x <= lower:
            return 0.0
        if x >= upper:
            return 1.0
        if x != x:
            raise DomainError("x must not be NaN")
        return float(row.f(p, float(x), upper, cfg))
    rows = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(rows).any():
        raise DomainError("x must not be NaN")
    u = np.where(rows <= lower, 0.0, 1.0)
    todo = (rows > lower) & (rows < upper)
    if row.grid_past is not None and rows.shape[-1] > row.grid_past:
        long = todo & (np.count_nonzero(todo, axis=-1, keepdims=True) > row.grid_past)
        if long.any():  # the grid evaluates Q at its 127 levels even for no value
            u[long], todo[long] = _from_grid(row, p, rows[long], upper)
    if todo.any():
        u[todo] = row.f(p, rows[todo], upper, cfg)
    return float(u[0]) if isinstance(x, (float, int)) else u.reshape(np.shape(x))


def _from_grid(row: _Row, p: MarginalParams, x: np.ndarray,
               upper: float) -> tuple[np.ndarray, np.ndarray]:
    """F at the values x inside the support, each on its own, from Q at the _GRID levels.

    A value in a cell between two levels starts at the cubic Hermite
    inverse of Q on the cell (dx/du = q) and takes Halley steps on Q
    (_halley_passes), with Q' = q and Q''/Q' = l = alpha/u - beta/(1-u);
    a value equal to Q at a level settles there in one step.  Returns u
    and a mask of the values left for the row's f, its exact solve: those
    in the two end cells, where Q(0) or Q(1) may be infinite and q is 0 or
    infinite, and those the steps leave unsettled.  f1 is its only caller.
    """
    alpha, beta = p.alpha, p.beta
    with np.errstate(all="ignore"):
        grid_x, grid_q = row.q(p, _GRID, upper), _q_density(p, _GRID)
        cell = np.searchsorted(grid_x, x)  # grid_x[cell - 1] < x <= grid_x[cell]
        left = (cell == 0) | (cell == _GRID.size)
        i = np.flatnonzero(~left)
        xi, right = x[i], cell[i]
        x0, x1, lo, hi = grid_x[right - 1], grid_x[right], _GRID[right - 1], _GRID[right]
        h = (x1 - x0) / (hi - lo)  # each end slope relative to the secant: h/q
        w = lo + (hi - lo) * _hermite((xi - x0) / (x1 - x0), h / grid_q[right - 1],
                                      h / grid_q[right])

        def step(j, w):
            # (Q(w) - x)/q and the Halley step; none where q is not finite
            q = _q_density(p, w)
            e = (row.q(p, w, upper) - xi[j]) / q
            d = -e / (1.0 - 0.5 * e * (alpha / w - beta / (1.0 - w)))
            return e, np.where(q < np.inf, d, np.nan)

        left[i[_halley_passes(step, w, lo, hi)]] = True
    u = np.empty_like(x)
    u[i] = w
    return u, left


def _hermite(t: np.ndarray, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """The cubic Hermite inverse on a cell at t in [0, 1], from its end
    slopes relative to the secant, m0 and m1; t where the cubic leaves (0, 1]."""
    cubic = t + t * (1.0 - t) * ((1.0 - t) * (m0 - 1.0) - t * (m1 - 1.0))
    return np.where((cubic > 0.0) & (cubic <= 1.0), cubic, t)


def _halley_passes(step, w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Up to two Halley passes toward roots in lo <= root <= hi from the starts w.

    step(j, w) evaluates the roots j at their points w, keeps what a root
    settling there needs, and returns the residual at w (negative below
    the root) and a Halley step d (NaN where there is none).  Each pass
    narrows a root's bracket to the side of w that the residual's sign
    gives.  A root settles when |d| <= 1e-6 min(w, 1-w) and w + d lies in
    its bracket; one that does not, whose w + d lies strictly inside,
    takes a second pass from w + d.  lo, hi and w are set in place, w to
    each root's last w + d, and the roots left unsettled are returned.
    """
    settled = np.zeros(w.size, dtype=bool)
    j = slice(None)  # every root, then the roots of the second pass
    for second in (False, True):
        at = w[j]
        f, d = step(j, at)
        new, scale = at + d, np.minimum(at, 1.0 - at)
        lo[j] = lo_j = np.where(f < 0.0, at, lo[j])
        hi[j] = hi_j = np.where(f > 0.0, at, hi[j])
        w[j] = new
        settled[j] = ok = (np.abs(d) <= 1e-6 * scale) & (new >= lo_j) & (new <= hi_j)
        if second:
            break
        j = np.flatnonzero(~ok & (new > lo_j) & (new < hi_j))
        if not j.size:
            break
    return np.flatnonzero(~settled)


def f1_flagged(p: MarginalParams, x: float | np.ndarray,
               cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG
               ) -> tuple[float, bool] | tuple[np.ndarray, np.ndarray]:
    """f1 with an out-of-support clamp flag: (F(x), x < Q(0) or x > Q(1)).

    Inputs below (above) the support give 0 (1) with the flag set, so
    goodness-of-fit routines degrade gracefully in the tails.  For an
    array both results are arrays of its shape; a float gives a bool.
    """
    u = f1(p, x, cfg)
    x = x if isinstance(x, (float, int)) else np.asarray(x, dtype=float)
    return u, (x < p._plan[0]) | (x > p._plan[1])


# ---------------------------------------------------------------------------
# conditional structure


def u21(bp: BivariateParams, u1: float | np.ndarray, u2: float | np.ndarray,
        cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float | np.ndarray:
    """Solve Q2(v) = Q2(u2) / (1 + theta*u1) for v, as F2(Q2(u2) / (1 + theta*u1)).

    This is the probability level of the second marginal reached by the
    conditional quantile; v <= u2 with equality iff theta*u1 = 0 when
    alpha2 > -1, and an element with theta*u1 = 0 returns u2 exactly.
    For median-anchored marginals (alpha2 <= -1) the negative half scales
    toward the anchor, so v can exceed u2.  `u1` and `u2` may be arrays;
    they broadcast, and two floats give a float.
    """
    u1 = np.asarray(u1, dtype=float)
    if not np.all((u1 >= 0.0) & (u1 <= 1.0)):
        raise DomainError(f"u1 must lie in [0, 1], got {u1}")
    v = np.asarray(u2, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise DomainError("u2 must lie in [0, 1]")
    g = 1.0 + bp.theta * u1
    moved = g != 1.0
    w = f1(bp.m2, big_q1(bp.m2, v) / g, cfg) if np.any(moved) else v
    v = np.where(moved, w, v)  # broadcast, and never the caller's array
    return v if v.ndim else float(v)


def q2_bar_conditional(bp: BivariateParams, u1: float, x2: float,
                       cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Survival of X2 given X1 beyond its u1-quantile: 1 - F2(x2 / (1+theta*u1))."""
    if not 0.0 <= u1 <= 1.0:
        raise DomainError(f"u1 must lie in [0, 1], got {u1}")
    return 1.0 - f1(bp.m2, x2 / (1.0 + bp.theta * u1), cfg)


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
    """l1 (r = 1) or l2 (r = 2) of a marginal: c B(alpha+r, beta+2)."""
    return p.c * complete_beta(p.alpha + r, p.beta + 2.0)


def _partial_mean2(m2: MarginalParams, g: np.ndarray):
    """(P, dP/dg): int_0^1 (1 - u21) q2(u2) du2 at g = 1 + theta*u1, for beta2 > -1.

    P is the partial mean of X2 given X1 beyond its u1-quantile, up to
    the top of the X2 support, that E(X1 X2) and L_k(2,1) share.  The
    change of variable w = u21 makes it g c2 B_w*(alpha2+1, beta2+2) with
    w* = I^-1(1/g).  Where w* underflows (alpha2 near -1),
    g I_w*(a2, b2+1) has reached its limit B(a2, b2) / B(a2, b2+1), since
    w*^a2 -> a2 B(a2, b2) / g.  From
    dw*/dg = -B(a2, b2) / (g^2 w*^(a2-1) (1-w*)^(b2-1)),
    dP/dg = (P - Q2(1) (1 - w*)) / g, and 0 where P has reached its limit.
    """
    a2, b2 = m2.alpha + 1.0, m2.beta + 1.0
    w = betaincinv(a2, b2, 1.0 / g)
    live = w > 1e-300
    p = np.where(live, _lambda(m2, 1) * g * betainc(a2, b2 + 1.0, w), m2._plan[1])
    return p, np.where(live, (p - m2._plan[1] * (1.0 - w)) / g, 0.0)


def _product_moment(m1: MarginalParams, m2: MarginalParams, theta: float,
                     cfg: NumericConfig):
    """E(X1 X2) at theta and its slope in theta, for marginals in the L-moment region.

    At theta = 0, and at every theta for beta2 <= -1 (u21 then sweeps the
    whole unit interval, so the inner integral is exact), it is the line
    l1_2 (l1_1 + theta lambda2_1).  Elsewhere one _u1_rule, sized on the
    value alone, integrates P and u1 dP/dg (_partial_mean2) together and
    returns its numpy scalars.
    """
    if theta == 0.0 or m2.beta <= -1.0:
        l1_2, lam_1 = _lambda(m2, 1), _lambda(m1, 2)
        return l1_2 * (_lambda(m1, 1) + theta * lam_1), l1_2 * lam_1

    def f(u: np.ndarray) -> np.ndarray:
        p, dp = _partial_mean2(m2, 1.0 + theta * u)
        return m1.c * np.stack([p, u * dp])

    return tuple(_u1_rule(f, m1.alpha, m1.beta + 1.0, theta, cfg, judged=0))


def product_moment(bp: BivariateParams,
                   cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """E(X1 X2) = double integral of (1-u1)(1-u21) q1(u1) q2(u2).

    The value of _product_moment, the routine fit_theta iterates.
    Requires both marginals in the finite-mean region with nonnegative
    support (alpha > -1, beta > -2).
    """
    for label, m in (("m1", bp.m1), ("m2", bp.m2)):
        if not m.in_lmoment_region():
            raise DivergentMomentError(
                f"product moment requires alpha > -1 and beta > -2 for {label}")
    return float(_product_moment(bp.m1, bp.m2, bp.theta, cfg)[0])
