"""Named special cases of the bivariate family.

Each case is one row of `_CASES`: the stems of its natural parameters
(rates, shapes, scales; component i adds the suffix i, so the stems
("a", "b") stand for a1, b1, a2, b2), the map from one component's
natural parameters to (c, alpha, beta) and, where tractable, the closed
marginal distribution function in the same parameters.  The closed forms
double as oracles against the generic numeric machinery.

The conditional quantile of X2 is g Q2 with g = 1 + theta*u1, so its
closed survival is 1 - F2(x2 / g), and the joint survival is the product
S1(x1) * (1 - F2(x2 / g)).  The Pareto I marginals carry a location
offset sigma_i (their support starts at sigma_i, not 0); the offset
scales with g in the conditional, consistent with multiplying the whole
quantile function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import specfun
from .errors import DomainError, UnsupportedCaseError
from .model import (
    BivariateParams,
    DEFAULT_NUMERIC_CONFIG,
    MarginalParams,
    NumericConfig,
    f1,
)
from .specfun import complete_beta

__all__ = ["CatalogEntry", "CATALOG_NAMES", "make_case",
           "closed_marginal_cdf", "closed_marginal_survival",
           "closed_conditional_survival", "closed_joint_survival",
           "generic_marginal_cdf", "generic_joint_survival"]


@dataclass(frozen=True)
class _Case:
    """One catalog case; `marginal` and `cdf` take one component's parameters."""

    stems: tuple[str, ...]
    marginal: Callable[..., tuple[float, float, float]]  # -> (c, alpha, beta)
    cdf: Callable[..., float] | None  # cdf(x, *natural), or None if not closed
    joint: bool = True  # closed conditional and joint survival exist
    loc: str | None = None  # stem of the location offset
    fixed: dict = field(default_factory=dict)  # stems pinned to a value
    low: dict = field(default_factory=dict)  # lower bounds other than 0
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:  # parameter names and bounds, built once
        keys = tuple(f"{s}{i}" for i in (1, 2) for s in self.stems)
        vars(self).update(keys=keys, lows=tuple(self.low.get(k[:-1], 0.0) for k in keys))


def _beta_cdf(x: float, c: float, alpha: float, beta: float) -> float:
    # Q(u) = c B_u(alpha+1, beta+1), so F(x) = I^-1(x / (c B(alpha+1, beta+1)))
    a, b = alpha + 1.0, beta + 1.0
    return float(specfun.betaincinv(a, b, min(max(x / (c * complete_beta(a, b)), 0.0), 1.0)))


def _power(a: float, b: float) -> tuple[float, float, float]:
    return b / a, 1.0 / a - 1.0, 0.0


def _power_cdf(x: float, a: float, b: float) -> float:
    return min((x / b) ** a, 1.0) if x > 0.0 else 0.0


def _t2_cdf(x: float, c: float) -> float:
    # (1 + x/R)/2, R = hypot(4c, x), cancels for x < 0: there it is the
    # equal 8c^2/(R (R - x))
    big_r = math.hypot(4.0 * c, x)
    return 0.5 * (1.0 + x / big_r) if x >= 0.0 else 8.0 * c * c / (big_r * (big_r - x))


_CASES: dict[str, _Case] = {
    # q(u) = c u^alpha (1-u)^beta itself, alpha, beta > -1
    "complementary-beta": _Case(
        ("c", "alpha", "beta"), lambda c, alpha, beta: (c, alpha, beta),
        _beta_cdf, low={"alpha": -1.0, "beta": -1.0}),
    # F(x) = (x/b)^a
    "power": _Case(("a", "b"), _power, _power_cdf),
    # F(x) = x/b: a pinned to 1
    "uniform": _Case(("a", "b"), _power, _power_cdf, fixed={"a": 1.0}),
    # S(x) = exp(-x/c)
    "exponential": _Case(
        ("c",), lambda c: (c, 0.0, -1.0),
        lambda x, c: -math.expm1(-x / c) if x > 0.0 else 0.0),
    # S(x) = (1 - x/b)^a on (0, b)
    "rescaled-beta": _Case(
        ("a", "b"), lambda a, b: (b / a, 0.0, 1.0 / a - 1.0),
        lambda x, a, b: (0.0 if x <= 0.0 else 1.0 if x >= b
                         else -math.expm1(a * math.log1p(-x / b)))),
    # S(x) = (1 + x/b)^-d; Q(u) = b ((1-u)^(-1/d) - 1) has q = (b/d) (1-u)^(-1/d-1)
    "pareto2": _Case(
        ("d", "b"), lambda d, b: (b / d, 0.0, -1.0 - 1.0 / d),
        lambda x, d, b: -math.expm1(-d * math.log1p(x / b)) if x > 0.0 else 0.0),
    # S(x) = (x/sigma)^-a for x > sigma
    "pareto1": _Case(
        ("sigma", "a"), lambda sigma, a: (sigma / a, 0.0, -1.0 - 1.0 / a),
        lambda x, sigma, a: (-math.expm1(-a * math.log1p((x - sigma) / sigma))
                             if x > sigma else 0.0),
        loc="sigma"),
    # S(x) = 1 / (1 + (x/b)^(1/a))
    "loglogistic": _Case(
        ("a", "b"), lambda a, b: (a * b, a - 1.0, -(a + 1.0)),
        lambda x, a, b: 1.0 / (1.0 + (x / b) ** (-1.0 / a)) if x > 0.0 else 0.0),
    # Q(u) = sigma ((b+1) u^b - b u^(b+1))
    "govindarajulu": _Case(
        ("sigma", "b"), lambda sigma, b: (sigma * b * (b + 1.0), b - 1.0, 1.0), None,
        joint=False, notes=("no closed distribution function",)),
    # f(x) = (pi/2s) sin(pi x / s) on (0, s)
    "sine": _Case(
        ("scale",), lambda s: (s / math.pi, -0.5, -0.5),
        lambda x, s: (0.0 if x <= 0.0 else 1.0 if x >= s
                      else math.sin(0.5 * math.pi * x / s) ** 2),
        joint=False, notes=("marginal-only entry",)),
    # heavy-tailed, support the whole line
    "scaled-t2": _Case(
        ("c",), lambda c: (c, -1.5, -1.5),
        _t2_cdf,
        joint=False, notes=("marginal-only entry", "support is the whole line")),
}

CATALOG_NAMES = tuple(_CASES)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    natural: dict
    params: BivariateParams
    loc: tuple[float, float] = (0.0, 0.0)

    @property
    def notes(self) -> tuple[str, ...]:
        return _CASES[self.name].notes

    @property
    def has_marginal_cdf(self) -> bool:
        return _CASES[self.name].cdf is not None

    @property
    def has_conditional_survival(self) -> bool:
        return _CASES[self.name].joint

    @property
    def has_joint_survival(self) -> bool:
        return _CASES[self.name].joint


def make_case(name: str, **natural: float) -> CatalogEntry:
    """Build a catalog entry from natural parameters and theta (default 0).

    The parameters of a case are the stems of its `_CASES` row with the
    component suffix 1 or 2, for example c1, c2 for stems ("c",); each must
    be a finite real above 0, or above the row's `low` bound.  A missing
    name, or any other name, raises DomainError.
    The entry's `natural` holds them in that order, then theta.
    """
    case = _CASES.get(name)
    if case is None:
        raise DomainError(f"unknown catalog case {name!r}; known: {', '.join(CATALOG_NAMES)}")
    names = case.keys + ("theta",)
    unknown = [k for k in natural if k not in names]
    if unknown:
        raise DomainError(f"catalog case {name!r} has no parameter {', '.join(unknown)}; "
                          f"it takes {', '.join(names)}")
    th = float(natural.get("theta", 0.0))
    given = {**natural, **{f"{s}{i}": v for s, v in case.fixed.items() for i in (1, 2)}}
    missing = [k for k in case.keys if k not in given]
    if missing:
        raise DomainError(f"catalog case {name!r} needs {', '.join(missing)}")
    nat = {k: given[k] for k in case.keys}
    for (key, v), low in zip(nat.items(), case.lows):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > low):
            raise DomainError(f"parameter {key} must be a finite real above {low:g}, "
                              f"got {v!r}")
    vals, n = list(nat.values()), len(case.stems)
    ms = MarginalParams(*case.marginal(*vals[:n])), MarginalParams(*case.marginal(*vals[n:]))
    loc = (nat[f"{case.loc}1"], nat[f"{case.loc}2"]) if case.loc else (0.0, 0.0)
    return CatalogEntry(name, {**nat, "theta": th}, BivariateParams(*ms, th), loc)


# ---------------------------------------------------------------------------
# closed forms


def closed_marginal_cdf(entry: CatalogEntry, i: int, x: float) -> float:
    """Closed-form marginal distribution function of component i (1 or 2)."""
    if i not in (1, 2):
        raise DomainError("component index must be 1 or 2")
    case = _CASES[entry.name]
    if case.cdf is None:
        raise UnsupportedCaseError(
            f"case {entry.name!r} has no closed distribution function")
    return case.cdf(x, *(float(entry.natural[f"{s}{i}"]) for s in case.stems))


def closed_marginal_survival(entry: CatalogEntry, i: int, x: float) -> float:
    return 1.0 - closed_marginal_cdf(entry, i, x)


def closed_conditional_survival(entry: CatalogEntry, u1: float, x2: float) -> float:
    """Closed-form survival of X2 given X1 beyond its u1-quantile, 1 - F2(x2 / g)."""
    if not entry.has_conditional_survival:
        raise UnsupportedCaseError(
            f"case {entry.name!r} has no closed conditional survival")
    return 1.0 - closed_marginal_cdf(entry, 2, x2 / (1.0 + entry.params.theta * u1))


def closed_joint_survival(entry: CatalogEntry, x1: float, x2: float) -> float:
    """Closed-form product survival S1(x1) * S21(x2 | x1)."""
    if not entry.has_joint_survival:
        raise UnsupportedCaseError(f"case {entry.name!r} has no closed joint survival")
    u1_val = closed_marginal_cdf(entry, 1, x1)
    return (1.0 - u1_val) * closed_conditional_survival(entry, u1_val, x2)


# ---------------------------------------------------------------------------
# generic (numeric) counterparts, location-aware


def generic_marginal_cdf(entry: CatalogEntry, i: int, x: float,
                         cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Marginal CDF through the generic inversion machinery."""
    m = entry.params.m1 if i == 1 else entry.params.m2
    return f1(m, x - entry.loc[i - 1], cfg)


def generic_joint_survival(entry: CatalogEntry, x1: float, x2: float,
                           cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> float:
    """Product survival through the generic machinery, honoring locations."""
    bp = entry.params
    u1_val = f1(bp.m1, x1 - entry.loc[0], cfg)
    g = 1.0 + bp.theta * u1_val  # S21 = 1 - F2(x2 / g), and the location scales with g
    return (1.0 - u1_val) * (1.0 - f1(bp.m2, (x2 - entry.loc[1] * g) / g, cfg))
