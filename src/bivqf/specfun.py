"""Special functions used by the quantile-density family.

Scalar double-precision log-gamma, the (regularized) incomplete beta
function and its inverse, and the Gauss hypergeometric function 2F1
restricted to non-positive argument.  The incomplete beta and its
inverse are checked wrappers over scipy.special.betainc and betaincinv;
2F1 is summed by its power series for |z| < 1 and by the Pfaff
transformation z -> z/(z-1) for z <= -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import betainc as _betainc, betaincinv as _betaincinv

from .errors import ConvergenceError, DomainError

__all__ = [
    "SpecFunConfig",
    "DEFAULT_SPECFUN_CONFIG",
    "log_gamma",
    "log_beta",
    "complete_beta",
    "inc_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "gauss_2f1",
]


@dataclass(frozen=True)
class SpecFunConfig:
    """Tolerance and term cap of the 2F1 power series."""

    series_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self) -> None:
        if not (self.series_tol > 0.0):
            raise DomainError("series_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_SPECFUN_CONFIG = SpecFunConfig()


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def complete_beta(a: float, b: float) -> float:
    """B(a, b) for a, b > 0."""
    return math.exp(log_beta(a, b))


def _check_shapes(name: str, a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"{name} requires a, b > 0, got a={a}, b={b}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    _check_shapes("reg_inc_beta", a, b)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    return float(_betainc(a, b, x))


def inc_beta(x: float, a: float, b: float) -> float:
    """Unnormalized incomplete beta B_x(a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt."""
    return reg_inc_beta(x, a, b) * complete_beta(a, b)


def inv_reg_inc_beta(p: float, a: float, b: float) -> float:
    """Functional inverse of I_x(a, b): the x with I_x(a, b) = p."""
    _check_shapes("inv_reg_inc_beta", a, b)
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"inv_reg_inc_beta requires 0 <= p <= 1, got p={p}")
    if p == 0.0 or p == 1.0:
        return float(p)
    return float(_betaincinv(a, b, p))


def _hyp2f1_series(a: float, b: float, c: float, z: float,
                   cfg: SpecFunConfig) -> float:
    """Power series sum for 2F1 at |z| < 1."""
    term = 1.0
    total = 1.0
    for n in range(cfg.max_terms):
        denom = (c + n) * (n + 1.0)
        if denom == 0.0:
            raise DomainError(f"2F1 series hit a pole at c + n = 0 (c={c}, n={n})")
        term *= (a + n) * (b + n) / denom * z
        total += term
        if term == 0.0:
            return total  # terminating (polynomial) case
        if abs(term) <= cfg.series_tol * max(abs(total), 1.0):
            return total
    raise ConvergenceError(
        f"2F1 series did not converge for a={a}, b={b}, c={c}, z={z}"
    )


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gauss_2f1(a: float, b: float, c: float, z: float,
              cfg: SpecFunConfig = DEFAULT_SPECFUN_CONFIG) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0.

    Direct series on -1 < z <= 0; for z <= -1 the Pfaff transformation
    maps the argument to z/(z-1) in (0, 1) where the series converges.
    """
    if _is_nonpositive_integer(c):
        raise DomainError(f"2F1 undefined for non-positive integer c={c}")
    if z > 0.0:
        raise DomainError(f"gauss_2f1 implemented for z <= 0 only, got z={z}")
    if z == 0.0:
        return 1.0
    if z > -1.0:
        return _hyp2f1_series(a, b, c, z, cfg)
    w = z / (z - 1.0)
    return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w, cfg)


def _hyp2f1_pfaff(a: float, b: float, c: float, z: float,
                  cfg: SpecFunConfig = DEFAULT_SPECFUN_CONFIG) -> float:
    """Pfaff-transformed evaluation, exposed for consistency checks."""
    if z >= 1.0:
        raise DomainError("Pfaff form requires z < 1")
    w = z / (z - 1.0)
    return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w, cfg)
