"""Special functions used by the quantile-density family.

Scalar double-precision log-gamma, the (regularized) incomplete beta
function and its inverse, and the Gauss hypergeometric function 2F1
restricted to non-positive argument: domain-checked wrappers over
scipy.special.betainc, betaincinv and hyp2f1.
"""

from __future__ import annotations

import math

from scipy.special import betainc as _betainc, betaincinv as _betaincinv, hyp2f1 as _hyp2f1

from .errors import DomainError

__all__ = [
    "log_gamma",
    "log_beta",
    "complete_beta",
    "inc_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "gauss_2f1",
]


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


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0."""
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"2F1 undefined for non-positive integer c={c}")
    if z > 0.0:
        raise DomainError(f"gauss_2f1 implemented for z <= 0 only, got z={z}")
    return float(_hyp2f1(a, b, c, z))
