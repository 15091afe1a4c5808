"""Scalar special functions used by the quantile-density family.

Domain-checked log-gamma and the complete beta function.  The incomplete
beta function, its inverse and 2F1 are called straight from
scipy.special.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["log_gamma", "complete_beta"]


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def complete_beta(a: float, b: float) -> float:
    """B(a, b) for a, b > 0."""
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
