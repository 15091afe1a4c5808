"""The complete beta function, the package's one scalar special function.

The incomplete beta function, its inverse, 2F1, the Kolmogorov
distribution and the shifted Legendre polynomials are called straight
from scipy.special.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["complete_beta"]


def complete_beta(a: float, b: float) -> float:
    """B(a, b) for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"complete_beta requires a, b > 0, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
