"""The package's one door to scipy.special, and its complete beta function.

Every special function but `complete_beta` is scipy.special's own ufunc,
looked up as ``specfun.<name>``.  scipy.special loads at the first such
lookup, not with the package, and each name it resolves is stored in this
module's globals, so later lookups reach the ufunc itself.
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


def __getattr__(name: str):
    # the import machinery and tools probe private and dunder names (a
    # `from .specfun import ...` asks for __path__); these must not load scipy
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    fn = globals()[name] = getattr(scipy.special, name)
    return fn
