"""Univariate L-moments: population formulas and the sample estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergentMomentError, DomainError, InsufficientDataError
from .model import MarginalParams, _lambda
from .specfun import complete_beta

__all__ = ["LMomentVector", "population_lmoments", "sample_lmoments"]


@dataclass(frozen=True)
class LMomentVector:
    """First four L-moments with the usual ratios.

    tau2 = l2/l1 (L-CV), tau3 = l3/l2 (L-skewness), tau4 = l4/l2
    (L-kurtosis).  Ratios are NaN when their denominator degenerates.
    """

    l1: float
    l2: float
    l3: float
    l4: float

    @property
    def tau2(self) -> float:
        return self.l2 / self.l1 if self.l1 != 0.0 else math.nan

    @property
    def tau3(self) -> float:
        return self.l3 / self.l2 if self.l2 > 0.0 else math.nan

    @property
    def tau4(self) -> float:
        return self.l4 / self.l2 if self.l2 > 0.0 else math.nan


def population_lmoments(p: MarginalParams) -> LMomentVector:
    """Population L-moments of a marginal via the gamma-function formulas.

    l1 = c G(a+1) G(b+2) / G(a+b+3)
    l2 = c G(a+2) G(b+2) / G(a+b+4)
    l3 = c (a-b) G(a+2) G(b+2) / G(a+b+5)
    l4 = l2 * (a^2 + b^2 - 3ab - a - b) / ((a+b+4)(a+b+5))

    Requires alpha > -1, beta > -2 so every gamma argument is positive.
    """
    a, b, c = p.alpha, p.beta, p.c
    if not p.in_lmoment_region():
        raise DivergentMomentError(
            f"L-moments require alpha > -1 and beta > -2, got ({a}, {b})")
    l1, l2 = _lambda(p, 1), _lambda(p, 2)
    l3 = (a - b) * c * complete_beta(a + 2.0, b + 2.0) / (a + b + 4.0)
    l4 = l2 * (a * a + b * b - 3.0 * a * b - a - b) / ((a + b + 4.0) * (a + b + 5.0))
    return LMomentVector(l1, l2, l3, l4)


def sample_lmoments(data: Sequence[float], r_max: int = 4) -> LMomentVector:
    """Unbiased sample L-moments (order-statistics based direct estimator).

    b_r = n^-1 sum_j [(j-1)...(j-r) / ((n-1)...(n-r))] x_(j) and
    l1 = b0, l2 = 2b1 - b0, l3 = 6b2 - 6b1 + b0,
    l4 = 20b3 - 30b2 + 12b1 - b0.  Moments above r_max come back as NaN;
    a requested one that overflows raises DomainError.  A constant column
    gives l2 = l3 = l4 = 0 exactly.
    """
    if not 1 <= r_max <= 4:
        raise InsufficientDataError(f"r_max must be in 1..4, got {r_max}")
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n < r_max:
        raise InsufficientDataError(
            f"need at least r_max={r_max} observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise InsufficientDataError("data contains non-finite values")

    j = np.arange(1, n + 1, dtype=float)
    b = np.full(4, math.nan)  # b_r past r_max stays NaN, and so do their L-moments
    w = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):  # sums past 1.8e308: refused below
        b[0] = x.sum() / n  # the mean, bit for bit, without np.mean's per-call cost
        for r in range(1, r_max):
            w = w * (j - r) / (n - r)
            b[r] = (w * x).sum() / n
        lm = (b[0], 2.0 * b[1] - b[0], 6.0 * b[2] - 6.0 * b[1] + b[0],
              20.0 * b[3] - 30.0 * b[2] + 12.0 * b[1] - b[0])
    if not np.all(np.isfinite(lm[:r_max])):
        raise DomainError(f"sample L-moments up to l{r_max} overflow float64 on this data")
    if x[0] == x[-1]:  # a constant column, whose sums above may round off 0
        lm = (lm[0], *(0.0 if r < r_max else math.nan for r in (1, 2, 3)))
    return LMomentVector(*map(float, lm))
