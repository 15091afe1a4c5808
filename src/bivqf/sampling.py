"""Random generation for the bivariate family.

Two samplers with explicit seed control (counter-based Philox generator,
no global state):

- ``transform``: x1 = Q1(u1), x2 = (1 + theta*u1) Q2(u2) with independent
  uniforms.  This is the direct quantile-transform construction; its X2
  marginal is a scale mixture, not Q2.

- ``exact``: x1 = Q1(u1), then x2 by inverting the conditional survival
  derived from the product-form joint survival,

      S(x2 | x1) = (1 - w) - (1-u1) theta Q2(w) / ((1 + theta*u1) q2(w)),

  where w solves Q2(w) = x2/(1 + theta*u1).  For theta > 0 this S drops
  below zero near the top of the conditional support (the product form is
  not a valid joint law there); the sampler inverts the first crossing,
  i.e. it draws from the monotone envelope with the negative-mass region
  clamped.  Where the clamped mass is negligible the empirical joint
  survival matches the product form.

Both samplers agree on the X1 marginal; they intentionally differ in the
X2 direction for theta > 0, which documents the inconsistency between
the two constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedSample
from .errors import ConvergenceError, DomainError
from .model import (BivariateParams, DEFAULT_NUMERIC_CONFIG, NumericConfig, _newton_bisect,
                    big_q1)

__all__ = ["SamplerSpec", "draw"]

# the longest float64 array numpy can size
_MAX_N = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class SamplerSpec:
    seed: int
    n: int
    method: str = "transform"

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2 ** 128:  # Philox's key range
            raise DomainError(f"seed must lie in [0, 2**128), got {self.seed}")
        if not 1 <= self.n <= _MAX_N:
            raise DomainError(f"n must lie in [1, {_MAX_N}], got {self.n}")
        if self.method not in ("transform", "exact"):
            raise DomainError(
                f"method must be 'transform' or 'exact', got {self.method!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def draw(bp: BivariateParams, spec: SamplerSpec,
         cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> PairedSample:
    """Generate a paired sample; identical specs reproduce bit-for-bit."""
    rng = _rng(spec.seed)
    u1 = rng.random(spec.n)
    x1 = big_q1(bp.m1, u1)
    if spec.method == "transform":
        u2 = rng.random(spec.n)
        x2 = (1.0 + bp.theta * u1) * big_q1(bp.m2, u2)
    else:
        v = rng.random(spec.n)
        x2 = _exact_conditional(bp, u1, v, cfg)
    return PairedSample(x1, x2, source=f"sampler:{spec.method}:seed={spec.seed}")


def _exact_conditional(bp: BivariateParams, u1: np.ndarray, v: np.ndarray,
                       cfg: NumericConfig) -> np.ndarray:
    """Invert S(. | x1) = v for each draw; w is the conditional PIT level."""
    m2 = bp.m2
    th = bp.theta
    if m2.alpha <= -1.0:
        raise DomainError("exact sampler requires alpha2 > -1 (nonnegative support)")
    g = 1.0 + th * u1
    k = (1.0 - u1) * th / g
    if th == 0.0:
        return big_q1(m2, v)

    if m2.beta == 0.0:
        # Q2/q2 = w/(alpha2+1): S is linear in w, closed-form inversion
        w = (1.0 - v) / (1.0 + k / (m2.alpha + 1.0))
        return g * big_q1(m2, w)

    _, upper, row = m2._plan

    def ratio(w: np.ndarray) -> np.ndarray:  # Q2/q2, so that S = (1 - w) - k ratio
        # every w here lies in (0, 1): big_q1's checks and masks are skipped
        return row.q(m2, w, upper) / (m2.c * w ** m2.alpha * (1.0 - w) ** m2.beta)

    # the first of 64 scan cells whose right end has S <= v holds the first
    # crossing; the grid's Q2/q2 ratios are shared by all draws
    grid = np.arange(1, 65) / 65.0
    crossed = (1.0 - grid) - k[:, None] * ratio(grid) <= v[:, None]
    cell = np.argmax(crossed, axis=1)
    found = crossed[np.arange(v.size), cell]
    lo = np.where(found, np.concatenate(([0.0], grid))[cell], grid[-1])
    # remaining crossings sit in the last cell near w = 1
    hi = np.where(found, grid[cell], 1.0 - 1e-12)
    if np.any((1.0 - hi) - k * ratio(hi) > v):
        raise ConvergenceError("conditional survival failed to cross the draw level")

    def h(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # v - S and its slope -dS/dw = 1 + k - k ratio d(log q2)/dw
        r = ratio(w)
        return v - (1.0 - w) + k * r, 1.0 + k - k * r * (m2.alpha / w - m2.beta / (1.0 - w))

    return g * big_q1(m2, _newton_bisect(h, lo, hi, 0.5 * (lo + hi), cfg))
