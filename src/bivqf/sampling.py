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

from . import specfun
from .data import PairedSample
from .errors import ConvergenceError, DomainError
from .model import (BivariateParams, DEFAULT_NUMERIC_CONFIG, NumericConfig, _halley_passes,
                    _hermite, _newton_bisect, _q_density, big_q1)

__all__ = ["SamplerSpec", "draw"]

# the longest float64 array numpy can size
_MAX_N = np.iinfo(np.intp).max // 8
_TINY = np.finfo(float).tiny  # the smallest normal float64: a Q2 below it has lost digits


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
    """Generate a paired sample; identical specs reproduce bit-for-bit.

    A draw past 1.8e308, or otherwise not finite, raises DomainError.
    """
    rng = _rng(spec.seed)
    u1 = rng.random(spec.n)
    x1 = big_q1(bp.m1, u1)
    if spec.method == "transform":
        u2 = rng.random(spec.n)
        x2 = _scaled(1.0 + bp.theta * u1, big_q1(bp.m2, u2))
    else:
        v = rng.random(spec.n)
        x2 = _exact_conditional(bp, u1, v, cfg)
    bad = ~(np.isfinite(x1) & np.isfinite(x2))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"draw {i + 1} overflows float64: ({x1[i]}, {x2[i]})")
    return PairedSample(x1, x2, source=f"sampler:{spec.method}:seed={spec.seed}")


def _scaled(g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x2 = g Q2; a product past 1.8e308 is inf, which draw refuses."""
    with np.errstate(over="ignore"):
        return g * q


def _exact_conditional(bp: BivariateParams, u1: np.ndarray, v: np.ndarray,
                       cfg: NumericConfig) -> np.ndarray:
    """Invert S(. | x1) = v for each draw; w is the conditional PIT level.

    With R = Q2/q2, S(w) = (1 - w) - k R(w), and each draw solves v - S = 0
    as w - (1 - v) + k R below w = 1/2 and v - (1 - w) + k R above it:
    1 - v is exact for v >= 1/2 and 1 - w for w >= 1/2, so neither rounds
    where the difference cancels.  The first of 65 scan cells, the last
    from 64/65 to 1 - 1e-12, whose right end has S <= v holds the first
    crossing; a draw no cell catches raises ConvergenceError.  A draw
    starts at _hermite's inverse of S on its cell, from S at both ends
    (the scan's) and dS/dw = -1 - k R', with R' = 1 - R l,
    l = d(log q2)/dw = alpha2/w - beta2/(1-w) and R'(0) = 1/(alpha2+1);
    a slope >= 0 (the dip of S lies in the cell) counts as the secant.
    One pass of Q2 and q2 at the starts takes a Halley step d and narrows
    the bracket; a draw settles when |d| <= 1e-6 min(w, 1-w) and w + d
    stays in that bracket: x2 = g (Q2 + q2 d + q2 l d^2/2).  A draw left
    takes a second pass at w + d if that lies inside it
    (model._halley_passes).  The rest run _newton_bisect on the narrowed
    bracket, and x2 = g Q2 at its root.  The power margins (beta2 = 0,
    R = w/(alpha2+1)) take this path too.  Where Q2 is below the normal
    range (large alpha2, small w), R comes from 2F1, not Q2/q2.  Where
    k = 0 (u1 = 1, or theta (1 - u1) underflowing), S = 1 - w, and every
    product with k is 0 for that draw, even against an infinite R.
    """
    m2 = bp.m2
    th = bp.theta
    if m2.alpha <= -1.0:
        raise DomainError("exact sampler requires alpha2 > -1 (nonnegative support)")
    g = 1.0 + th * u1
    k = (1.0 - u1) * th / g
    if th == 0.0:  # S = 1 - w; the scan below would miss v < 1e-12
        return big_q1(m2, 1.0 - v)

    _, upper, row = m2._plan
    alpha, beta, a = m2.alpha, m2.beta, m2.alpha + 1.0

    def k_times(k, y):
        # k y, and 0 where k = 0, so that no 0 * inf forms against an infinite R
        return np.multiply(k, y, out=np.zeros(np.broadcast(k, y).shape), where=k != 0.0)

    def residual(w, v, k, r):
        # v - S, with no rounding in 1 - v for v >= 1/2 nor in 1 - w for w >= 1/2
        return np.where(w < 0.5, w - (1.0 - v), v - (1.0 - w)) + k_times(k, r)

    def level(w):
        # Q2, q2, l, R and R' at w in (0, 1): big_q1's checks and masks are skipped.
        # Where Q2 is below the normal range (w^a underflows, a = alpha2 + 1), R is
        # w/a 2F1(a, -beta2; a+1; w)/(1-w)^beta2, Q2/q2 with w^alpha2 cancelled
        big, small, l = row.q(m2, w, upper), _q_density(m2, w), alpha / w - beta / (1.0 - w)
        lost = big < _TINY
        r = np.divide(big, small, out=np.empty(w.shape), where=~lost)
        if lost.any():
            s = w[lost]
            r[lost] = s / a * specfun.hyp2f1(a, -beta, a + 1.0, s) / (1.0 - s) ** beta
        return big, small, l, r, 1.0 - r * l

    # the scan; the grid's Q2/q2 ratios are shared by all draws.  q2 underflows at
    # the last level on steep right tails, where R is then infinite and S -inf
    grid = np.append(np.arange(1, 65) / 65.0, 1.0 - 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, _, r, r_prime = level(grid)
    # (1 - grid) - k r, in place: subtracting into a new (n, 65) array from the
    # broadcast (65,) operand takes several times as long
    s_grid = k_times(k[:, None], r)
    np.subtract(1.0 - grid, s_grid, out=s_grid)
    crossed = s_grid <= v[:, None]
    cell = np.argmax(crossed, axis=1)
    i = np.arange(v.size)
    if not crossed[i, cell].all():
        raise ConvergenceError("conditional survival failed to cross the draw level")
    ends = np.concatenate(([0.0], grid))
    lo, hi = ends[cell], ends[cell + 1]

    # the cubic Hermite start on the cell, from S and dS/dw = -1 - k R' at its
    # ends; where S is -inf at its top (k > 0 against an infinite R), t = 0 and
    # _hermite drops the NaN of -inf/-inf for the cell's bottom
    r_prime = np.concatenate(([1.0 / a], r_prime))
    w = _hermite(lo, hi, np.where(cell == 0, 1.0, s_grid[i, cell - 1]), s_grid[i, cell],
                 -1.0 - k_times(k, r_prime[cell]), -1.0 - k_times(k, r_prime[cell + 1]), v)

    def step(j, w):
        # the residual at w and a Halley step d; x2 = g (Q2 + q2 d + q2 l d^2/2)
        big, small, l, r, r_prime = level(w)
        kj = k[j]
        f = residual(w, v[j], kj, r)
        fp = 1.0 + k_times(kj, r_prime)
        fpp = k_times(kj, r * (alpha / (w * w) + beta / ((1.0 - w) * (1.0 - w))) - r_prime * l)
        d = -2.0 * f * fp / (2.0 * fp * fp - f * fpp)
        x2[j] = _scaled(g[j], big + small * d * (1.0 + 0.5 * l * d))
        return f, d

    # one pass at the starts, which settles most draws, and a second for the
    # draws it leaves (mostly in the top cells, where Q2/q2 is far from cubic
    # on a cell); the rest solve on their narrowed brackets, x2 = g Q2 at the root
    x2 = np.empty(v.size)
    rest = _halley_passes(step, w, lo, hi)
    if rest.size:
        lo, hi, start = lo[rest], hi[rest], w[rest]
        start = np.where((start > lo) & (start < hi), start, 0.5 * (lo + hi))
        v_rest, k_rest = v[rest], k[rest]

        def h(w):
            _, _, _, r, r_prime = level(w)
            return residual(w, v_rest, k_rest, r), 1.0 + k_times(k_rest, r_prime)

        x2[rest] = _scaled(g[rest], big_q1(m2, _newton_bisect(h, lo, hi, start, cfg)))
    return x2
