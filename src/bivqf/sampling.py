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
from .model import (BivariateParams, DEFAULT_NUMERIC_CONFIG, NumericConfig, _halley_passes,
                    _hermite, _newton_bisect, _q_density, big_q1)

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
    """Invert S(. | x1) = v for each draw; w is the conditional PIT level.

    With R = Q2/q2, S(w) = (1 - w) - k R(w), and each draw solves v - S = 0
    as w - (1 - v) + k R below w = 1/2 and v - (1 - w) + k R above it:
    1 - v is exact for v >= 1/2 and 1 - w for w >= 1/2, so neither rounds
    where the difference cancels.  The first of 65 scan cells, the last
    from 64/65 to 1 - 1e-12, whose right end has S <= v holds the first
    crossing; a draw no cell catches raises ConvergenceError.  A draw
    starts at the cubic Hermite inverse of S on its cell, from S at both
    ends (the scan's) and dS/dw = -1 - k R', with R' = 1 - R l,
    l = d(log q2)/dw = alpha2/w - beta2/(1-w) and R'(0) = 1/(alpha2+1);
    a slope >= 0 (the dip of S lies in the cell) gives way to the secant.
    One pass of Q2 and q2 at the starts takes a Halley step d and narrows
    the bracket; a draw settles when |d| <= 1e-6 min(w, 1-w) and w + d
    stays in that bracket: x2 = g (Q2 + q2 d + q2 l d^2/2).  A draw left
    takes a second pass at w + d if that lies inside it
    (model._halley_passes).  The rest run _newton_bisect on the narrowed
    bracket, and x2 is the same expansion about each one's last
    evaluation.  Where k = 0 (u1 = 1, or theta (1 - u1) underflowing),
    S = 1 - w, and every product with k is 0 for that draw, even against
    an infinite R.
    """
    m2 = bp.m2
    th = bp.theta
    if m2.alpha <= -1.0:
        raise DomainError("exact sampler requires alpha2 > -1 (nonnegative support)")
    g = 1.0 + th * u1
    k = (1.0 - u1) * th / g
    if th == 0.0:  # S = 1 - w; the scan below would miss v < 1e-12
        return big_q1(m2, 1.0 - v)

    if m2.beta == 0.0:
        # Q2/q2 = w/(alpha2+1): S is linear in w, closed-form inversion
        w = (1.0 - v) / (1.0 + k / (m2.alpha + 1.0))
        return g * big_q1(m2, w)

    _, upper, row = m2._plan
    alpha, beta = m2.alpha, m2.beta

    def k_times(k, a):
        # k a, and 0 where k = 0, so that no 0 * inf forms against an infinite R
        return np.multiply(k, a, out=np.zeros(np.broadcast(k, a).shape), where=k != 0.0)

    def residual(w, v, k, r):
        # v - S, with no rounding in 1 - v for v >= 1/2 nor in 1 - w for w >= 1/2
        return np.where(w < 0.5, w - (1.0 - v), v - (1.0 - w)) + k_times(k, r)

    def level(w):
        # Q2, q2, l, R and R' at w in (0, 1): big_q1's checks and masks are skipped
        big, small, l = row.q(m2, w, upper), _q_density(m2, w), alpha / w - beta / (1.0 - w)
        r = big / small
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

    # the cubic Hermite start on the cell; where S is -inf at its top (k > 0 against
    # an infinite R), _hermite drops the NaN of -inf/-inf for t = 0, its bottom
    s0 = np.where(cell == 0, 1.0, s_grid[i, cell - 1])
    s1 = s_grid[i, cell]
    secant = (s1 - s0) / (hi - lo)
    r_prime = np.concatenate(([1.0 / (alpha + 1.0)], r_prime))
    with np.errstate(invalid="ignore"):
        m0, m1 = (secant / np.where(s < 0.0, s, secant)
                  for s in (-1.0 - k_times(k, r_prime[cell]),
                            -1.0 - k_times(k, r_prime[cell + 1])))
    w = lo + (hi - lo) * _hermite((s0 - v) / (s0 - s1), m0, m1)

    def step(j, w):
        # the residual at w and a Halley step d; x2 = g (Q2 + q2 d + q2 l d^2/2)
        big, small, l, r, r_prime = level(w)
        kj = k[j]
        f = residual(w, v[j], kj, r)
        fp = 1.0 + k_times(kj, r_prime)
        fpp = k_times(kj, r * (alpha / (w * w) + beta / ((1.0 - w) * (1.0 - w))) - r_prime * l)
        d = -2.0 * f * fp / (2.0 * fp * fp - f * fpp)
        x2[j] = g[j] * (big + small * d * (1.0 + 0.5 * l * d))
        return f, d

    # one pass at the starts, which settles most draws, and a second for the
    # draws it leaves (mostly in the top cells, where Q2/q2 is far from cubic
    # on a cell)
    x2 = np.empty(v.size)
    rest = _halley_passes(step, w, lo, hi)
    if not rest.size:
        return x2

    lo, hi, start = lo[rest], hi[rest], w[rest]
    start = np.where((start > lo) & (start < hi), start, 0.5 * (lo + hi))
    v_rest, k_rest = v[rest], k[rest]
    last = np.empty((4, lo.size))  # w, Q2, q2 and l at each draw's last evaluation

    def h(w):
        big, small, l, r, r_prime = level(w)
        last[:] = w, big, small, l
        return residual(w, v_rest, k_rest, r), 1.0 + k_times(k_rest, r_prime)

    d = _newton_bisect(h, lo, hi, start, cfg) - last[0]
    _, big, small, l = last
    x2[rest] = g[rest] * (big + small * d * (1.0 + 0.5 * l * d))
    return x2
