"""Goodness of fit: K-S statistics, p-values, and Q-Q plot data.

PIT values come from numerically inverting the fitted quantile function
at the observations (clamped at the support with a counted flag), one
f1 call per sample: each value on a corner margin, and each value of a
sample of more than 64 values inside the support on a beta margin,
starts from Q at the 127 levels k/128 and takes Halley steps on Q, its
PIT within 1e-13 min(u, 1-u) + 4e-16 |x|/q(u) of its own exact solve at
the published fits and independent of the rest of the sample; beta-margin
samples of at most 64 such values are inverted value by value.  Two
empirical-CDF conventions are carried side by side:

- ``d_stat``: the standard two-sided statistic
  max_i max(i/n - u_(i), u_(i) - (i-1)/n);
- ``d_point``: the supremum over sample points of |i/n - u_(i)| only
  (no left limits).  Published reference K-S values for the two bundled
  datasets follow this second convention, so reproduction tests pin it.

Conditional tests come in two modes: ``pooled`` transforms each pair by
its own conditioning level and tests the pooled PIT values against
uniformity; ``per-point`` fixes one conditioning level and tests the
whole second sample against the conditional law at that level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .data import PairedSample
from .errors import DomainError, InsufficientDataError
from .fit import MrqParams, mrq_conditional_cdf, mrq_marginal1_cdf
from .model import (
    BivariateParams,
    DEFAULT_NUMERIC_CONFIG,
    MarginalParams,
    NumericConfig,
    f1_flagged,
)

__all__ = ["GofResult", "QQData", "kolmogorov_pvalue", "ks_marginal",
           "ks_conditional", "mrq_ks_marginal", "mrq_ks_conditional", "qq_data"]


# the most PIT values one per-point cdf2 call computes: f1 keeps about 20 arrays of
# that size (per-point gof at n = 1000 peaks near 111 MB of RSS at 2**18, 70 MB here)
_BLOCK = 2 ** 15


@dataclass(frozen=True, eq=False)
class GofResult:
    """K-S statistics; `pit_values` is the sorted, read-only PIT array."""

    d_stat: float
    p_value: float
    pit_values: np.ndarray
    n: int
    method: str
    d_plus: float
    d_minus: float
    d_point: float
    n_clamped: int = 0
    cond_x1: float | None = None


def kolmogorov_pvalue(d: float, n: int) -> float:
    """Asymptotic two-sided K-S p-value 2 sum (-1)^(k-1) exp(-2 k^2 n d^2).

    The Kolmogorov survival function at sqrt(n) d, 1 for d <= 0.
    Parameters estimated from the same data make this approximate and
    conservative; it is reported as-is.
    """
    return float(kolmogorov(math.sqrt(n) * d))


def _ks_from_pit(pit: np.ndarray, method: str, clamped,
                 cond_x1: float | None = None) -> GofResult:
    """K-S statistics of PIT values; `clamped` holds their clamp flags (or 0)."""
    u = np.sort(pit)
    u.flags.writeable = False
    n = u.size
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - u))
    d_minus = float(np.max(u - (i - 1) / n))
    d_stat = max(d_plus, d_minus)
    d_point = float(np.max(np.abs(i / n - u)))
    return GofResult(
        d_stat=d_stat,
        p_value=kolmogorov_pvalue(d_stat, n),
        pit_values=u,
        n=n,
        method=method,
        d_plus=d_plus,
        d_minus=d_minus,
        d_point=d_point,
        n_clamped=int(np.count_nonzero(clamped)),
        cond_x1=cond_x1,
    )


def _ks_marginal(data, cdf) -> GofResult:
    """K-S of univariate data against an array CDF returning (pit, clamped)."""
    x = np.asarray(data, dtype=float)
    if x.size < 1:
        raise InsufficientDataError("empty sample")
    pit, clamped = cdf(x)
    return _ks_from_pit(pit, "marginal", clamped)


def _ks_conditional(s: PairedSample, cdf1, cdf2, mode: str):
    """The pooled and per-point conditional K-S drivers.

    cdf1(x1) gives the first component's PIT; cdf2(u1, x2) gives the
    conditional PIT of x2 given the levels u1, broadcast against x2, both
    as (pit, clamped).  Per-point mode passes a column of levels, at most
    _BLOCK elements per call.
    """
    if mode not in ("pooled", "per-point"):
        raise DomainError(f"unknown mode {mode!r}; use 'pooled' or 'per-point'")
    u1, _ = cdf1(s.x1)
    if mode == "pooled":
        pit, clamped = cdf2(u1, s.x2)
        return _ks_from_pit(pit, "conditional-pooled", clamped)
    # one call per block of levels, in x1 order, each level a row
    order, out = np.argsort(s.x1), []
    rows = max(1, _BLOCK // s.n)
    for idx in (order[i:i + rows] for i in range(0, s.n, rows)):
        pit, clamped = cdf2(u1[idx, None], s.x2)
        clamped = np.broadcast_to(clamped, pit.shape)
        out.extend(_ks_from_pit(pit[j], "conditional-per-point", clamped[j],
                                cond_x1=float(s.x1[i])) for j, i in enumerate(idx))
    return out


def _kept_pit(p: MarginalParams, x: np.ndarray, cfg: NumericConfig):
    """f1_flagged(p, x, cfg) as read-only arrays, kept on the margin for its last column.

    ks_marginal and the first component of ks_conditional both invert the
    same sample column, so the margin keeps one entry, keyed by (cfg,
    x.shape, x.tobytes()), as it keeps its plan; == and pickling skip it.
    """
    key = (cfg, x.shape, x.tobytes())
    kept = vars(p).get("_gof_pit")
    if kept is None or kept[0] != key:
        pit, clamped = (np.asarray(a) for a in f1_flagged(p, x, cfg))
        pit.flags.writeable = clamped.flags.writeable = False
        kept = vars(p)["_gof_pit"] = (key, pit, clamped)
    return kept[1], kept[2]


def ks_marginal(data, p: MarginalParams,
                cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> GofResult:
    """One-sample K-S of univariate data against a fitted marginal."""
    return _ks_marginal(data, lambda x: _kept_pit(p, x, cfg))


def ks_conditional(s: PairedSample, bp: BivariateParams,
                   cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG,
                   mode: str = "pooled"):
    """Conditional K-S for the second component given the first.

    mode='pooled' returns one GofResult from the pooled PIT values
    v_i = F2(x2_i / (1 + theta*u1_i)); mode='per-point' returns a list of
    GofResults, one per conditioning pair (ordered by ascending x1), each
    testing the whole x2 sample against the conditional law at that x1.
    """
    return _ks_conditional(s, lambda x1: _kept_pit(bp.m1, x1, cfg),
                           lambda u1, x2: f1_flagged(bp.m2, x2 / (1.0 + bp.theta * u1), cfg),
                           mode)


def _mrq_cdfs(p: MrqParams, cfg: NumericConfig):
    """The competitor's marginal and conditional array CDFs, as (pit, clamped)."""
    return (lambda x1: (mrq_marginal1_cdf(p, x1, cfg), 0),
            lambda u1, x2: (mrq_conditional_cdf(p, u1, x2, cfg), 0))


def mrq_ks_marginal(data, p: MrqParams,
                    cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG) -> GofResult:
    """K-S of the first margin under the competitor model."""
    return _ks_marginal(data, _mrq_cdfs(p, cfg)[0])


def mrq_ks_conditional(s: PairedSample, p: MrqParams,
                       cfg: NumericConfig = DEFAULT_NUMERIC_CONFIG,
                       mode: str = "pooled"):
    """Conditional K-S under the competitor model (same modes)."""
    return _ks_conditional(s, *_mrq_cdfs(p, cfg), mode)


# ---------------------------------------------------------------------------
# Q-Q data


@dataclass(frozen=True)
class QQData:
    """Rows of (plotting position, empirical quantile, model quantile)."""

    rows: tuple[tuple[float, float, float], ...]

    def to_tsv(self) -> str:
        lines = ["position\tempirical\tmodel"]
        for p, e, m in self.rows:
            lines.append(f"{p!r}\t{e!r}\t{m!r}")
        return "\n".join(lines) + "\n"


def qq_data(data, quantile_fn) -> QQData:
    """Q-Q rows: sorted data against model quantiles at i/(n+1).

    `quantile_fn` is called once, on the array of positions.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n < 2:
        raise InsufficientDataError("Q-Q data needs at least two observations")
    ps = np.arange(1, n + 1) / (n + 1.0)
    model = np.asarray(quantile_fn(ps), dtype=float)
    return QQData(tuple(zip(ps.tolist(), x.tolist(), model.tolist())))
