"""The benchmark's workloads: op lists generated from a seed, and their checks.

A workload turns a seed and an op count into a deterministic list of op
specs (plain data), runs one op through an ``api`` namespace of bivqf
entry points, and checks the op's result.  ``op_s`` is an op's rough
cost in reference seconds (see speed.py), used only to size a run;
``block`` is the number of ops a run's count is a multiple of.  Checks
and oracles never run inside the timed region.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import ClassVar


class CheckFailed(Exception):
    """An op returned a result that fails its check."""


def api_of(bivqf) -> SimpleNamespace:
    """The entry points the workloads call, as plain attributes."""
    return SimpleNamespace(
        cli_main=bivqf.cli.main,
        draw=bivqf.sampling.draw,
        fit_bivariate=bivqf.fit.fit_bivariate,
        ks_marginal=bivqf.gof.ks_marginal,
        ks_conditional=bivqf.gof.ks_conditional,
        sample_lcomoments=bivqf.comoment.sample_lcomoments,
        make_case=bivqf.catalog.make_case,
        generic_joint_survival=bivqf.catalog.generic_joint_survival,
        generic_marginal_cdf=bivqf.catalog.generic_marginal_cdf,
    )


# ---------------------------------------------------------------------------
# reproduce


# rows of `bivqf reproduce` documented in the README as not reproducible
KNOWN_OUT = frozenset({
    ("cable", "theta"),
    ("components", "theta"),
    ("components", "D21 (pooled)"),
    ("cable", "L-correlation (sample estimator)"),
    ("components", "MRQ D1"),
})


@dataclass
class Reproduce:
    """The paper's table as a CLI user gets it; the seed is unused."""

    src: Path
    work: Path
    speed: object  # speed.Speed, sampled while the child runs
    in_process: bool
    name: ClassVar[str] = "reproduce"
    block: ClassVar[int] = 1
    op_s: ClassVar[float] = 10.0

    def ops(self, seed: int, n: int) -> list:
        return [None] * n

    def run(self, op, api) -> dict:
        out = self.work / "reproduce"
        report = Path(f"{out}.report.json")
        report.unlink(missing_ok=True)
        if self.in_process:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = api.cli_main(["reproduce", "--out", str(out)])
        else:
            env = dict(os.environ, PYTHONPATH=str(self.src))
            code = self.speed.wait(subprocess.Popen(
                [sys.executable, "-m", "bivqf.cli", "reproduce", "--out", str(out)],
                env=env, cwd=self.work, stdout=subprocess.DEVNULL))
        rows = (json.loads(report.read_text(encoding="utf-8"))["results"]["rows"]
                if code == 0 else None)
        return {"code": code, "rows": rows}

    def check(self, op, res: dict) -> None:
        if res["code"] != 0:
            raise CheckFailed(f"reproduce exited with code {res['code']}")
        rows = res["rows"]
        out = {(r["case"], r["quantity"]) for r in rows if r["verdict"] == "OUT"}
        n_ok = sum(r["verdict"] == "ok" for r in rows)
        if len(rows) != 29 or n_ok != 24 or out != KNOWN_OUT:
            raise CheckFailed(f"{len(rows)} rows, {n_ok} ok, OUT rows {sorted(out)}")


# ---------------------------------------------------------------------------
# bootstrap


# the published fits pinned in tests/test_acceptance.py (cable shapes with
# corrected signs): (c1, alpha1, beta1), (c2, alpha2, beta2), theta
PUBLISHED = {
    "cable": ((9.0819, -0.4864, -0.9946), (29.2295, -0.3406, -0.3531), 0.6821),
    "components": ((13.0499, 0.8856, -0.1844), (5.9257, 0.3555, -0.6695), 0.5492),
}
LARGE_N = 1000
# per block of replicates: half per model, one in five at n = 1000 and one
# in four with the transform sampler, in both size groups
BLOCK = 20
SIZES = ((True, 4, 1), (False, 16, 4))  # (n = 1000, replicates, transform)
# A replicate's cost depends on its random sample (0.005-0.3 s at small n),
# so seed-drawn replicates made the median op time of a 100-op run vary
# by 12% between seeds from the inputs alone.  Every run therefore replays
# the same replicates, drawn from this constant, and the seed orders them.
REPLICATE_SEED = 0


@dataclass(frozen=True)
class BootstrapOp:
    model: str
    sampler_seed: int
    n: int
    method: str


@dataclass
class Bootstrap:
    """Parametric-bootstrap replicates of a published fit, in-process."""

    bivqf: object
    name: ClassVar[str] = "bootstrap"
    block: ClassVar[int] = BLOCK
    op_s: ClassVar[float] = 0.25

    def ops(self, seed: int, n: int) -> list[BootstrapOp]:
        """The first `n` replicates drawn from REPLICATE_SEED, in the seed's order."""
        rng = random.Random(REPLICATE_SEED)
        datasets = self.bivqf.data.BUILTIN_DATASETS
        ops: list[BootstrapOp] = []
        while len(ops) < n:
            block = []
            for big, count, transform in SIZES:
                models = ["cable", "components"] * (count // 2)
                methods = ["transform"] * transform + ["exact"] * (count - transform)
                rng.shuffle(methods)
                block += [(big, m, method) for m, method in zip(models, methods)]
            ops += [BootstrapOp(model, rng.randrange(2 ** 31),
                                LARGE_N if big else datasets[model].n, method)
                    for big, model, method in block]
        ops = ops[:n]
        random.Random(seed).shuffle(ops)
        return ops

    def params(self, model: str):
        m = self.bivqf.model
        (c1, a1, b1), (c2, a2, b2), theta = PUBLISHED[model]
        return m.BivariateParams(m.MarginalParams(c1, a1, b1),
                                 m.MarginalParams(c2, a2, b2), theta)

    def run(self, op: BootstrapOp, api) -> tuple:
        s = api.draw(self.params(op.model),
                     self.bivqf.sampling.SamplerSpec(op.sampler_seed, op.n, op.method))
        fit = api.fit_bivariate(s)
        d1 = api.ks_marginal(s.x1, fit.params.m1)
        d21 = api.ks_conditional(s, fit.params)
        lcm = api.sample_lcomoments(s)
        return s, fit, d1, d21, lcm

    def check(self, op: BootstrapOp, res: tuple) -> None:
        s, fit, d1, d21, lcm = res
        if s.n != op.n:
            raise CheckFailed(f"drew {s.n} pairs, asked for {op.n}")
        x1, x2 = s.x1, s.x2
        lm1 = self.bivqf.lmom.sample_lmoments(x1).l1
        lm2 = self.bivqf.lmom.sample_lmoments(x2).l1
        target = sum(a * b for a, b in zip(x1, x2)) / s.n
        r = fit.residuals
        # the scale equation is solved exactly; theta by Brent to root_tol,
        # which leaves the product moment within its quadrature tolerance
        if abs(r["l1_m1"]) > 1e-9 * max(1.0, abs(lm1)):
            raise CheckFailed(f"l1_m1 residual {r['l1_m1']}")
        if abs(r["l1_m2"]) > 1e-9 * max(1.0, abs(lm2)):
            raise CheckFailed(f"l1_m2 residual {r['l1_m2']}")
        if fit.params.theta > 0.0:
            if abs(r["product_moment"]) > 1e-9 * max(1.0, abs(target)):
                raise CheckFailed(f"product-moment residual {r['product_moment']}")
        elif not (r["product_moment"] >= 0.0 and fit.warnings):
            raise CheckFailed("theta = 0 without the independence warning")
        for g in (d1, d21):
            if g.n != op.n or not (1.0 / (2 * g.n) <= g.d_stat <= 1.0):
                raise CheckFailed(f"K-S statistic {g.d_stat} at n = {g.n}")
            if not 0.0 <= g.p_value <= 1.0:
                raise CheckFailed(f"K-S p-value {g.p_value}")
        values = [getattr(lcm, f) for f in lcm.__dataclass_fields__]
        if not (all(math.isfinite(v) for v in values)
                and abs(lcm.rho12) <= 1.0 and abs(lcm.rho21) <= 1.0):
            raise CheckFailed(f"sample L-comoments {lcm}")


# ---------------------------------------------------------------------------
# catalog-grid


POINTS = 32
TOLERANCE = 1e-9  # closed vs generic, as in tests/test_catalog.py
MARGINAL_ONLY = frozenset({"sine", "scaled-t2"})


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _natural(rng: random.Random) -> list[tuple[str, dict, str]]:
    """(case, natural parameters, name of the scale parameter) per case."""
    shape = lambda: _log_uniform(rng, 0.5, 3.0)  # noqa: E731
    scale = lambda: _log_uniform(rng, 0.5, 4.0)  # noqa: E731
    tail = lambda: _log_uniform(rng, 1.5, 4.0)  # noqa: E731
    ll = lambda: rng.uniform(0.3, 0.9)  # noqa: E731
    return [
        ("power", dict(a1=shape(), b1=scale(), a2=shape(), b2=scale()), "b"),
        ("uniform", dict(b1=scale(), b2=scale()), "b"),
        ("exponential", dict(c1=scale(), c2=scale()), "c"),
        ("rescaled-beta", dict(a1=shape(), b1=scale(), a2=shape(), b2=scale()), "b"),
        ("pareto1", dict(sigma1=scale(), a1=tail(), sigma2=scale(), a2=tail()), "sigma"),
        ("pareto2", dict(d1=tail(), b1=scale(), d2=tail(), b2=scale()), "b"),
        ("loglogistic", dict(a1=ll(), b1=scale(), a2=ll(), b2=scale()), "b"),
        ("sine", dict(scale1=scale(), scale2=scale()), "scale"),
        ("scaled-t2", dict(c1=scale(), c2=scale()), "c"),
    ]


@dataclass(frozen=True)
class CaseSweep:
    case: str
    natural: tuple[tuple[str, float], ...]
    points: tuple[tuple[float, float], ...]


@dataclass
class CatalogGrid:
    """One sweep over the nine catalog cases with a closed oracle."""

    bivqf: object
    name: ClassVar[str] = "catalog-grid"
    block: ClassVar[int] = 1
    op_s: ClassVar[float] = 0.05

    def ops(self, seed: int, n: int) -> list[tuple[CaseSweep, ...]]:
        rng = random.Random(seed)
        return [self._sweep(rng) for _ in range(n)]

    @staticmethod
    def _sweep(rng: random.Random) -> tuple[CaseSweep, ...]:
        theta = rng.uniform(0.0, 2.0)
        sweep = []
        for case, nat, key in _natural(rng):
            nat["theta"] = theta
            s1, s2 = nat[f"{key}1"], nat[f"{key}2"]
            pts = []
            for _ in range(POINTS):
                # 0.05x to 3x the scale: both sides of bounded supports
                x1 = s1 * _log_uniform(rng, 0.05, 3.0)
                x2 = s2 * _log_uniform(rng, 0.05, 3.0)
                if case == "scaled-t2":  # support is the whole line
                    x1 *= rng.choice((-1.0, 1.0))
                    x2 *= rng.choice((-1.0, 1.0))
                pts.append((x1, x2))
            sweep.append(CaseSweep(case, tuple(nat.items()), tuple(pts)))
        return tuple(sweep)

    @staticmethod
    def _values(sweep, make_case, joint, marginal) -> list[list[float]]:
        out = []
        for c in sweep:
            entry = make_case(c.case, **dict(c.natural))
            if c.case in MARGINAL_ONLY:
                out.append([marginal(entry, 1 + k % 2, p[k % 2])
                            for k, p in enumerate(c.points)])
            else:
                out.append([joint(entry, x1, x2) for x1, x2 in c.points])
        return out

    def run(self, sweep, api) -> list[list[float]]:
        return self._values(sweep, api.make_case, api.generic_joint_survival,
                            api.generic_marginal_cdf)

    def check(self, sweep, res: list[list[float]]) -> None:
        cat = self.bivqf.catalog
        closed = self._values(sweep, cat.make_case, cat.closed_joint_survival,
                              cat.closed_marginal_cdf)
        for c, got, want in zip(sweep, res, closed):
            for p, g, w in zip(c.points, got, want):
                if not abs(g - w) <= TOLERANCE:
                    raise CheckFailed(f"{c.case} at {p}: generic {g!r}, closed {w!r}")
