"""Command-line interface.

Subcommands: fit, gof, lmoments, comoments, sample, compare, catalog,
reproduce.  Reports are JSON with a fixed field order (floats round-trip
losslessly); Q-Q data goes to tab-separated files.  Exit codes: 0 ok,
2 data error, 3 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .catalog import CATALOG_NAMES, CatalogEntry, make_case
from .comoment import population_lcomoments, sample_lcomoments
from .data import BUILTIN_DATASETS, PairedSample, ingest
from .errors import BivqfError, ConvergenceError, DomainError, ParseError
from .fit import MrqParams, fit_bivariate, fit_mrq
from .gof import ks_conditional, ks_marginal, mrq_ks_conditional, mrq_ks_marginal, qq_data
from .lmom import population_lmoments, sample_lmoments
from .model import BivariateParams, MarginalParams, NumericConfig, big_q1
from .sampling import SamplerSpec, draw

EXIT_OK = 0
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class _UsageError(ValueError):
    """Bad command-line input found after argument parsing (exit 64)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quad-tol", type=float, default=None,
                   help="override quadrature relative tolerance")
    p.add_argument("--root-tol", type=float, default=None,
                   help="override root-finding tolerance on u")
    p.add_argument("--out", type=str, default=None,
                   help="output stem for report files (default: print to stdout)")


def _add_natural(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="natural parameter for the catalog case, e.g. c1=1")
    p.add_argument("--theta", type=float, default=0.0)


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", help="c1,alpha1,beta1,c2,alpha2,beta2,theta")
    p.add_argument("--catalog", choices=CATALOG_NAMES)
    _add_natural(p)


def _numeric_config(args) -> NumericConfig:
    for flag, val in (("--quad-tol", args.quad_tol), ("--root-tol", args.root_tol)):
        if val is not None and not val > 0.0:
            raise _UsageError(f"{flag} must be positive, got {val}")
    kw = {}
    if args.quad_tol is not None:
        kw["quad_rel_tol"] = args.quad_tol
        kw["quad_abs_tol"] = args.quad_tol * 1e-2
    if args.root_tol is not None:
        kw["root_tol"] = args.root_tol
    return NumericConfig(**kw)


def _digest(s: PairedSample) -> str:
    h = hashlib.sha256()
    for a, b in s.rows:
        h.update(f"{a!r},{b!r};".encode())
    return h.hexdigest()[:16]


def _report(args, s: PairedSample | None, cfg: NumericConfig, results: dict,
            warnings: list[str]) -> dict:
    rep = {"command": " ".join(sys.argv[1:]), "version": __version__}
    if s is not None:
        rep["input"] = {"source": s.source, "n": s.n, "digest": _digest(s)}
    rep["numeric_config"] = asdict(cfg)
    rep["results"] = results
    rep["warnings"] = warnings
    return rep


def _emit(args, rep: dict, extra_files: dict[str, str] | None = None) -> None:
    text = json.dumps(rep, indent=2)
    if args.out:
        path = Path(f"{args.out}.report.json")
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path}")
    else:
        print(text)
    for suffix, content in (extra_files or {}).items():
        if args.out:
            p = Path(f"{args.out}.{suffix}")
            p.write_text(content, encoding="utf-8")
            print(f"wrote {p}")


def _marginal_dict(m: MarginalParams) -> dict:
    return {"c": m.c, "alpha": m.alpha, "beta": m.beta}


def _number(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"{flag} expects numbers, got {text!r}") from None


def _catalog_entry(name: str, pairs: list[str] | None, theta: float) -> CatalogEntry:
    natural = {}
    for kv in pairs or []:
        key, _, val = kv.partition("=")
        if key == "theta":
            raise _UsageError("give theta with --theta, not --param theta=VALUE")
        natural[key] = _number(f"--param {key}", val)
    natural["theta"] = theta
    try:
        return make_case(name, **natural)
    except KeyError as e:
        raise _UsageError(
            f"catalog case {name!r} needs --param {e.args[0]}=VALUE") from None
    except DomainError as e:
        raise _UsageError(str(e)) from None


def _model(args) -> BivariateParams | None:
    """The model given by --catalog/--param/--theta or --params, or None."""
    if args.catalog:
        return _catalog_entry(args.catalog, args.param, args.theta).params
    if args.params:
        vals = [_number("--params", v) for v in args.params.split(",")]
        if len(vals) != 7:
            raise _UsageError("--params expects 7 values c1,alpha1,beta1,c2,alpha2,beta2,"
                              f"theta, got {len(vals)}")
        try:
            return BivariateParams(MarginalParams(*vals[0:3]),
                                   MarginalParams(*vals[3:6]), vals[6])
        except DomainError as e:
            raise _UsageError(f"--params: {e}") from None
    return None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    cfg = _numeric_config(args)
    s = ingest(args.data)
    res = fit_bivariate(s, cfg)
    results = {
        "marginal1": _marginal_dict(res.params.m1),
        "marginal2": _marginal_dict(res.params.m2),
        "theta": res.params.theta,
        "theta_bracket": list(res.theta_bracket),
        "sample_lmoments_x1": asdict(res.sample_lmoments[0]),
        "sample_lmoments_x2": asdict(res.sample_lmoments[1]),
        "residuals": res.residuals,
    }
    _emit(args, _report(args, s, cfg, results, list(res.warnings)))
    return EXIT_OK


def _gof_results(s: PairedSample, bp: BivariateParams, cfg: NumericConfig,
                 mode: str) -> tuple[dict, dict[str, str]]:
    g1 = ks_marginal(s.x1, bp.m1, cfg)
    out = {
        "marginal1": {"d_stat": g1.d_stat, "d_point": g1.d_point,
                      "p_value_approx": g1.p_value, "n_clamped": g1.n_clamped},
    }
    if mode == "per-point":
        per = ks_conditional(s, bp, cfg, mode="per-point")
        out["conditional_per_point"] = [
            {"x1": g.cond_x1, "d_stat": g.d_stat, "d_point": g.d_point}
            for g in per
        ]
    else:
        g2 = ks_conditional(s, bp, cfg, mode="pooled")
        out["conditional_pooled"] = {"d_stat": g2.d_stat, "d_point": g2.d_point,
                                     "p_value_approx": g2.p_value,
                                     "n_clamped": g2.n_clamped}
    qq1 = qq_data(s.x1, lambda p: big_q1(bp.m1, p, cfg))
    qq2 = qq_data(s.x2, lambda p: big_q1(bp.m2, p, cfg))
    return out, {"qq1.tsv": qq1.to_tsv(), "qq2.tsv": qq2.to_tsv()}


def _cmd_gof(args) -> int:
    cfg = _numeric_config(args)
    s = ingest(args.data)
    bp = _model(args) or fit_bivariate(s, cfg).params
    results, files = _gof_results(s, bp, cfg, args.mode)
    results["model"] = {
        "marginal1": _marginal_dict(bp.m1),
        "marginal2": _marginal_dict(bp.m2),
        "theta": bp.theta,
    }
    _emit(args, _report(args, s, cfg, results, []), files)
    return EXIT_OK


def _cmd_lmoments(args) -> int:
    cfg = _numeric_config(args)
    s = ingest(args.data)
    results = {}
    for label, col in (("x1", s.x1), ("x2", s.x2)):
        lm = sample_lmoments(col)
        results[label] = {**asdict(lm), "tau2": lm.tau2, "tau3": lm.tau3,
                          "tau4": lm.tau4}
    bp = _model(args)
    if bp is not None:
        for label, m in (("model_x1", bp.m1), ("model_x2", bp.m2)):
            lm = population_lmoments(m)
            results[label] = {**asdict(lm), "tau2": lm.tau2, "tau3": lm.tau3,
                              "tau4": lm.tau4}
    _emit(args, _report(args, s, cfg, results, []))
    return EXIT_OK


def _cmd_comoments(args) -> int:
    cfg = _numeric_config(args)
    s = ingest(args.data)
    results = {"sample": asdict(sample_lcomoments(s))}
    bp = _model(args)
    if bp is not None:
        results["population"] = asdict(population_lcomoments(bp, cfg))
    _emit(args, _report(args, s, cfg, results, []))
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = _numeric_config(args)
    if args.seed < 0:
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    bp = _model(args)
    if bp is None:
        raise _UsageError("specify a model with --catalog/--param or --params")
    spec = SamplerSpec(seed=args.seed, n=args.n, method=args.method)
    s = draw(bp, spec, cfg)
    csv_text = s.to_csv()
    if args.out:
        path = Path(f"{args.out}.csv" if not args.out.endswith(".csv") else args.out)
        path.write_text(csv_text, encoding="utf-8")
        print(f"wrote {path}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _numeric_config(args)
    s = ingest(args.data)
    res = fit_bivariate(s, cfg)
    mrq = fit_mrq(s, cfg)
    g_prop = ks_marginal(s.x1, res.params.m1, cfg)
    g_mrq = mrq_ks_marginal(s.x1, mrq.params, cfg)
    c_prop = ks_conditional(s, res.params, cfg, mode="pooled")
    c_mrq = mrq_ks_conditional(s, mrq.params, cfg, mode="pooled")
    verdict = ("proposed" if g_prop.d_point < g_mrq.d_point else "competitor")
    results = {
        "proposed": {
            "marginal1": _marginal_dict(res.params.m1),
            "marginal2": _marginal_dict(res.params.m2),
            "theta": res.params.theta,
            "d1": g_prop.d_point, "d1_two_sided": g_prop.d_stat,
            "d21_pooled": c_prop.d_point,
        },
        "competitor": {
            "params": asdict(mrq.params),
            "d1": g_mrq.d_point, "d1_two_sided": g_mrq.d_stat,
            "d21_pooled": c_mrq.d_point,
        },
        "smaller_marginal_ks": verdict,
    }
    warnings = list(res.warnings) + [f"competitor: {w}" for w in mrq.warnings]
    _emit(args, _report(args, s, cfg, results, warnings))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.name:
        entry = _catalog_entry(args.name, args.param, args.theta)
        out = {
            "name": entry.name,
            "natural": entry.natural,
            "mapped": {
                "marginal1": _marginal_dict(entry.params.m1),
                "marginal2": _marginal_dict(entry.params.m2),
                "theta": entry.params.theta,
            },
            "loc": list(entry.loc),
            "closed_forms": {
                "marginal_cdf": entry.has_marginal_cdf,
                "conditional_survival": entry.has_conditional_survival,
                "joint_survival": entry.has_joint_survival,
            },
            "notes": list(entry.notes),
        }
        print(json.dumps(out, indent=2))
    else:
        print("\n".join(CATALOG_NAMES))
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce: both bundled case studies against their reference values


def _reproduce_rows(cfg: NumericConfig) -> list[dict]:
    rows: list[dict] = []

    def add(case, quantity, reference, computed, tol, note=""):
        ok = abs(computed - reference) <= tol
        rows.append({"case": case, "quantity": quantity, "reference": reference,
                     "computed": computed, "tolerance": tol,
                     "verdict": "ok" if ok else "OUT", "note": note})

    cable = BUILTIN_DATASETS["cable"]
    comp = BUILTIN_DATASETS["components"]

    # sample means
    add("cable", "l1(x1)", 17.622, sample_lmoments(cable.x1).l1, 0.001)
    add("components", "l1(x1)", 2.7975, sample_lmoments(comp.x1).l1, 0.0005)

    # marginal fits; the cable reference shapes carry corrected signs
    # (the published table dropped the minus signs; see README)
    fit_c = fit_bivariate(cable, cfg)
    fit_k = fit_bivariate(comp, cfg)
    for case, fit_res, refs in (
        ("cable", fit_c, ((9.0819, -0.4864, -0.9946), (29.2295, -0.3406, -0.3531))),
        ("components", fit_k, ((13.0499, 0.8856, -0.1844), (5.9257, 0.3555, -0.6695))),
    ):
        for i, (m, ref) in enumerate(zip((fit_res.params.m1, fit_res.params.m2), refs), 1):
            for name, rv, cv in zip(("c", "alpha", "beta"), ref,
                                    (m.c, m.alpha, m.beta)):
                add(case, f"{name}{i}", rv, cv, abs(rv) * 0.05)

    # dependence fits: not reproducible from the stated moment equation
    add("cable", "theta", 0.6821, fit_c.params.theta, 0.05,
        note="product-moment equation gives a different root")
    add("components", "theta", 0.5492, fit_k.params.theta, 0.05,
        note="sample product mean is below the independence value")

    # K-S with published parameters (signs corrected for cable); the
    # reference convention is the supremum over sample points only
    bp_c = BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                           MarginalParams(29.2295, -0.3406, -0.3531), 0.6821)
    bp_k = BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                           MarginalParams(5.9257, 0.3555, -0.6695), 0.5492)
    add("cable", "D1", 0.097, ks_marginal(cable.x1, bp_c.m1, cfg).d_point, 0.005)
    add("cable", "D21,1", 0.155,
        ks_conditional(cable, bp_c, cfg, mode="per-point")[0].d_point, 0.01)
    add("components", "D1", 0.110, ks_marginal(comp.x1, bp_k.m1, cfg).d_point, 0.005)
    add("components", "D21 (per-point, smallest x1)", 0.133,
        ks_conditional(comp, bp_k, cfg, mode="per-point")[0].d_point, 0.01)
    add("components", "D21 (pooled)", 0.133,
        ks_conditional(comp, bp_k, cfg, mode="pooled").d_point, 0.01,
        note="pooled variant, shown for comparison")

    # L-correlation: population value at the published cable model;
    # the sample rank estimator is also shown (the pairs are comonotone)
    add("cable", "L-correlation (population at published fit)", 0.53,
        population_lcomoments(bp_c, cfg).rho12, 0.05)
    add("cable", "L-correlation (sample estimator)", 0.53,
        sample_lcomoments(cable).rho12, 0.05,
        note="comonotone pairs force a high sample value")

    # competitor on the components data, published coefficients
    mrq_pub = MrqParams(a1=2.798, b1=0.159, a2=3.086, b2=4.628, c=0.086, d=-7.16)
    add("components", "MRQ D1", 0.126,
        mrq_ks_marginal(comp.x1, mrq_pub, cfg).d_point, 0.005,
        note="published value needs the -2*b1*u term dropped")
    add("components", "MRQ D21 (pooled)", 0.322,
        mrq_ks_conditional(comp, mrq_pub, cfg, mode="pooled").d_point, 0.02)

    # competitor fit on our side
    mrq_fit = fit_mrq(comp, cfg)
    for name, ref in (("a1", 2.798), ("b1", 0.159), ("a2", 3.086), ("c", 0.086)):
        add("components", f"MRQ {name}", ref, getattr(mrq_fit.params, name),
            max(abs(ref) * 0.02, 0.002))
    return rows


def _cmd_reproduce(args) -> int:
    cfg = _numeric_config(args)
    rows = _reproduce_rows(cfg)
    w_case = max(len(r["case"]) for r in rows)
    w_q = max(len(r["quantity"]) for r in rows)
    print(f"{'case':<{w_case}}  {'quantity':<{w_q}}  {'reference':>10}  "
          f"{'computed':>12}  {'tol':>8}  verdict")
    out_notes = []
    for r in rows:
        print(f"{r['case']:<{w_case}}  {r['quantity']:<{w_q}}  "
              f"{r['reference']:>10.4f}  {r['computed']:>12.4f}  "
              f"{r['tolerance']:>8.4f}  {r['verdict']}")
        if r["verdict"] == "OUT" and r["note"]:
            out_notes.append(f"  {r['case']} / {r['quantity']}: {r['note']}")
    n_ok = sum(r["verdict"] == "ok" for r in rows)
    print(f"\n{n_ok}/{len(rows)} reference values reproduced within tolerance.")
    if out_notes:
        print("known irreproducible reference values:")
        print("\n".join(out_notes))
    if args.out:
        Path(f"{args.out}.report.json").write_text(
            json.dumps(_report(args, None, cfg, {"rows": rows}, []), indent=2) + "\n",
            encoding="utf-8")
        print(f"wrote {args.out}.report.json")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    ap = _Parser(prog="bivqf",
                 description="Quantile-density bivariate distribution toolkit")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def data_cmd(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--data", required=True,
                       help="CSV path or builtin dataset (cable, components)")
        _add_common(p)
        p.set_defaults(fn=fn)
        return p

    data_cmd("fit", _cmd_fit, help="fit the family by the method of L-moments")

    p = data_cmd("gof", _cmd_gof, help="K-S tests and Q-Q data")
    _add_model(p)
    p.add_argument("--mode", choices=("pooled", "per-point"), default="pooled")

    for name, fn in (("lmoments", _cmd_lmoments), ("comoments", _cmd_comoments)):
        _add_model(data_cmd(name, fn, help=f"sample (and population) {name}"))

    p = sub.add_parser("sample", help="draw from the model")
    _add_model(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=("transform", "exact"), default="transform")
    _add_common(p)
    p.set_defaults(fn=_cmd_sample)

    data_cmd("compare", _cmd_compare,
             help="side-by-side fit and K-S against the competitor model")

    p = sub.add_parser("catalog", help="list catalog cases or show one mapping")
    p.add_argument("name", nargs="?", choices=CATALOG_NAMES)
    _add_natural(p)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("reproduce",
                       help="run both bundled case studies against reference values")
    _add_common(p)
    p.set_defaults(fn=_cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        out = getattr(args, "out", None)
        if out and not Path(out).parent.is_dir():
            raise _UsageError(f"--out directory {str(Path(out).parent)!r} does not exist")
        return args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceError,) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except BivqfError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
