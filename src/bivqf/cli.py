"""Command-line interface.

Subcommands: fit, gof, lmoments, comoments, sample, compare, catalog,
reproduce.  Reports are strict (RFC 8259) JSON with a fixed field order
(floats round-trip losslessly; an undefined L-moment ratio is null, with
a warning); Q-Q data goes to tab-separated files.  Exit codes: 0 ok,
2 data error, 3 numeric failure, 64 usage error, 141 standard output
closed early.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .catalog import CATALOG_NAMES, CatalogEntry, make_case
from .comoment import population_lcomoments, sample_lcomoments
from .data import BUILTIN_DATASETS, PairedSample, ingest
from .errors import BivqfError, ConvergenceError, DomainError, ParseError
from .fit import MrqParams, fit_bivariate, fit_mrq
from .gof import ks_conditional, ks_marginal, mrq_ks_conditional, mrq_ks_marginal, qq_data
from .lmom import LMomentVector, population_lmoments, sample_lmoments
from .model import BivariateParams, MarginalParams, NumericConfig, big_q1
from .sampling import SamplerSpec, draw

EXIT_OK = 0
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64
# as the shell reports a process ended by SIGPIPE (128 + 13)
EXIT_PIPE = 141


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
    cfg = NumericConfig()
    for flag, name, val in (("--quad-tol", "quad_rel_tol", args.quad_tol),
                            ("--root-tol", "root_tol", args.root_tol)):
        if val is not None:
            try:
                cfg = replace(cfg, **{name: val})
            except DomainError:  # NumericConfig takes a positive, finite tolerance
                raise _UsageError(f"{flag} must be positive and finite, got {val}") from None
    return cfg


def _digest(s: PairedSample) -> str:
    h = hashlib.sha256()
    for a, b in s.rows:
        h.update(f"{a!r},{b!r};".encode())
    return h.hexdigest()[:16]


def _report(args, s: PairedSample | None, cfg: NumericConfig, results: dict,
            warnings: list[str]) -> dict:
    rep = {"command": " ".join(args.argv), "version": __version__}
    if s is not None:
        rep["input"] = {"source": s.source, "n": s.n, "digest": _digest(s)}
    rep["numeric_config"] = asdict(cfg)
    rep["results"] = results
    rep["warnings"] = warnings
    return rep


def _write(path: str, text: str) -> None:
    """Write one output file and say so on stdout."""
    p = Path(path)
    try:
        p.write_text(text, encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot write {p}: {e.strerror or e}") from None
    print(f"wrote {p}")


def _json(obj) -> str:
    """obj as strict JSON: a non-finite float, which JSON lacks, is a numeric failure."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise DomainError("the report holds a non-finite number, which JSON cannot carry") from None


def _emit(args, rep: dict, files: dict[str, str]) -> None:
    """Print the report, or write it and the extra files under --out."""
    text = _json(rep)
    if not args.out:
        print(text)
        return
    _write(f"{args.out}.report.json", text + "\n")
    for suffix, content in files.items():
        _write(f"{args.out}.{suffix}", content)


def _model_dict(bp: BivariateParams) -> dict:
    return {"marginal1": asdict(bp.m1), "marginal2": asdict(bp.m2), "theta": bp.theta}


def _lmoments_dict(lm: LMomentVector, column: str, warnings: list[str]) -> dict:
    """The L-moments and their ratios; a ratio with no value (its denominator
    not positive, or l1 = 0) is null, and a warning names it."""
    out = asdict(lm)
    for name, den in (("tau2", "l1"), ("tau3", "l2"), ("tau4", "l2")):
        out[name] = getattr(lm, name)
        if math.isnan(out[name]):
            out[name] = None
            warnings.append(f"{column}: {name} is null, as {den} = {getattr(lm, den)!r}")
    return out


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
# subcommands; those that read --data are bodies (args, s, cfg) ->
# (results, warnings, files) under _run_data


def _run_data(args) -> int:
    cfg = _numeric_config(args)
    s = ingest(args.data)
    results, warnings, files = args.body(args, s, cfg)
    _emit(args, _report(args, s, cfg, results, warnings), files)
    return EXIT_OK


def _cmd_fit(args, s: PairedSample, cfg: NumericConfig):
    res = fit_bivariate(s, cfg)
    results = {
        **_model_dict(res.params),
        "theta_bracket": list(res.theta_bracket),
        "sample_lmoments_x1": asdict(res.sample_lmoments[0]),
        "sample_lmoments_x2": asdict(res.sample_lmoments[1]),
        "residuals": res.residuals,
    }
    return results, list(res.warnings), {}


def _ks_dict(g) -> dict:
    return {"d_stat": g.d_stat, "d_point": g.d_point, "p_value_approx": g.p_value,
            "n_clamped": g.n_clamped}


def _cmd_gof(args, s: PairedSample, cfg: NumericConfig):
    bp = _model(args) or fit_bivariate(s, cfg).params
    results = {"marginal1": _ks_dict(ks_marginal(s.x1, bp.m1, cfg))}
    if args.mode == "per-point":
        results["conditional_per_point"] = [
            {"x1": g.cond_x1, "d_stat": g.d_stat, "d_point": g.d_point}
            for g in ks_conditional(s, bp, cfg, mode="per-point")
        ]
    else:
        results["conditional_pooled"] = _ks_dict(ks_conditional(s, bp, cfg, mode="pooled"))
    results["model"] = _model_dict(bp)
    files = {}
    if args.out:  # the Q-Q tables go to files only; stdout gets the report alone
        files = {f"qq{i}.tsv": qq_data(x, lambda p, m=m: big_q1(m, p)).to_tsv()
                 for i, (x, m) in enumerate(((s.x1, bp.m1), (s.x2, bp.m2)), 1)}
    return results, [], files


def _cmd_lmoments(args, s: PairedSample, cfg: NumericConfig):
    lms = {"x1": sample_lmoments(s.x1), "x2": sample_lmoments(s.x2)}
    bp = _model(args)
    if bp is not None:
        lms["model_x1"] = population_lmoments(bp.m1)
        lms["model_x2"] = population_lmoments(bp.m2)
    warnings: list[str] = []
    return {k: _lmoments_dict(lm, k, warnings) for k, lm in lms.items()}, warnings, {}


def _cmd_comoments(args, s: PairedSample, cfg: NumericConfig):
    results = {"sample": asdict(sample_lcomoments(s))}
    bp = _model(args)
    if bp is not None:
        results["population"] = asdict(population_lcomoments(bp, cfg))
    return results, [], {}


def _cmd_sample(args) -> int:
    cfg = _numeric_config(args)
    try:
        spec = SamplerSpec(seed=args.seed, n=args.n, method=args.method)
    except DomainError as e:  # its messages start with the field, seed or n
        raise _UsageError(f"--{e}") from None
    bp = _model(args)
    if bp is None:
        raise _UsageError("specify a model with --catalog/--param or --params")
    csv_text = draw(bp, spec, cfg).to_csv()
    if args.out:
        _write(args.out if args.out.endswith(".csv") else f"{args.out}.csv", csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_compare(args, s: PairedSample, cfg: NumericConfig):
    res = fit_bivariate(s, cfg)
    mrq = fit_mrq(s, cfg)
    g_prop = ks_marginal(s.x1, res.params.m1, cfg)
    g_mrq = mrq_ks_marginal(s.x1, mrq.params, cfg)
    c_prop = ks_conditional(s, res.params, cfg, mode="pooled")
    c_mrq = mrq_ks_conditional(s, mrq.params, cfg, mode="pooled")
    verdict = ("proposed" if g_prop.d_point < g_mrq.d_point else "competitor")
    results = {
        "proposed": {
            **_model_dict(res.params),
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
    return results, warnings, {}


def _cmd_catalog(args) -> int:
    if args.name:
        entry = _catalog_entry(args.name, args.param, args.theta)
        out = {
            "name": entry.name,
            "natural": entry.natural,
            "mapped": _model_dict(entry.params),
            "loc": list(entry.loc),
            "closed_forms": {
                "marginal_cdf": entry.has_marginal_cdf,
                "conditional_survival": entry.has_conditional_survival,
                "joint_survival": entry.has_joint_survival,
            },
            "notes": list(entry.notes),
        }
        print(_json(out))
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
    # the published fits; the cable shapes carry corrected signs (the
    # published table dropped the minus signs; see README)
    bp_c = BivariateParams(MarginalParams(9.0819, -0.4864, -0.9946),
                           MarginalParams(29.2295, -0.3406, -0.3531), 0.6821)
    bp_k = BivariateParams(MarginalParams(13.0499, 0.8856, -0.1844),
                           MarginalParams(5.9257, 0.3555, -0.6695), 0.5492)

    # sample means
    add("cable", "l1(x1)", 17.622, sample_lmoments(cable.x1).l1, 0.001)
    add("components", "l1(x1)", 2.7975, sample_lmoments(comp.x1).l1, 0.0005)

    # marginal fits
    fit_c = fit_bivariate(cable, cfg)
    fit_k = fit_bivariate(comp, cfg)
    for case, fitted, ref in (("cable", fit_c.params, bp_c),
                              ("components", fit_k.params, bp_k)):
        for i, (m, m_ref) in enumerate(((fitted.m1, ref.m1), (fitted.m2, ref.m2)), 1):
            for name, rv in asdict(m_ref).items():
                add(case, f"{name}{i}", rv, getattr(m, name), abs(rv) * 0.05)

    # dependence fits: not reproducible from the stated moment equation
    add("cable", "theta", bp_c.theta, fit_c.params.theta, 0.05,
        note="product-moment equation gives a different root")
    add("components", "theta", bp_k.theta, fit_k.params.theta, 0.05,
        note="sample product mean is below the independence value")

    # K-S with the published parameters; the reference convention is the
    # supremum over sample points only
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
        _write(f"{args.out}.report.json",
               _json(_report(args, None, cfg, {"rows": rows}, [])) + "\n")
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
        p.set_defaults(fn=_run_data, body=fn)
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
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone; send what is still buffered to the
        # null device, or the flush at interpreter exit raises again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def _run(argv: list[str] | None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    args.argv = sys.argv[1:] if argv is None else argv  # the report's command, as parsed
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
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
