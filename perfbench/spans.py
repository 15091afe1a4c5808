"""Module-boundary spans for the bivqf package, installed from outside.

Every function defined in one ``bivqf`` module and bound by name in another
(``from .specfun import reg_inc_beta``) is replaced, in the importing
module's namespace only, by a wrapper that records one span.  Calls inside
the defining module still reach the original function, so spans sit only
where control crosses a module boundary.  The benchmark's own calls into
the package go through :meth:`Tracer.wrap`.

A function of one module passed into another one (an integrand handed to
``model._quad``, a residual handed to ``model._brentq``) is a boundary too:
each of its calls is a span named ``<owner>/cb``, where the owner is the
innermost active span of the callback's own module.  The work of
``fit.fit_mrq`` thus shows as ``fit`` time, not as time of the
quadrature in ``model`` that calls back into it.

Each span is (name, parent, start, end); spans stay in memory until
:meth:`Tracer.summary` reduces them.  A span's self time is its duration
minus the durations of its direct children.  A span's module is the part
of its name before the first dot.  An exception counts as an error of a
module each time it leaves the module: when it is raised out of a span
whose parent span is in another module, or that has no parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from types import FunctionType
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "bivqf"
MODULES = ("cli", "data", "fit", "gof", "sampling", "comoment", "lmom",
           "catalog", "model", "specfun")

# per-function metrics: (module, function, with self time)
FUNCTIONS = (
    ("specfun", "reg_inc_beta", True),
    ("specfun", "inv_reg_inc_beta", True),
    ("specfun", "inc_beta", True),
    ("specfun", "complete_beta", True),
    ("specfun", "log_gamma", False),
    ("model", "u21", True),
    ("model", "f1", True),
    ("model", "f1_flagged", True),
    ("model", "big_q1", True),
    ("model", "q1", False),
    ("model", "product_moment", True),
    ("model", "quad_beta_kernel", True),
    ("comoment", "population_lcomoments", True),
    ("comoment", "sample_lcomoments", True),
    ("fit", "fit_bivariate", True),
    ("fit", "fit_theta", True),
    ("fit", "fit_marginal", True),
    ("fit", "fit_mrq", True),
    ("gof", "ks_marginal", True),
    ("gof", "ks_conditional", True),
    ("gof", "mrq_ks_marginal", True),
    ("gof", "mrq_ks_conditional", True),
    ("sampling", "draw", True),
    ("lmom", "sample_lmoments", True),
    ("lmom", "population_lmoments", True),
    ("catalog", "make_case", True),
    ("catalog", "generic_joint_survival", True),
    ("catalog", "generic_marginal_cdf", True),
    ("cli", "main", True),
)

# called only from inside their own module, yet needed for the root-finder
# ratio; their defining module's binding is wrapped as well
STAGES = (("fit", "fit_theta"), ("fit", "fit_marginal"))


def _layer(span_name: str) -> str:
    """The module a span name belongs to."""
    return span_name.partition(".")[0]


def _module(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def _span_name(fn) -> str:
    return f"{_module(fn)}.{fn.__name__}"


class Tracer:
    """Span recorder; :meth:`install` patches the package, :meth:`close` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = array("i")
        self.stack = [-1]
        self.gof_clamped = 0
        self.gof_n = 0
        self.pairs_drawn = 0
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str | None = None):
        """Return `fn` recording one span per call under `name`."""
        sid = self._id(name or _span_name(fn))
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        errors, stack, clock = self.errors, self.stack, time.perf_counter
        hook = _HOOKS.get(self.names[sid])
        home = fn.__module__
        callback = self._callback

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for a in args:
                if type(a) is FunctionType:
                    args = tuple(callback(b, home) for b in args)
                    break
            idx = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors.append(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, out)
            return out

        return traced

    def _callback(self, f, home: str):
        """Wrap `f` if it is a package function crossing into module `home`."""
        if (type(f) is not FunctionType or f.__module__ == home
                or not f.__module__.startswith(PACKAGE + ".")
                or hasattr(f, "__wrapped__")):
            return f
        mod = _module(f)
        owner = f"{mod}.{f.__qualname__}"
        for idx in reversed(self.stack[1:]):
            name = self.names[self.span_name[idx]].partition("/")[0]
            if _layer(name) == mod:
                owner = name
                break
        return self.wrap(f, owner + "/cb")

    def install(self) -> None:
        """Wrap every cross-module function binding inside the package."""
        package = importlib.import_module(PACKAGE)
        for mod_name in MODULES:
            mod = getattr(package, mod_name)
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + ".")
                        and obj.__module__ != mod.__name__):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(obj))
        for mod_name, attr in STAGES:
            mod = getattr(package, mod_name)
            obj = getattr(mod, attr)
            self._patched.append((mod, attr, obj))
            setattr(mod, attr, self.wrap(obj))

    def close(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, duration, self time) of every recorded span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return names, dur, dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and total seconds, exceptions leaving its module."""
        names, dur, self_s = self.self_times()
        layer = [_layer(n) for n in self.names]
        leaving = [i for i in self.errors if self.parent[i] < 0
                   or layer[self.span_name[self.parent[i]]] != layer[self.span_name[i]]]
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        own = np.bincount(names, weights=self_s, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        errs = np.bincount(names[leaving], minlength=n_names)
        return {name: {"calls": int(calls[i]), "self_s": float(own[i]),
                       "total_s": float(total[i]), "errors": int(errs[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child: str, parent_module: str) -> int:
        """Spans named `child` whose parent span belongs to `parent_module`."""
        if child not in self.name_ids or not len(self.span_name):
            return 0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mine = (names == self.name_ids[child]) & (parent >= 0)
        owners = {i for i, n in enumerate(self.names)
                  if _layer(n) == parent_module}
        return int(np.isin(names[parent[mine]], list(owners)).sum())


def _count_clamps(tracer: Tracer, out) -> None:
    for res in out if isinstance(out, list) else (out,):
        tracer.gof_clamped += res.n_clamped
        tracer.gof_n += res.n


def _count_pairs(tracer: Tracer, out) -> None:
    tracer.pairs_drawn += out.n


_HOOKS = {"gof.ks_marginal": _count_clamps, "gof.ks_conditional": _count_clamps,
          "gof.mrq_ks_marginal": _count_clamps, "gof.mrq_ks_conditional": _count_clamps,
          "sampling.draw": _count_pairs}


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float,
                  untraced_s: float, scale: float) -> dict[str, float]:
    """Per-op layer metrics from the spans of `n_ops` traced ops.

    Times are multiplied by `scale` (see speed.py).
    """
    spans = tracer.summary()
    per_module: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    for name, rec in spans.items():
        acc = per_module[_layer(name)]
        for k in acc:
            acc[k] += rec[k]
    out: dict[str, float] = {}
    for m in MODULES:
        rec = per_module[m]
        out[f"{m}.calls"] = rec["calls"] / n_ops
        out[f"{m}.self_s"] = rec["self_s"] * scale / n_ops
        out[f"{m}.errors"] = rec["errors"] / n_ops
    none = {"calls": 0, "self_s": 0.0}
    for m, f, timed in FUNCTIONS:
        rec = spans.get(f"{m}.{f}", none)
        out[f"{m}.{f}.calls"] = rec["calls"] / n_ops
        if timed:
            cb = spans.get(f"{m}.{f}/cb", none)
            out[f"{m}.{f}.self_s"] = (rec["self_s"] + cb["self_s"]) * scale / n_ops
    theta_fits = spans.get("fit.fit_theta", {}).get("calls", 0)
    pm_evals = spans.get("model.product_moment", {}).get("calls", 0)
    out["fit.pm_evals_per_theta_fit"] = pm_evals / theta_fits if theta_fits else 0.0
    out["gof.clamp_ratio"] = tracer.gof_clamped / tracer.gof_n if tracer.gof_n else 0.0
    q_calls = tracer.calls_under("model.big_q1", "sampling")
    out["sampling.q_calls_per_draw"] = (q_calls / tracer.pairs_drawn
                                        if tracer.pairs_drawn else 0.0)
    out["trace.overhead_ratio"] = traced_s / untraced_s
    out["trace.op_s"] = traced_s * scale / n_ops
    return out
