"""Tests of the benchmark itself: op generation, checks and span arithmetic.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bivqf  # noqa: E402
import bivqf.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from speed import Speed  # noqa: E402
import workloads as wl  # noqa: E402

API = wl.api_of(bivqf)


@pytest.mark.parametrize("make", [wl.Bootstrap, wl.CatalogGrid])
def test_same_seed_same_ops(make):
    w = make(bivqf)
    assert w.ops(5, 60) == make(bivqf).ops(5, 60)
    assert w.ops(5, 60) != w.ops(6, 60)


def test_quantile_estimates():
    assert run._quantile([0.3] * 7, 0.9) == pytest.approx(0.3)
    assert run._quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run._quantile([2.0, 1.0], 0.5) == pytest.approx(1.5)
    values = [float(i) for i in range(1001)]
    assert run._quantile(values, 0.9) == pytest.approx(900.0, abs=1.0)


def test_run_size_follows_seconds_in_whole_blocks():
    w = wl.Bootstrap(bivqf)
    assert len(run.run_ops(w, 1, 25.0)) == 5 * wl.BLOCK
    assert len(run.run_ops(w, 1, 9.0)) == wl.BLOCK
    assert len(run.run_ops(w, 1, 0.1)) == wl.BLOCK
    assert len(run.run_ops(wl.CatalogGrid(bivqf), 1, 25.0)) == 500


def test_bootstrap_runs_replay_the_same_replicates():
    def key(op):
        return op.model, op.n, op.method, op.sampler_seed

    w = wl.Bootstrap(bivqf)
    ops = w.ops(9, 3 * wl.BLOCK)
    assert sorted(ops, key=key) == sorted(w.ops(10, 3 * wl.BLOCK), key=key)
    large = [op for op in ops if op.n == wl.LARGE_N]
    small = [op for op in ops if op.n != wl.LARGE_N]
    assert len(large) == 12 and len(small) == 48
    assert sum(op.method == "transform" for op in large) == 3
    assert sum(op.method == "transform" for op in small) == 12
    assert sum(op.model == "cable" for op in ops) == 30
    assert {op.n for op in ops if op.model == "cable"} == {9, wl.LARGE_N}
    assert {op.n for op in ops if op.model == "components"} == {20, wl.LARGE_N}


class Corrupting:
    """A workload whose results are altered after the op, before the check."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt, self.name = inner, corrupt, inner.name

    def run(self, op, api):
        return self.corrupt(self.inner.run(op, api))

    def check(self, op, res):
        self.inner.check(op, res)


def _shift_first_value(res):
    head = [res[0][0] + 1e-6] + res[0][1:]
    return [head] + res[1:]


def _zero_conditional_ks(res):
    s, fit, d1, d21, lcm = res
    return s, fit, d1, dataclasses.replace(d21, d_stat=0.0), lcm


@pytest.mark.parametrize("make, corrupt", [
    (wl.CatalogGrid, _shift_first_value),
    (wl.Bootstrap, _zero_conditional_ks),
])
def test_corrupted_result_is_a_failed_op(make, corrupt):
    w = make(bivqf)
    op = next(op for op in w.ops(2, 20) if getattr(op, "n", 0) != wl.LARGE_N)
    clean = run.Loop(w, API, Speed())
    clean.attempt(op)
    assert (clean.attempted, clean.failed) == (1, 0)
    bad = run.Loop(Corrupting(w, corrupt), API, Speed())
    bad.attempt(op)
    assert (bad.attempted, bad.failed, bad.wrong) == (1, 1, 1)
    assert bad.failures == {"check": 1}


def test_raised_error_is_counted_by_class():
    class Raising:
        name = "raising"

        def run(self, op, api):
            raise OverflowError("math range error")

        def check(self, op, res):
            raise AssertionError("not reached")

    loop = run.Loop(Raising(), API, Speed())
    loop.attempt(None)
    loop.attempt(None)
    assert (loop.attempted, loop.failed, loop.wrong) == (2, 2, 0)
    assert loop.failures == {"OverflowError": 2}


def _reproduce_rows():
    rows = [{"case": "cable", "quantity": f"q{i}", "verdict": "ok"} for i in range(24)]
    rows += [{"case": c, "quantity": q, "verdict": "OUT"} for c, q in sorted(wl.KNOWN_OUT)]
    return rows


def test_reproduce_check():
    w = wl.Reproduce(ROOT / "src", ROOT, Speed(), in_process=False)
    w.check(None, {"code": 0, "rows": _reproduce_rows()})
    rows = _reproduce_rows()
    rows[0]["verdict"] = "OUT"
    with pytest.raises(wl.CheckFailed):
        w.check(None, {"code": 0, "rows": rows})
    with pytest.raises(wl.CheckFailed):
        w.check(None, {"code": 3, "rows": None})


def test_self_times_add_up_to_parent_duration():
    tracer = spans.Tracer()

    def leaf(k):
        return sum(range(k))

    traced_leaf = tracer.wrap(leaf, "b.leaf")

    def middle(k):
        return traced_leaf(k) + traced_leaf(2 * k) + sum(range(k))

    traced_middle = tracer.wrap(middle, "a.middle")

    def root():
        return sum(traced_middle(k) for k in (1000, 3000, 5000))

    tracer.wrap(root, "a.root")()
    names, dur, self_s = tracer.self_times()
    root_idx = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert root_idx == [0]
    resolution = time.get_clock_info("perf_counter").resolution
    assert abs(self_s.sum() - dur[0]) <= max(resolution, 1e-12)
    assert (self_s >= 0.0).all()
    summary = tracer.summary()
    assert summary["b.leaf"]["calls"] == 6 and summary["a.middle"]["calls"] == 3


def test_errors_leaving_a_span_are_counted():
    tracer = spans.Tracer()
    boom = tracer.wrap(lambda: 1 / 0, "specfun.boom")
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.summary()["specfun.boom"]["errors"] == 1

    tracer = spans.Tracer()
    boom = tracer.wrap(lambda: 1 / 0, "specfun.boom")
    inner = tracer.wrap(lambda: boom(), "specfun.inner")
    outer = tracer.wrap(lambda: inner(), "model.outer")
    with pytest.raises(ZeroDivisionError):
        outer()
    summary = tracer.summary()
    # boom's parent is in specfun too; the error leaves specfun through inner
    assert summary["specfun.boom"]["errors"] == 0
    assert summary["specfun.inner"]["errors"] == 1
    assert summary["model.outer"]["errors"] == 1
    metrics = spans.layer_metrics(tracer, 1, 1.0, 1.0, 1.0)
    assert metrics["specfun.errors"] == 1 and metrics["model.errors"] == 1


def test_install_spans_module_boundaries_and_close_restores():
    model, comoment = bivqf.model, bivqf.comoment
    before = dict(vars(comoment)), dict(vars(model))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert comoment.u21 is not model.u21  # importer's binding is wrapped
        assert model.u21 is before[1]["u21"]  # the defining module's is not
        w = wl.CatalogGrid(bivqf)
        sweep = w.ops(4, 1)[0]
        w.check(sweep, w.run(sweep, API))
    finally:
        tracer.close()
    assert dict(vars(comoment)) == before[0] and dict(vars(model)) == before[1]
    summary = tracer.summary()
    assert summary["model.f1"]["calls"] > 0
    assert summary["catalog.make_case"]["calls"] == 0  # the benchmark's call is untraced


def test_layer_metrics_cover_declared_names():
    import json

    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    w = wl.CatalogGrid(bivqf)
    loop = run.Loop(w, API, Speed())
    loop.attempt(w.ops(3, 1)[0])
    metrics = spans.layer_metrics(spans.Tracer(), 1, 1.0, 1.0, 1.0)
    metrics.update(run.failure_metrics(loop))
    metrics.update(run.raw_metrics(loop))
    assert set(metrics) == declared
