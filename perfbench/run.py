"""Benchmark for bivqf: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` (nothing is installed); without it the script exits
with code 2 and prints no result.  The load is a closed loop with one
client: one op at a time, in one process and thread, the next op
starting when the previous one has finished.  A run is a fixed number
of ops, sized from ``--seconds`` by the workload's rough op cost, so the
same seed and seconds give the same ops, failures included, on any host.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
op twice, untraced and then traced, and prints the per-layer metrics of
the traced runs (see ``spans.py``).  Times are reported in reference
seconds, corrected for the host's drifting CPU speed (see ``speed.py``);
an earlier line holds them as measured, and ``--trace 1`` reports the
untraced ops' times as measured too (``raw.*``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import workloads as wl
from speed import Speed, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("reproduce", "bootstrap", "catalog-grid")
SETUP_REPEATS = 3
KNOWN_FAILURES = ("OverflowError", "InfeasibleRegionError", "BracketError")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_bivqf():
    """Import bivqf from this checkout's src/, or exit with code 2."""
    if not (SRC / "bivqf" / "__init__.py").is_file():
        _fail(f"no bivqf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bivqf.cli

    if Path(bivqf.__file__).resolve().parent != SRC / "bivqf":
        _fail(f"imported bivqf from {bivqf.__file__}, not from {SRC}")
    return bivqf


def measure_setup(speed: Speed) -> float:
    """Median wall time for a fresh interpreter to import bivqf.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        p0, t0 = speed.paused, time.perf_counter()
        code = speed.wait(subprocess.Popen([sys.executable, "-c", "import bivqf.cli"],
                                           env=env, cwd=ROOT))
        times.append(time.perf_counter() - t0 - (speed.paused - p0))
        if code != 0:
            _fail(f"importing bivqf.cli failed with code {code}")
    return statistics.median(times)


def _cpu() -> float:
    """CPU seconds of this process and its finished children."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the `q` quantile: a beta-weighted mean of
    all order statistics, so it does not jump with the op nearest `q`."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ np.sort(values))


class Loop:
    """Closed loop over a workload's ops, with timing and failure accounting."""

    def __init__(self, workload, api, speed: Speed):
        self.workload = workload
        self.api = api
        self.speed = speed
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.failures: Counter = Counter()
        self.first_message: dict[str, str] = {}
        self.wrong = 0

    def attempt(self, op, api=None, tracer=None) -> None:
        """Run one op (timed, traced if `tracer`) and check it (untimed)."""
        speed = self.speed
        speed.sample()
        if tracer:
            tracer.install()
        error = None
        p0, s0, c0, t0 = speed.paused, speed.cpu, _cpu(), time.perf_counter()
        try:
            res = self.workload.run(op, api or self.api)
        except Exception as e:  # a failed op is counted, not fatal
            error = e
        finally:
            t1, c1 = time.perf_counter(), _cpu()
            if tracer:
                tracer.close()
        self.wall.append(t1 - t0 - (speed.paused - p0))
        self.cpu.append(c1 - c0 - (speed.cpu - s0))
        kind = type(error).__name__
        if error is None:
            try:
                self.workload.check(op, res)
                return
            except Exception as e:  # any error in checking is a wrong result
                error, kind = e, "check"
                self.wrong += 1
        self.failures[kind] += 1
        self.first_message.setdefault(kind, f"{op!r}: {type(error).__name__}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def timings(self, scale: float) -> dict[str, float]:
        """Time metrics, in seconds multiplied by `scale`."""
        ok = self.attempted - self.failed
        return {
            "ops_per_s": ok / (sum(self.wall) * scale),
            "op_p50_s": _quantile(self.wall, 0.5) * scale,
            "op_p90_s": _quantile(self.wall, 0.9) * scale,
            "cpu_per_op_s": sum(self.cpu) / self.attempted * scale,
        }

    def report(self) -> dict:
        return {"workload": self.workload.name, "attempted": self.attempted,
                "failures": dict(self.failures), "first": self.first_message,
                "reference_s": self.speed.reference_s}


def run_ops(workload, seed: int, seconds: float) -> list:
    """The run's ops: as many whole blocks as `seconds` holds at the workload's op cost."""
    blocks = max(1, int(seconds / (workload.op_s * workload.block)))
    return workload.ops(seed, blocks * workload.block)


def run_end_to_end(workload, api, speed: Speed, seed: int, seconds: float,
                   in_process: bool) -> tuple[Loop, dict]:
    setup_speed = Speed()
    setup_raw = measure_setup(setup_speed)
    loop = Loop(workload, api, speed)
    ops = run_ops(workload, seed, seconds)
    if in_process:  # lazy imports and first-call set-up before timing
        Loop(workload, api, Speed()).attempt(ops[0])
    for op in ops:
        loop.attempt(op)
    rss = resource.getrusage(resource.RUSAGE_SELF if in_process
                             else resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"setup_s": setup_raw * setup_speed.scale}
    metrics.update(loop.timings(speed.scale))
    metrics["peak_rss_mb"] = rss / 1024.0
    metrics["ok_ratio"] = 1.0 - loop.failed / loop.attempted
    raw = {"setup_s": setup_raw, "setup_reference_s": setup_speed.reference_s,
           **loop.timings(1.0)}
    print(json.dumps({"measured": raw}))
    return loop, metrics


def run_traced(workload, api, speed: Speed, seed: int,
               seconds: float) -> tuple[Loop, dict]:
    from spans import Tracer, layer_metrics  # numpy: only after main() set threads

    tracer = Tracer()
    traced_api = type(api)(**{k: tracer.wrap(f) for k, f in vars(api).items()})
    plain, loop = Loop(workload, api, speed), Loop(workload, api, speed)

    for op in run_ops(workload, seed, seconds):
        plain.attempt(op)
        loop.attempt(op, traced_api, tracer)
    layers = layer_metrics(tracer, loop.attempted, sum(loop.wall), sum(plain.wall),
                           speed.scale)
    layers.update(failure_metrics(loop))
    layers.update(raw_metrics(plain))
    print(json.dumps({"spans": tracer.summary()}))
    return loop, layers


def failure_metrics(loop: Loop) -> dict[str, float]:
    """Failed ops per attempted op, in total and by exception class."""
    n = loop.attempted
    named = KNOWN_FAILURES + ("check",)
    out = {"fail_ratio": loop.failed / n}
    out.update({f"fail.{k}": loop.failures[k] / n for k in named})
    out["fail.other"] = sum(v for k, v in loop.failures.items() if k not in named) / n
    return out


def raw_metrics(loop: Loop) -> dict[str, float]:
    """`loop`'s time metrics as measured, and the reference loop's time."""
    out = {f"raw.{k}": v for k, v in loop.timings(1.0).items()}
    out["speed.reference_s"] = loop.speed.reference_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one BLAS / OpenMP thread here and in every child, set before numpy loads
    os.environ.update({var: "1" for var in THREAD_VARS})
    pin_to_one_cpu()
    bivqf = _import_bivqf()
    api = wl.api_of(bivqf)
    speed = Speed()
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as work:
        if args.workload == "reproduce":
            workload = wl.Reproduce(SRC, Path(work), speed, in_process=bool(args.trace))
        elif args.workload == "bootstrap":
            workload = wl.Bootstrap(bivqf)
        else:
            workload = wl.CatalogGrid(bivqf)
        if args.trace:
            loop, metrics = run_traced(workload, api, speed, args.seed, args.seconds)
        else:
            loop, metrics = run_end_to_end(workload, api, speed, args.seed, args.seconds,
                                           in_process=args.workload != "reproduce")
    print(json.dumps(loop.report()))
    print(json.dumps({
        "correct": loop.wrong == 0 and loop.failed < loop.attempted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
