"""Machine speed, measured by a fixed pure-Python loop during a run.

The benchmark host is a shared virtual machine whose CPU speed drifts by
tens of percent within seconds, and CPU time drifts with it.  A reference
loop owned by the benchmark (so no change to bivqf can alter it) is timed
every ``EVERY`` seconds while the ops run, and every time metric is
multiplied by ``REFERENCE_S / mean reference time``: it reads as seconds
on a machine where the loop takes ``REFERENCE_S``.  The loop is
interpreter-bound scalar float code, like bivqf's hot paths.

The drift differs between the two virtual CPUs, so the loop must run on
the CPU doing the work: the benchmark pins itself (and so its children)
to one CPU, and while a child runs it is stopped for each sample and the
paused time is left out of the op's time.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import time

REFERENCE_S = 0.004  # the loop's time on this 2-core host when unloaded
EVERY = 0.2


def reference_loop() -> float:
    s, x = 0.0, 0.3
    for i in range(20000):
        x = math.exp(-x) * 0.9 + 0.05 * math.log1p(x)
        s += x / (1.0 + i)
    return s


class Speed:
    """Time-weighted mean of the reference loop's duration over a phase."""

    def __init__(self):
        self.last: float | None = None
        self.weight = 0.0
        self.weighted = 0.0
        self.cpu = 0.0  # CPU seconds the loop itself used
        self.paused = 0.0  # seconds children were stopped for samples

    def sample(self) -> None:
        """Time the loop if ``EVERY`` seconds have passed since the last time."""
        t0 = time.perf_counter()
        if self.last is not None and t0 - self.last < EVERY:
            return
        c0 = time.process_time()
        reference_loop()
        t1 = time.perf_counter()
        self.cpu += time.process_time() - c0
        # each sample stands for the time since the previous one
        w = EVERY if self.last is None else t0 - self.last
        self.weight += w
        self.weighted += w * (t1 - t0)
        self.last = t1

    @property
    def reference_s(self) -> float:
        return self.weighted / self.weight

    @property
    def scale(self) -> float:
        """Factor that turns measured seconds into reference seconds."""
        return REFERENCE_S / self.reference_s

    def wait(self, proc: subprocess.Popen) -> int:
        """Wait for `proc`, sampling the loop while it is stopped; its exit code."""
        while True:
            try:
                return proc.wait(timeout=EVERY)
            except subprocess.TimeoutExpired:
                t0 = time.perf_counter()
                proc.send_signal(signal.SIGSTOP)
                try:
                    self.sample()
                finally:
                    proc.send_signal(signal.SIGCONT)
                    self.paused += time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU (see module docstring)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
