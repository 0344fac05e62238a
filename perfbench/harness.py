"""Timing, tracing and bookkeeping shared by the three workloads.

Nothing here imports the program: the workloads hand in the callables,
so the same code times an untraced pass and a traced one.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time
from collections import defaultdict

clock = time.perf_counter


class Meter:
    """Wall time and completed operations of the program calls in one pass.

    ``call`` times one call into the program and charges it to an
    operation kind; checks run outside these calls, so the pass time is
    the summed wall time of the calls only.  In a traced pass the same
    interval is also charged to the layer span named by ``span``.
    """

    def __init__(self, trace: Trace | None = None) -> None:
        self.trace = trace
        self.seconds: dict[str, float] = defaultdict(float)
        self.ops: dict[str, int] = defaultdict(int)

    def call(self, kind: str, span: str, fn, *args, ops: int = 1):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            dt = clock() - t0
            self.seconds[kind] += dt
            self.ops[kind] += ops
            if self.trace is not None:
                self.trace.seconds[span] += dt
                self.trace.calls[span] += 1
                self.trace.first.setdefault(span, dt)

    def expect(self, kind: str, span: str, error: type[BaseException], fn, *args):
        """Time a call that should raise ``error``; return the error, or None if it did not."""
        try:
            self.call(kind, span, fn, *args)
        except error as exc:
            return exc
        return None

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())


class Trace:
    """Per-layer timers and counters filled only in traced passes.

    ``time`` wraps a public call of a layer; ``count`` records work that
    the benchmark observes through a callable it passed in.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.first: dict[str, float] = {}

    def time(self, name: str, fn, *args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += clock() - t0
            self.calls[name] += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def mean_us(self, name: str) -> float:
        return 1e6 * self.seconds[name] / self.calls[name] if self.calls[name] else 0.0

    def mean_ms(self, name: str) -> float:
        return 1e3 * self.seconds[name] / self.calls[name] if self.calls[name] else 0.0


def timed_evaluate(rho, trace: Trace, construct_rv=None):
    """Copy of a ConvexFunctional whose evaluate calls are counted and timed.

    ``construct_rv`` (the program's RandomVariable constructor) is timed on
    every argument the evaluation receives, which measures the per-call
    construction cost of the search at the argument's cell count.
    """
    inner = rho.evaluate

    def evaluate(f):
        t0 = clock()
        if construct_rv is not None:
            construct_rv(f.space, f.values)
            t1 = clock()
            trace.seconds[f"measure.construct.{len(f.values)}"] += t1 - t0
            trace.calls[f"measure.construct.{len(f.values)}"] += 1
        else:
            t1 = t0
        value = inner(f)
        t2 = clock()
        trace.seconds["convex.evaluate"] += t2 - t1
        trace.calls["convex.evaluate"] += 1
        trace.seconds["convex.evaluate_wrapper"] += t2 - t0
        return value

    return dataclasses.replace(rho, evaluate=evaluate)


def timed_generator(seq, trace: Trace):
    """Copy of a fatou TestSequence whose element generator is counted and timed."""
    inner = seq.generator

    def generator(n):
        return trace.time("fatou.element", inner, n)

    return dataclasses.replace(seq, generator=generator)


def counted_orlicz(phi, trace: Trace, counter: str):
    """An OrliczFunction of the same kind whose calls are counted under ``counter``."""
    base = type(phi)

    class CountedOrlicz(base):
        def __call__(self, s):
            trace.count(counter)
            return base.__call__(self, s)

    return CountedOrlicz(**{f.name: getattr(phi, f.name) for f in dataclasses.fields(phi)})


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_age_s() -> float | None:
    """Seconds since this process started, from /proc; None where unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])  # field 22 of stat, counted after the command name
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return age if 0.0 <= age < 600.0 else None
