"""Timing of calls into the program, with optional in-memory spans.

Every workload reaches the program only through ``Clock.call``.  With
tracing off it adds the call's wall time to ``busy`` and nothing else; with
tracing on it also keeps a span (name, start, end, query id, parent span)
that is written out when the benchmark ends.  Spans sit at the boundary
between the benchmark and the program's public functions; the program itself
is not instrumented.
"""

from __future__ import annotations

import gc
from collections import Counter, defaultdict
from time import perf_counter


class Clock:
    def __init__(self, trace: bool):
        self.trace = trace
        self.busy = 0.0
        self.query: int | None = None
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one step of the current query."""
        t0 = perf_counter()
        try:
            if self.trace:
                with self.span(name):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            self.busy += perf_counter() - t0

    def span(self, name: str) -> "_Span":
        """Context manager that records one span under the innermost open one."""
        return _Span(self, name)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere, e.g. in a child process.

        perf_counter reads the system-wide monotonic clock on Linux, so a
        child's timestamps line up with the parent's.
        """
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"name": name, "start": start, "end": end, "query": self.query, "parent": parent}
        )

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s["name"]].append(s["end"] - s["start"] - covered[i])
        return out


class _Span:
    def __init__(self, clock: Clock, name: str):
        self.clock, self.name = clock, name

    def __enter__(self):
        c = self.clock
        self.index = len(c.spans)
        c.add_span(self.name, 0.0, 0.0)
        c._open.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        c = self.clock
        c._open.pop()
        c.spans[self.index]["start"] = self.start
        c.spans[self.index]["end"] = end
        return False


def span_overhead_s(calls: int = 20000) -> float:
    """Traced-minus-untraced cost of one Clock.call, timed on a no-op."""

    def noop():
        return None

    elapsed = {}
    for trace in (False, True):
        clock = Clock(trace)
        t0 = perf_counter()
        for _ in range(calls):
            clock.call("noop", noop)
        elapsed[trace] = perf_counter() - t0
    return max(0.0, (elapsed[True] - elapsed[False]) / calls)


# On the 2-CPU host that the bounds in BENCHMARK.json were set on,
# reference_work() takes about REFERENCE_S inside a benchmark run, and a
# fresh interpreter that imports this module and does it takes about
# CHILDREN_REFERENCE_S, also with one such interpreter per CPU side by side.
REFERENCE_S = 0.025
CHILDREN_REFERENCE_S = 0.09


def reference_work() -> float:
    """Wall time of a fixed piece of pure-Python work that does not touch the program.

    It fills a dict of 60,000 tuple keys, a few megabytes, and reads a third
    of them back: hashing tuples and missing the cache, as the program does
    on its sets of edges.  On a shared host its time tracks how fast the
    host runs the program.
    """
    # the collector would scan the program's objects too, and its cost grows
    # with what the program keeps alive, which is not the host's speed
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        for i in range(60000):
            table[(i * 7919) % 1000003, i & 255] = i
        total = 0
        for i in range(0, 60000, 3):
            total += table[(i * 7919) % 1000003, i & 255]
        return perf_counter() - t0
    finally:
        gc.enable()
