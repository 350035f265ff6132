"""Summary statistics and span bookkeeping shared by every benchmark phase.

Spans are kept in memory as flat records with a parent index, so a
layer's self time is its duration minus the durations of its direct
children. The benchmark is single-threaded, so children of one span are
disjoint intervals and their sum is the part of the parent they cover.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
# Bags at least this large get a tail of their own (p99.4 or higher).
TAIL_BAG_MIN = 1000
# Tracer cost calibration: loops, and empty spans per loop.
COST_LOOPS = 5
COST_SPANS = 20_000


def _rank(pct: float, n: int) -> int:
    # 1-based nearest rank ceil(p * n / 100); the epsilon absorbs float
    # error such as 99.9 * 100000 / 100 = 99900.00000000001.
    return max(1, math.ceil(pct * n / 100 - 1e-9))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The ``pct``-th percentile of already sorted values, by nearest rank."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile, in steps of 0.1 up to 99.9, that leaves at least
    ``TAIL_MIN_BEYOND`` samples above its nearest rank; returns (pct, value).

    Raises ValueError when even the median leaves too few samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    for tenths in range(999, 499, -1):
        pct = tenths / 10
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(ordered, pct)
    raise ValueError(f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median")


def run_tail(bags: list[list[float]]) -> tuple[str, float]:
    """Tail of a run's samples, given per bag; returns (description, value).

    When every bag holds at least ``TAIL_BAG_MIN`` samples, each bag gets
    its own tail and the run reports the median over bags, so one stalled
    bag cannot set the run's tail. Smaller bags are pooled.
    """
    if min(map(len, bags)) >= TAIL_BAG_MIN:
        tails = [tail(bag) for bag in bags]
        pcts = sorted({pct for pct, _ in tails})
        return (f"median over {len(bags)} bags of each bag's p{pcts[0]}-p{pcts[-1]}",
                statistics.median(value for _, value in tails))
    pooled = [value for bag in bags for value in bag]
    pct, value = tail(pooled)
    return f"p{pct} of {len(pooled)} samples", value


def failed_frac(states: list[str]) -> float:
    """FAILED tasks over tasks submitted (every state counts in the base)."""
    if not states:
        raise ValueError("no tasks submitted")
    return sum(1 for s in states if s == "FAILED") / len(states)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    child_ns: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """Records nested spans around the calls the benchmark makes."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.clock(), 0, parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end_ns = self.clock()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_ns += record.ns

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.ns for s in self.named(name)) / 1e6

    def p50_ms(self, name: str, self_time: bool = False) -> float:
        return statistics.median([(s.self_ns if self_time else s.ns) / 1e6 for s in self.named(name)])


class NullTracer:
    """Same interface, records nothing: the untimed replay."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def span_cost_ns() -> float:
    """Median extra cost, in ns, of one nested ``Tracer`` span over the same
    ``NullTracer`` span, from ``COST_LOOPS`` loops of ``COST_SPANS`` empty spans."""
    def loop(tracer) -> int:
        with tracer.span("outer"):
            t0 = time.perf_counter_ns()
            for _ in range(COST_SPANS):
                with tracer.span("inner"):
                    pass
            return time.perf_counter_ns() - t0
    return statistics.median((loop(Tracer()) - loop(NullTracer())) / COST_SPANS for _ in range(COST_LOOPS))
