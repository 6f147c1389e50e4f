"""In-memory spans around the benchmark's calls into critprob.

A span records its name, start and end (``time.perf_counter``), the
index of the enclosing span and the traced iteration it belongs to.  A
tracer made with ``memory=True`` also runs tracemalloc during its
iterations and records the peak reached while each span was open.
Peaks nest: opening a child folds the parent's peak so far into the
parent and resets the tracemalloc peak, and closing the child folds the
child's peak back into the parent.  tracemalloc slows allocation-heavy
code severalfold, so timings come from a tracer without it.  Spans
live in a list and are only aggregated after the run, so tracing does
no I/O while the program works.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    iteration: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    mem_start: int = 0
    mem_peak: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def peak_mib(self) -> float:
        """Most memory the call held above what was live when it began."""
        return (self.mem_peak - self.mem_start) / MIB


class NullTracer:
    """Stands in for a tracer on untraced runs; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Collects spans; with ``memory``, tracemalloc runs inside ``iteration``."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._iteration = -1

    @contextlib.contextmanager
    def iteration(self, index: int):
        self._iteration = index
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, self._iteration, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent].mem_peak = max(self.spans[parent].mem_peak, peak)
            tracemalloc.reset_peak()
            span.mem_start = span.mem_peak = current
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if self.memory:
                span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    self.spans[parent].mem_peak = max(self.spans[parent].mem_peak, span.mem_peak)
                tracemalloc.reset_peak()

    def by_iteration(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.iteration, []).append(span)
        return out
