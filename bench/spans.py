"""Stage-call accounting and in-memory spans for the benchmark's own wrappers.

Every public tagbridge call the pipeline makes goes through `Tracer.call`,
which counts it as attempted (and as failed when it raises). With `record`
set, the call and the groups around it also leave a span: name, start, end,
parent span index and run id. Spans stay in memory until the benchmark
writes its report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: int


class Tracer:
    def __init__(self, record: bool):
        self.record = record
        self.spans: list[Span] = []
        self.attempted = 0
        self.failed = 0
        self.run_id = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run one stage call; count it and, when recording, span it."""
        self.attempted += 1
        with self._span(name) if self.record else nullcontext():
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise

    def group(self, name: str):
        """Parent span around several stage calls; not itself a stage call."""
        return self._span(name) if self.record else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def per_run_totals(spans: list[Span], run_id: int) -> tuple[dict, dict]:
    """(summed duration per span name, summed self time per layer) for one run.

    The layer is the span name up to its first dot.
    """
    durations: dict[str, float] = {}
    layers: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.run_id != run_id:
            continue
        durations[s.name] = durations.get(s.name, 0.0) + (s.end - s.start)
        layer = s.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return durations, layers
