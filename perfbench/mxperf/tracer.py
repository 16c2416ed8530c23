"""Host-time spans recorded around calls into the model's layers.

Every timed call in the benchmark goes through :meth:`Tracer.span`,
which always measures the call (the end-to-end metrics need the
durations) but keeps the span itself only when tracing is on.  Spans
stay in memory and are written once, at the end of the run, as Chrome
trace-event JSON: the same format as the simulated-cycle tracks of
:mod:`repro.telemetry.perfetto`, so both open in the Perfetto UI.

A span has a name, a start, an end, a parent (the span open when it
started, or one named explicitly for spans that ran in a worker
process) and a run id shared by every span of one op.  A layer's self
time is its span time minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed call: ``[t0, t1)`` in ``time.perf_counter`` seconds."""

    __slots__ = ("id", "name", "run_id", "parent", "t0", "t1", "pid")

    def __init__(self, span_id: int, name: str, run_id: str,
                 parent: Optional[int], pid: int):
        self.id = span_id
        self.name = name
        self.run_id = run_id
        self.parent = parent
        self.pid = pid
        self.t0 = 0.0
        self.t1 = 0.0

    @property
    def seconds(self) -> float:
        """Duration of the span."""
        return self.t1 - self.t0


class Tracer:
    """Span recorder; with ``enabled`` false it only times calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._next_id = 1

    def _new(self, name: str, run_id: str, parent: Optional[int],
             pid: int) -> Span:
        span = Span(self._next_id, name, run_id, parent, pid)
        self._next_id += 1
        return span

    @contextlib.contextmanager
    def span(self, name: str, run_id: str = "") -> Iterator[Span]:
        """Time the enclosed block; its :class:`Span` is yielded so the
        caller can read ``seconds`` after the block ends."""
        parent = self._open[-1].id if self._open else None
        span = self._new(name, run_id, parent, os.getpid())
        if self.enabled:
            self._open.append(span)
        span.t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            if self.enabled:
                self._open.pop()
                self.spans.append(span)

    def add(self, name: str, run_id: str, t0: float, t1: float,
            parent: Span, pid: int) -> None:
        """Keep a span measured elsewhere, e.g. in a forked worker (its
        ``perf_counter`` is the same system-wide monotonic clock)."""
        if not self.enabled:
            return
        span = self._new(name, run_id, parent.id, pid)
        span.t0, span.t1 = t0, t1
        self.spans.append(span)

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name.

        A span's self time is its duration minus the union of its
        children's intervals clipped to it, so children that overlap
        one another (parallel workers) are not subtracted twice.
        """
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            reach = span.t0
            kids = sorted(children.get(span.id, ()), key=lambda s: s.t0)
            for kid in kids:
                start = max(kid.t0, reach)
                end = min(kid.t1, span.t1)
                if end > start:
                    covered += end - start
                    reach = end
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.seconds - covered)
        return totals

    def chrome_trace(self, label: str) -> dict:
        """The spans as a ``traceEvents`` payload (times in µs from the
        first span); one track per process."""
        origin = min((s.t0 for s in self.spans), default=0.0)
        events = []
        for pid in sorted({s.pid for s in self.spans}):
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 1, "ts": 0,
                           "args": {"name": f"{label} pid {pid}"}})
        for span in self.spans:
            events.append({
                "name": span.name, "cat": "host", "ph": "X",
                "pid": span.pid, "tid": 1,
                "ts": round((span.t0 - origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "args": {"span": span.id, "parent": span.parent,
                         "run_id": span.run_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
