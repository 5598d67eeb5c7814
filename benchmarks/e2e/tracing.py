"""In-memory span recorder for the traced benchmark run.

Spans are recorded **from the benchmark's own files**, around the calls
into each layer's public functions — nothing under ``src/`` is
instrumented. A span is ``(name, start, end, parent, request)``: the
parent is the span that was open on the same thread when this one
started (or an explicit id), and every span of one request carries that
request's id. Spans stay in memory and are written out once, as
Chrome-trace JSON, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when ``enabled``; a disabled tracer records
    nothing, so the untraced run pays one attribute test per call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: finished spans, in completion order (list.append is atomic,
        #: so done-callbacks on server threads need no lock)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        """Time the enclosed block as one span, nested under whatever
        span is open on this thread."""
        if not self.enabled:
            yield
            return
        stack = self._stack.__dict__.setdefault("open", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, request, threading.get_ident())
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request: int | None = None,
        parent: int | None = None,
    ) -> int | None:
        """Record a span whose endpoints were measured elsewhere (a
        request timed from its due time to its done-callback)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.spans.append(
            Span(span_id, name, start, end, parent, request, threading.get_ident())
        )
        return span_id

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        """Every finished span called ``name``."""
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Per span id, the span's duration minus the time its direct
        children cover (children are clipped to the parent, and
        overlapping children are merged, so nothing is subtracted twice)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.duration - covered
        return out

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as a Chrome-trace document (``chrome://tracing`` /
        https://ui.perfetto.dev): complete events in microseconds from
        the first span's start."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {tid: i for i, tid in enumerate(sorted({s.thread for s in self.spans}))}
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s.name,
                    "cat": s.name.rsplit(".", 1)[0],
                    "ph": "X",
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 1,
                    "tid": threads[s.thread],
                    "args": {"id": s.id, "parent": s.parent, "request": s.request},
                }
                for s in self.spans
            ],
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.chrome_trace()))
