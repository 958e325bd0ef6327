"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the program: name, start,
end, the span that caused it (parent) and the trace it belongs to.
Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON (loadable in Perfetto or ``chrome://tracing``).

With ``enabled=False`` :meth:`Tracer.span` records nothing, so the
untraced run that gives the end-to-end metrics pays one generator
frame per wrapped call.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread; a root span starts a new trace."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            name=name,
            trace_id=parent.trace_id if parent else span_id,
            parent=parent.span_id if parent else None,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name not covered by that span's children.

        Children of one span run one after another on this thread, so
        the covered part of a span is the sum of its children's
        durations.
        """
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - covered.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def chrome_events(self) -> List[dict]:
        if not self.spans:
            return []
        origin = min(span.start for span in self.spans)
        pid = os.getpid()
        return [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent,
                    "trace_id": span.trace_id,
                    **span.attrs,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]

    def write(self, path, metadata: Dict[str, object]) -> None:
        """Chrome trace-event JSON with the self-time table attached."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "metadata": {**metadata, "self_seconds": self.self_times()},
        }
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, default=str)
        os.replace(tmp, path)
