"""In-memory spans and counters for the hc3 benchmark.

Spans are recorded only around the benchmark's own calls into hc3's public
functions.  A disabled tracer hands out one shared no-op span, so an untraced
pass makes exactly the same library calls as a traced one.  Counters are kept
in both modes; they are cheap and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    task: str | None


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _OpenSpan:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        self.index = len(tracer.spans)
        tracer.spans.append(Span(name, 0.0, 0.0, parent, tracer.task))

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index].start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].end = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans (name, start, end, parent, task id) and named counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.task: str | None = None
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts.get(name, n), n)


def self_times(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Self time summed per span name: each span's duration minus the time
    its direct children cover.  `spans` is a slice of Tracer.spans that starts
    at index `offset` and holds every child of every span in it."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None and s.parent >= offset:
            child[s.parent - offset] += s.end - s.start
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out
