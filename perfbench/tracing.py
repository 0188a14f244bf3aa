"""In-memory spans recorded around calls into lsrigid's public functions.

A span has a name, a start, an end and the span that was open when it began.
Spans are kept in memory and summarised after the run; nothing is written
while the workload runs.  ``patch`` swaps a module attribute for a wrapper
that opens a span around every call, so a call made inside lsrigid (for
example ``thermo.potential_from_metric`` inside ``cli.run_pipeline``) is
traced without any change to the package.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=self._clock())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = self._clock()
            self._open.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around every call; on_result sees each return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- summaries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans with this name (they never nest)."""
        return sum(s.duration for s in self.named(name))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one parent run one after another (one thread), so their
    durations add up without overlap.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class NullTracer:
    """Tracer stand-in for untraced runs: spans cost one no-op context."""

    def span(self, name: str):
        return contextlib.nullcontext()


@contextlib.contextmanager
def patch(attrs):
    """Temporarily set (obj, attribute, value) triples; restores on exit."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in attrs]
    try:
        for obj, name, value in attrs:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)
