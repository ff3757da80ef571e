"""In-memory span recorder and the per-layer report built from its spans.

Spans are recorded from the harness's own files: ``instrument`` swaps a
package attribute (a module-level function the caller looks up at call
time, or a method on a class) for a wrapper that opens a span around the
original call, and restores every attribute on exit; no file of the
package changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans of one thread; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @classmethod
    def from_dicts(cls, dicts) -> "SpanRecorder":
        recorder = cls()
        recorder.spans = [Span(**d) for d in dicts]
        return recorder

    def named(self, name: str, op: int | None = None) -> list[Span]:
        """Spans called ``name`` (of operation ``op`` if given), by start."""
        found = [s for s in self.spans if s.name == name and (op is None or s.op == op)]
        return sorted(found, key=lambda s: s.start)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def self_by_layer(self) -> dict[str, float]:
        """Total self time per layer (the span name up to its first dot)."""
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.self_time(s)
        return out

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, targets):
    """Wrap each ``(owner, attribute, span_name)`` for the duration.

    Yields the span names whose owner or attribute no longer exists, so
    the report can say which spans are missing.
    """
    missing = []
    saved = []
    try:
        for owner, attr, name in targets:
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                missing.append(f"span {name}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
