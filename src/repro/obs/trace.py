"""Span-based tracing: nested spans over monotonic clocks.

A :class:`Tracer` collects :class:`Span` records; nesting is tracked per
execution context with :mod:`contextvars`, so spans opened on different
threads (or in forked workers that return their spans by value) never
interleave their parent links. Timestamps are ``time.perf_counter()``
offsets from the tracer's epoch — monotonic, immune to wall-clock jumps.

The instrumented code never talks to a Tracer directly; it calls
:func:`repro.obs.span`, which resolves the active observer and returns a
shared no-op context manager when tracing is off (one pointer check, no
allocation).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One finished span: a named, timed, attributed tree node."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float  # offset from the tracer's epoch (monotonic)
    duration_s: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; ``span()`` nests via a per-tracer context variable."""

    def __init__(self):
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: ContextVar[int | None] = ContextVar("repro_span", default=None)
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child of the context's current span; record on exit.

        Yields the span's attribute dict, so the block can add attributes
        it only learns while running (``with span(...) as attrs``; the
        inactive :func:`repro.obs.span` yields ``None``). The span is
        appended when the block exits (even on exception), so
        ``self.spans`` holds only finished spans — children before their
        parents, which exporters reorder by start time.
        """
        span_id = next(self._ids)
        parent_id = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            duration = time.perf_counter() - start
            self._current.reset(token)
            record = Span(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                start_s=start - self._epoch,
                duration_s=duration,
                attrs=attrs,
            )
            with self._lock:
                self.spans.append(record)

    def roots(self) -> list[Span]:
        """Top-level spans (no parent), in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id is None), key=lambda s: s.start_s
        )

    def children(self, span: Span) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: s.start_s,
        )
