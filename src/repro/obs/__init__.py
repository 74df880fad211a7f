"""Observability for the counting engine (``repro.obs``).

The paper's evaluation is entirely performance characterization —
throughput, per-stage cost splits, warp occupancy, load balance — and
this package is how the reproduction measures the same things end to
end:

* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  fixed-bucket histograms, snapshot-mergeable across pool workers;
* :mod:`repro.obs.trace` — span-based tracing with ``contextvars``
  nesting and monotonic clocks;
* :mod:`repro.obs.export` — JSONL traces, Prometheus text metrics, and
  a human-readable table for the CLI.

An :class:`Observer` bundles one tracer and one registry. Activation is
scoped: ``with Observer() as ob`` installs it for the current execution
context (threads inherit it), and :func:`enable`
installs a process-global fallback. Instrumented code calls the module
helpers (:func:`span`, :func:`counter_add`, :func:`observe`, ...) which
resolve the active observer per call — when nothing is active each
helper is a single pointer check, so the engine's hot paths pay
effectively nothing with observability off.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from contextvars import ContextVar
from typing import Iterable, Sequence

from .export import metrics_table, prometheus_text, trace_jsonl_lines, write_trace_jsonl
from .metrics import BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "Observer",
    "current",
    "enable",
    "disable",
    "span",
    "counter_add",
    "gauge_set",
    "observe",
    "observe_many",
    "active_metrics",
    # re-exports
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "BUCKETS",
    "Tracer",
    "Span",
    "metrics_table",
    "prometheus_text",
    "trace_jsonl_lines",
    "write_trace_jsonl",
]


class Observer:
    """One tracer + one metrics registry, installable as a scope.

    ``with Observer() as ob:`` activates it for the current context (and
    anything forked from it); nesting restores the previous observer on
    exit. Pass ``trace=False`` / ``metrics=False`` to collect only one
    side — workers, for example, run metrics-only registries and ship
    the snapshot back through :class:`~repro.core.backends.PartialSum`.
    """

    def __init__(self, *, trace: bool = True, metrics: bool = True):
        self.tracer: Tracer | None = Tracer() if trace else None
        self.metrics: MetricsRegistry | None = MetricsRegistry() if metrics else None
        self._tls = threading.local()

    def __enter__(self) -> "Observer":
        stack = getattr(self._tls, "tokens", None)
        if stack is None:
            stack = self._tls.tokens = []
        stack.append(_active.set(self))
        return self

    def __exit__(self, *exc) -> bool:
        _active.reset(self._tls.tokens.pop())
        return False


_active: ContextVar[Observer | None] = ContextVar("repro_observer", default=None)
_global: Observer | None = None

_NULL_SPAN = nullcontext(None)


def current() -> Observer | None:
    """The active observer: context-scoped first, process-global second."""
    observer = _active.get()
    return observer if observer is not None else _global


def enable(*, trace: bool = True, metrics: bool = True) -> Observer:
    """Install (and return) a process-global observer."""
    global _global
    _global = Observer(trace=trace, metrics=metrics)
    return _global


def disable() -> None:
    """Remove the process-global observer."""
    global _global
    _global = None


# ----------------------------------------------------------------------
# instrumentation helpers — one pointer check when observability is off
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """Context manager for a trace span (shared no-op when inactive)."""
    observer = current()
    if observer is None or observer.tracer is None:
        return _NULL_SPAN
    return observer.tracer.span(name, **attrs)


def active_metrics() -> MetricsRegistry | None:
    """The active registry, or None — hot loops check this once up front."""
    observer = current()
    return observer.metrics if observer is not None else None


def counter_add(name: str, amount: float = 1, **labels: str) -> None:
    registry = active_metrics()
    if registry is not None:
        registry.counter(name, **labels).inc(amount)


def gauge_set(name: str, value: float, **labels: str) -> None:
    registry = active_metrics()
    if registry is not None:
        registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: str) -> None:
    registry = active_metrics()
    if registry is not None:
        registry.histogram(name, **labels).observe(value)


def observe_many(
    name: str, values: Iterable[float], counts: Sequence[int] | None = None, **labels: str
) -> None:
    """Record ``values`` (``counts[i]`` copies of ``values[i]`` when given)."""
    registry = active_metrics()
    if registry is not None:
        registry.histogram(name, **labels).observe_many(values, counts)
