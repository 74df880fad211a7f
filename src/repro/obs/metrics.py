"""Process-wide metrics: counters, gauges, and fixed-bucket histograms.

The paper's evaluation (§6) is a performance characterization —
throughput, per-stage cost splits, load balance — so the reproduction
needs first-class metrics, not ad-hoc prints. This module provides the
data structures only; the *recording* helpers that check whether
observability is active live in :mod:`repro.obs` so the disabled path
stays one pointer check.

Design constraints:

* **mergeable** — pool workers snapshot their registry and the
  parent merges the deltas at reduction (``snapshot()`` / ``merge()``),
  which is how per-worker load-imbalance series cross the process
  boundary;
* **fixed buckets** — histograms use per-metric bucket tables declared
  in :data:`BUCKETS`, so worker snapshots always merge bin-for-bin;
* **thread-safe** — one registry serves every thread of a Runtime.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BUCKETS",
    "DEFAULT_BUCKETS",
]

# Per-metric bucket tables (upper bounds, Prometheus ``le`` semantics).
# Seconds-shaped metrics share the latency table; size-shaped metrics use
# powers of four, matching the paper's orders-of-magnitude plots.
_LATENCY_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)
_SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)
# Micro-batch sizes are small by construction (ServiceConfig.max_batch):
# powers of two up to a generous cap keep every realistic size resolvable.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

DEFAULT_BUCKETS = _LATENCY_BUCKETS

BUCKETS: dict[str, tuple[float, ...]] = {
    "repro_count_latency_seconds": _LATENCY_BUCKETS,
    "repro_compile_seconds": _LATENCY_BUCKETS,
    "repro_worker_elapsed_seconds": _LATENCY_BUCKETS,
    "repro_venn_set_size": _SIZE_BUCKETS,
    "repro_candidate_set_size": _SIZE_BUCKETS,
    "repro_batch_matches": _SIZE_BUCKETS,
    "repro_serve_latency_seconds": _LATENCY_BUCKETS,
    "repro_serve_queue_wait_seconds": _LATENCY_BUCKETS,
    "repro_serve_batch_size": _BATCH_BUCKETS,
    "repro_pool_dispatch_seconds": _LATENCY_BUCKETS,
    "repro_pool_spinup_seconds": _LATENCY_BUCKETS,
}


class Counter:
    """Monotonically increasing value (int or float)."""

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self, lock: threading.Lock):
        self.value: float = 0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (set semantics, not additive)."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self, lock: threading.Lock):
        self.value: float = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (non-cumulative bins + overflow bin).

    ``counts[i]`` holds observations ``<= buckets[i]`` (and above the
    previous bound); ``counts[-1]`` is the overflow bin, which also
    takes NaN. The Prometheus exporter cumulates on the way out.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_bounds", "_lock")
    kind = "histogram"

    def __init__(self, lock: threading.Lock, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._bounds = np.asarray(self.buckets, dtype=np.float64)
        self._lock = lock

    def observe(self, value: float) -> None:
        # the first bound >= value; NaN compares false with every bound
        b = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            self.counts[b] += 1
            self.sum += value
            self.count += 1

    def observe_many(
        self, values: Iterable[float], counts: Sequence[int] | None = None
    ) -> None:
        """Record every value, or ``counts[i]`` copies of ``values[i]``.

        Bins the whole array with one ``searchsorted`` on the bounds (the
        bucket rule of :meth:`observe`; NaN sorts past every bound) and
        one ``bincount``, weighted by ``counts``, under one lock.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        if counts is None:
            weights = None
            total = len(vals)
        else:
            weights = np.asarray(counts, dtype=np.int64).reshape(-1)
            if weights.shape != vals.shape:
                raise ValueError("observe_many: values and counts differ in length")
            if (weights < 0).any():
                raise ValueError("observe_many: negative count")
            # a zero count records nothing, not even a NaN in the sum
            keep = weights > 0
            vals, weights = vals[keep], weights[keep]
            total = int(weights.sum())
        if total == 0:
            return
        bins = np.bincount(
            np.searchsorted(self._bounds, vals, side="left"),
            weights=weights,
            minlength=len(self.counts),
        ).astype(np.int64).tolist()
        added = float(vals.sum() if weights is None else vals @ weights)
        with self._lock:
            for i, c in enumerate(bins):
                self.counts[i] += c
            self.sum += added
            self.count += total

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Name+labels → metric map with snapshot/merge for worker deltas."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}

    # -- access (get-or-create; kind mismatches are programming errors) --
    def _get(self, factory, name: str, labels: Mapping[str, str]):
        key = (name, _label_key(labels) if labels else ())
        # an existing metric is one dict read; the lock guards creation
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(lambda: Counter(self._lock), name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(lambda: Gauge(self._lock), name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None, **labels: str
    ) -> Histogram:
        def create() -> Histogram:
            resolved = tuple(buckets) if buckets is not None else BUCKETS.get(name, DEFAULT_BUCKETS)
            return Histogram(self._lock, resolved)

        return self._get(create, name, labels)

    # ------------------------------------------------------------------
    def collect(self) -> list[tuple[str, dict, Counter | Gauge | Histogram]]:
        """Sorted (name, labels, metric) triples for exporters."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [(name, dict(labelkey), metric) for (name, labelkey), metric in items]

    def snapshot(self) -> list[dict]:
        """Plain-data (picklable) dump — the cross-process delta format."""
        out: list[dict] = []
        for name, labels, metric in self.collect():
            entry: dict = {"name": name, "labels": labels, "type": metric.kind}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out

    def merge(self, snapshot: Iterable[Mapping]) -> None:
        """Fold a :meth:`snapshot` into this registry (additive for
        counters/histograms, last-wins for gauges)."""
        for entry in snapshot:
            name, labels = entry["name"], dict(entry.get("labels", {}))
            kind = entry["type"]
            if kind == "counter":
                self.counter(name, **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name, **labels).set(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(name, buckets=entry["buckets"], **labels)
                if tuple(entry["buckets"]) != hist.buckets:
                    raise ValueError(f"bucket mismatch merging histogram {name!r}")
                with hist._lock:
                    for i, c in enumerate(entry["counts"]):
                        hist.counts[i] += c
                    hist.sum += entry["sum"]
                    hist.count += entry["count"]
            else:  # pragma: no cover - snapshot always writes known kinds
                raise ValueError(f"unknown metric kind {kind!r}")
