"""The request pipeline: admit → coalesce/batch → execute → respond.

:class:`CountingService` is the asyncio core of ``repro.serve``. Its
lifecycle for one request:

1. **admit** — resolve the graph (``unknown_graph``), parse the pattern
   (``bad_pattern``), build the canonical result key
   (:meth:`repro.runtime.Runtime.result_cache_key`). A full admission
   queue rejects immediately with ``overloaded`` — bounded memory and
   bounded tail latency beat an unbounded backlog.
2. **coalesce** — if an identical query (same graph fingerprint, same
   plan key, same engine) is already in flight, the request attaches to
   it: N concurrent clients asking the same question cost one execution.
   Otherwise check the LRU+TTL result cache, then enqueue.
3. **batch** — a single batcher task drains the queue, groups compatible
   requests *per graph*, and dispatches each group to a thread-pool
   executor job that runs its requests one by one through the shared
   :class:`~repro.runtime.Runtime` (:meth:`~repro.runtime.Runtime.count`),
   so the event loop never blocks on a count. In-flight executor jobs
   are bounded by the worker count; when they are all busy the queue
   backs up and admission control takes over.
4. **respond** — each waiter's future resolves with a typed response;
   waiters whose deadline lapses first get ``deadline_exceeded`` without
   cancelling the shared execution (late coalesced arrivals still
   benefit, and the result still populates the cache).

Every stage is observable: spans (``serve.admit`` → ``serve.batch`` →
``serve.execute`` → ``serve.respond``) when tracing is on, and metrics
for queue depth, batch sizes, coalesced/rejected/expired counts, result
cache hit ratio, and end-to-end latency always.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

from .. import obs
from ..patterns.dsl import parse_pattern
from ..runtime import Runtime
from .protocol import (
    BAD_PATTERN,
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL,
    OVERLOADED,
    CountRequest,
    CountResponse,
    Deadline,
    ErrorResponse,
    ServeError,
)
from .registry import GraphEntry, GraphRegistry

__all__ = ["ServiceConfig", "CountingService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs for one :class:`CountingService`.

    ``max_queue`` is the admission bound (requests beyond it are rejected
    ``overloaded``); ``max_batch`` caps one micro-batch;
    ``batch_window_s`` lets the batcher linger that long after the first
    dequeue to gather a fuller batch (0 = drain opportunistically only);
    ``executor_workers`` bounds concurrently executing batches;
    ``executor`` picks where the CPU-bound count itself runs —
    ``"thread"`` keeps it on the service's thread pool (GIL-bound),
    ``"pool"`` dispatches matcher work through the persistent
    shared-memory :class:`~repro.parallel.workerpool.WorkerPool` with
    ``pool_workers`` processes (None = the parallel layer's default),
    while closed-form counts stay on the executor thread;
    ``result_cache_size``/``result_cache_ttl_s`` shape the LRU+TTL result
    cache (size 0 disables it); ``default_timeout_s`` is the deadline for
    requests that do not carry their own (None = no deadline).
    """

    max_queue: int = 128
    max_batch: int = 16
    batch_window_s: float = 0.0
    executor_workers: int = 2
    executor: str = "thread"
    pool_workers: int | None = None
    result_cache_size: int = 1024
    result_cache_ttl_s: float = 300.0
    default_timeout_s: float | None = 30.0

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.executor_workers < 1:
            raise ValueError("executor_workers must be positive")
        if self.executor not in ("thread", "pool"):
            raise ValueError(f"executor must be 'thread' or 'pool', got {self.executor!r}")
        if self.pool_workers is not None and self.pool_workers < 1:
            raise ValueError("pool_workers must be positive")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")


class _Inflight:
    """One unique (graph, plan, engine) execution and all its waiters."""

    __slots__ = ("key", "request", "gentry", "pattern", "config", "deadline",
                 "future", "waiters", "enqueued_at")

    def __init__(self, key, request, gentry, pattern, config, deadline, future):
        self.key = key
        self.request = request
        self.gentry: GraphEntry = gentry
        self.pattern = pattern
        self.config = config
        self.deadline: Deadline = deadline
        self.future: asyncio.Future = future
        self.waiters = 1
        self.enqueued_at = time.perf_counter()


class CountingService:
    """Asyncio counting service over a :class:`GraphRegistry`.

    Create it, ``start()`` it inside a running event loop, ``await
    submit(request)`` as many times as you like (from any number of
    tasks), then ``await stop()``. The HTTP layer in
    :mod:`repro.serve.http` is a thin shell over this class; tests drive
    it directly with asyncio tasks and no sockets.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        *,
        config: ServiceConfig | None = None,
        runtime: Runtime | None = None,
        observer: "obs.Observer | None" = None,
    ):
        self.registry = registry
        self.config = config or ServiceConfig()
        self.observer = observer or obs.Observer(trace=False, metrics=True)
        self.metrics = self.observer.metrics or obs.MetricsRegistry()
        self.runtime = runtime or Runtime(observer=self.observer)
        self.started_at = time.time()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Inflight] | None = None
        self._batcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._exec_slots: asyncio.Semaphore | None = None
        self._inflight: dict[tuple, _Inflight] = {}
        # result cache: key -> (monotonic expiry, CountResponse); guarded by a
        # threading lock because executor threads populate it.
        self._cache: OrderedDict[tuple, tuple[float, CountResponse]] = OrderedDict()
        self._cache_lock = threading.Lock()
        # executor="pool": matcher work leaves the thread pool and runs on
        # the persistent spawn-context WorkerPool (true multi-core; the
        # executor thread merely dispatches and waits). Closed-form counts
        # stay on the executor thread: the Runtime settles the engine first.
        if self.config.executor == "pool":
            from ..parallel import ParallelConfig

            self._parallel: "ParallelConfig | None" = ParallelConfig(
                num_workers=self.config.pool_workers
            )
        else:
            self._parallel = None
        registry.subscribe(self._on_registry_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind to the running event loop and start the batcher task."""
        if self._batcher is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._exec_slots = asyncio.Semaphore(self.config.executor_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers, thread_name_prefix="repro-serve"
        )
        self._batcher = asyncio.create_task(self._batch_loop(), name="repro-serve-batcher")

    async def stop(self) -> None:
        """Cancel the batcher, fail pending requests, release the executor."""
        if self._batcher is None:
            return
        self._batcher.cancel()
        try:
            await self._batcher
        except asyncio.CancelledError:
            pass
        self._batcher = None
        for entry in list(self._inflight.values()):
            if not entry.future.done():
                entry.future.set_result(
                    ErrorResponse(code=INTERNAL, message="service stopped")
                )
        self._inflight.clear()
        assert self._executor is not None
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._executor = None

    # ------------------------------------------------------------------
    # the request pipeline
    # ------------------------------------------------------------------
    async def submit(self, request: CountRequest) -> CountResponse | ErrorResponse:
        """Run one request through the full pipeline; never raises
        :class:`ServeError` — typed failures come back as
        :class:`ErrorResponse` so every caller handles one shape."""
        if self._queue is None:
            raise RuntimeError("service not started (call start() in a running loop)")
        t0 = time.perf_counter()
        self._count_request()
        deadline = Deadline.after(
            request.timeout_s if request.timeout_s is not None
            else self.config.default_timeout_s
        )
        try:
            response = await self._submit_inner(request, deadline, t0)
        except ServeError as exc:
            response = exc.response()
        except Exception as exc:  # defensive: a pipeline bug must not kill callers
            response = ErrorResponse(code=INTERNAL, message=f"{type(exc).__name__}: {exc}")
        self._finish(response, t0)
        return response

    async def _submit_inner(
        self, request: CountRequest, deadline: Deadline, t0: float
    ) -> CountResponse | ErrorResponse:
        with self._span("serve.admit", graph=request.graph, pattern=request.pattern):
            gentry = self.registry.get(request.graph)
            try:
                pattern = parse_pattern(request.pattern)
            except Exception as exc:
                raise ServeError(BAD_PATTERN, f"bad pattern {request.pattern!r}: {exc}") from exc
            config = request.engine_config()
            key = self.runtime.result_cache_key(
                gentry.graph, pattern, config, engine=request.engine
            )

        # result cache (read side)
        if request.use_cache:
            hit = self._cache_get(key)
            if hit is not None:
                self.metrics.counter("repro_serve_result_cache_hits_total").inc()
                self._cache_ratio()
                return replace(hit, cached=True, coalesced=False)
            self.metrics.counter("repro_serve_result_cache_misses_total").inc()
            self._cache_ratio()

        # coalesce onto identical in-flight work
        entry = self._inflight.get(key)
        if entry is not None and not entry.future.done():
            entry.waiters += 1
            entry.deadline.extend_to(deadline)
            self.metrics.counter("repro_serve_coalesced_total").inc()
            return await self._await_entry(entry, deadline, coalesced=True)

        # admission control: a full queue rejects rather than buffers
        entry = _Inflight(
            key, request, gentry, pattern, config, deadline,
            self._loop.create_future(),
        )
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self.metrics.counter("repro_serve_rejected_total").inc()
            return ErrorResponse(
                code=OVERLOADED,
                message=f"admission queue full ({self.config.max_queue} pending)",
                details={"max_queue": self.config.max_queue},
            )
        self._inflight[key] = entry
        self._gauge_depth()
        return await self._await_entry(entry, deadline, coalesced=False)

    async def _await_entry(
        self, entry: _Inflight, deadline: Deadline, *, coalesced: bool
    ) -> CountResponse | ErrorResponse:
        """Wait for the shared execution, bounded by *this* waiter's deadline.

        ``shield`` keeps a lapsed waiter from cancelling work other
        waiters (and the result cache) still want.
        """
        try:
            response = await asyncio.wait_for(
                asyncio.shield(entry.future), timeout=deadline.remaining()
            )
        except asyncio.TimeoutError:
            self.metrics.counter("repro_serve_expired_total").inc()
            return ErrorResponse(
                code=DEADLINE_EXCEEDED, message="deadline expired while waiting for result"
            )
        if coalesced and isinstance(response, CountResponse):
            response = replace(response, coalesced=True)
        return response

    # ------------------------------------------------------------------
    # batching + execution
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queue is not None and self._exec_slots is not None
        while True:
            first = await self._queue.get()
            batch = [first]
            window = Deadline.after(self.config.batch_window_s or None)
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                    continue
                except asyncio.QueueEmpty:
                    pass
                remaining = window.remaining()
                if self.config.batch_window_s <= 0 or remaining is None or remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout=remaining)
                    )
                except asyncio.TimeoutError:
                    break
            self._gauge_depth()
            self.metrics.counter("repro_serve_batches_total").inc()
            self.metrics.histogram("repro_serve_batch_size").observe(len(batch))
            # group per graph so each executor job shares one input
            groups: dict[str, list[_Inflight]] = {}
            for entry in batch:
                groups.setdefault(entry.gentry.fingerprint, []).append(entry)
            with self._span("serve.batch", size=len(batch), graphs=len(groups)):
                for items in groups.values():
                    await self._exec_slots.acquire()
                    fut = self._loop.run_in_executor(
                        self._executor, self._execute_group, items
                    )
                    fut.add_done_callback(lambda _f: self._exec_slots.release())

    def _execute_group(self, items: list[_Inflight]) -> None:
        """Executor-thread body: run one per-graph group through the Runtime."""
        with self.observer:
            with self._span("serve.execute", graph=items[0].gentry.name, size=len(items)):
                for entry in items:
                    self._execute_one(entry, batch_size=len(items))

    def _execute_one(self, entry: _Inflight, *, batch_size: int) -> None:
        queued_s = time.perf_counter() - entry.enqueued_at
        self.metrics.histogram("repro_serve_queue_wait_seconds").observe(queued_s)
        if entry.deadline.expired:
            self.metrics.counter("repro_serve_expired_total").inc()
            self._resolve(
                entry,
                ErrorResponse(
                    code=DEADLINE_EXCEEDED, message="deadline expired before execution"
                ),
            )
            return
        try:
            result = self.runtime.count(
                entry.gentry.graph,
                entry.pattern,
                engine=entry.request.engine,
                config=entry.config,
                parallel=self._parallel,
            )
            response = CountResponse(
                graph=entry.gentry.name,
                pattern=entry.request.pattern,
                count=result.count,
                fingerprint=entry.gentry.fingerprint,
                engine=result.engine,
                elapsed_s=result.elapsed_s,
                batch_size=batch_size,
            )
        except ValueError as exc:  # the runtime refused the request itself
            self._resolve(entry, ErrorResponse(code=BAD_REQUEST, message=str(exc)))
            return
        except Exception as exc:
            self._resolve(
                entry,
                ErrorResponse(code=INTERNAL, message=f"{type(exc).__name__}: {exc}"),
            )
            return
        if entry.request.use_cache:
            self._cache_put(entry.key, response)
        self._resolve(entry, response)

    def _resolve(self, entry: _Inflight, response) -> None:
        """Hand the result back to the event loop thread."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._respond, entry, response)

    def _respond(self, entry: _Inflight, response) -> None:
        with self._span("serve.respond", waiters=entry.waiters):
            self._inflight.pop(entry.key, None)
            if not entry.future.done():
                entry.future.set_result(response)

    # ------------------------------------------------------------------
    # result cache (LRU + TTL)
    # ------------------------------------------------------------------
    def _cache_get(self, key: tuple) -> CountResponse | None:
        if self.config.result_cache_size == 0:
            return None
        with self._cache_lock:
            slot = self._cache.get(key)
            if slot is None:
                return None
            expires_at, response = slot
            if time.monotonic() >= expires_at:
                del self._cache[key]
                return None
            self._cache.move_to_end(key)
            return response

    def _cache_put(self, key: tuple, response: CountResponse) -> None:
        if self.config.result_cache_size == 0:
            return
        expires_at = time.monotonic() + self.config.result_cache_ttl_s
        with self._cache_lock:
            self._cache[key] = (expires_at, response)
            self._cache.move_to_end(key)
            while len(self._cache) > self.config.result_cache_size:
                self._cache.popitem(last=False)
            self.metrics.gauge("repro_serve_result_cache_size").set(len(self._cache))

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every cached result computed on graph content ``fingerprint``."""
        with self._cache_lock:
            stale = [key for key in self._cache if key[0] == fingerprint]
            for key in stale:
                del self._cache[key]
            self.metrics.gauge("repro_serve_result_cache_size").set(len(self._cache))
        if stale:
            self.metrics.counter("repro_serve_result_cache_invalidations_total").inc(
                len(stale)
            )
        return len(stale)

    def _on_registry_event(
        self, name: str, old: GraphEntry | None, new: GraphEntry | None
    ) -> None:
        # replace or evict: results for the old content are dead weight
        # (fingerprint keys already prevent stale hits).
        if old is not None and (new is None or new.fingerprint != old.fingerprint):
            self.invalidate_fingerprint(old.fingerprint)

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs):
        tracer = self.observer.tracer
        return tracer.span(name, **attrs) if tracer is not None else nullcontext()

    def _count_request(self) -> None:
        self.metrics.counter("repro_serve_requests_total").inc()

    def _gauge_depth(self) -> None:
        if self._queue is not None:
            self.metrics.gauge("repro_serve_queue_depth").set(self._queue.qsize())

    def _cache_ratio(self) -> None:
        hits = self.metrics.counter("repro_serve_result_cache_hits_total").value
        misses = self.metrics.counter("repro_serve_result_cache_misses_total").value
        total = hits + misses
        self.metrics.gauge("repro_serve_result_cache_hit_ratio").set(
            hits / total if total else 0.0
        )

    def _finish(self, response, t0: float) -> None:
        latency = time.perf_counter() - t0
        self.metrics.histogram("repro_serve_latency_seconds").observe(latency)
        code = "ok" if response.ok else response.code
        self.metrics.counter("repro_serve_responses_total", code=code).inc()
