"""Persistent spawn-context worker pool with work stealing.

The CPU analogue of the paper's §3.6 execution discipline: thousands of
GPU workers stay resident next to the graph and pull work dynamically,
so no launch cost is paid per query and no straggler holds the tail.
Here the residents are OS processes (spawn context — no fork
assumptions, true multi-core under the GIL), the graph reaches them
zero-copy through :mod:`repro.parallel.shm`, and work distribution is a
split-half stealing protocol over interleaved start-vertex chunks:

* a call over ``n`` roots cuts ``k = ceil(n / chunk_size)`` chunks, and
  chunk ``c`` holds the roots ``c, c+k, c+2k, …`` (:func:`chunk_roots`).
  Degree-ordered ids put the hubs at low ids, so interleaving spreads
  them over every chunk instead of piling them into chunk 0; the parent
  computes only ``k`` and each worker builds just the chunk it takes;
* the chunk index space starts as one contiguous span per worker,
  published in a shared ``Array``;
* a worker takes chunks off the *front* of its own span one at a time;
* a worker whose span is empty picks the victim with the most remaining
  work and steals the *back half* of its span (classic Cilk-style
  split-half, all under one cross-process lock — span updates are two
  integer writes, so the critical section is tiny);
* when every span is drained the worker ships its
  :class:`~repro.core.backends.PartialSum` (its busy time rides in the
  sum's ``WorkerDelta``) plus steal stats, and parks on its control pipe
  waiting for the next call.

The pool starts its workers once and reuses them across calls
(``repro_pool_dispatch_seconds`` measures the per-call overhead that
remains), detects dead workers and respawns, and shuts itself down after
``idle_ttl_s`` without traffic. It is the only worker substrate, and its
start method is always ``spawn``.

``get_default_pool()`` hands out a process-wide pool (the
:class:`~repro.core.backends.PoolBackend`'s path);
:meth:`repro.runtime.Runtime.close` and an ``atexit`` hook tear it down.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .shm import attach_graph, default_manager, shm_available

__all__ = [
    "WorkerPool",
    "PoolStats",
    "get_default_pool",
    "shutdown_default_pool",
]

# Parent-side wait granularity while reducing results: short enough to
# notice a dead worker promptly, long enough to stay off the CPU.
_REAP_POLL_S = 0.05
# re-runs of a call whose worker died mid-call (each after a full respawn)
_MAX_RETRIES = 2
_CTX = mp.get_context("spawn")


@dataclass(frozen=True)
class PoolStats:
    """Cumulative per-pool counters (parent side)."""

    calls: int = 0
    steals: int = 0
    stolen_chunks: int = 0
    respawns: int = 0
    retries: int = 0


class WorkerDied(RuntimeError):
    """A worker process vanished mid-call (the pool resets and retries)."""


# ----------------------------------------------------------------------
# worker process body
# ----------------------------------------------------------------------
def chunk_roots(c: int, num_chunks: int, num_vertices: int) -> np.ndarray:
    """Roots of chunk ``c`` of ``num_chunks``: ``c, c+k, c+2k, …``.

    The chunks partition ``0..num_vertices-1`` and their sizes differ by
    at most one.
    """
    return np.arange(c, num_vertices, num_chunks, dtype=np.int64)


def _take_chunk(spans, wid: int, num_workers: int) -> tuple[int, int] | None:
    """Next chunk index for worker ``wid``: own span first, else steal.

    Returns ``(chunk_index, moved)``, where ``moved`` is the number of
    chunks a split-half steal took from the victim (0 off the own span),
    or ``None`` when every span is drained (the call is complete — no
    new work ever appears mid-call).
    """
    with spans.get_lock():
        lo, hi = spans[2 * wid], spans[2 * wid + 1]
        if lo < hi:
            spans[2 * wid] = lo + 1
            return lo, 0
        victim, best_rem = -1, 0
        for v in range(num_workers):
            rem = spans[2 * v + 1] - spans[2 * v]
            if v != wid and rem > best_rem:
                victim, best_rem = v, rem
        if victim < 0:
            return None
        vlo, vhi = spans[2 * victim], spans[2 * victim + 1]
        # split-half: victim keeps the front, thief takes the back
        mid = vlo + best_rem // 2 if best_rem > 1 else vlo
        spans[2 * victim + 1] = mid
        spans[2 * wid] = mid + 1  # thief immediately takes the first chunk
        spans[2 * wid + 1] = vhi
        return mid, vhi - mid


def _resolve_graph(graph_spec) -> CSRGraph:
    kind, payload = graph_spec
    if kind == "shm":
        return attach_graph(payload)
    return payload  # "inline": the pickled graph itself


def _worker_main(wid: int, num_workers: int, conn, result_q, spans) -> None:
    """One resident worker: park on the control pipe, serve calls."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        if msg[0] != "call":  # pragma: no cover - protocol guard
            continue
        _, call_id, payload = msg
        try:
            result_q.put(_worker_call(wid, num_workers, spans, call_id, payload))
        except Exception as exc:  # ship the failure; parent fails the call
            result_q.put(("error", call_id, wid, f"{type(exc).__name__}: {exc}"))


def _worker_call(wid, num_workers, spans, call_id, payload):
    from ..core.backends import PartialSum, WorkerDelta

    plan, members = payload["plan"], payload["members"]
    inner = payload["inner"]
    graph = _resolve_graph(payload["graph"])
    num_chunks, num_vertices = payload["num_chunks"], payload["num_vertices"]
    local = obs.Observer(trace=False) if payload["collect_metrics"] else None
    out = PartialSum()
    done = steals = stolen = 0
    t0 = time.perf_counter()
    with local if local is not None else contextlib.nullcontext():
        while True:
            nxt = _take_chunk(spans, wid, num_workers)
            if nxt is None:
                break
            ci, moved = nxt
            roots = chunk_roots(ci, num_chunks, num_vertices)
            out += inner.run(plan, graph, start_vertices=roots, members=members)
            done += 1
            if moved:
                steals += 1
                stolen += moved
    elapsed = time.perf_counter() - t0
    delta = WorkerDelta(
        pid=os.getpid(),
        chunks=done,
        matches=out.matches,
        venn_fc_s=out.venn_fc_s,
        batches=out.batches,
        elapsed_s=elapsed,
        metrics=local.metrics.snapshot() if local is not None else None,
    )
    stats = {"worker": wid, "chunks": done, "steals": steals, "stolen_chunks": stolen}
    return ("done", call_id, wid, replace(out, workers=(delta,)), stats)


# ----------------------------------------------------------------------
# parent-side pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Persistent process pool executing CountingPlan calls.

    Workers are started lazily on the first :meth:`count` and reused
    until :meth:`shutdown` (or ``idle_ttl_s`` of silence, or process
    exit). One call runs at a time — concurrent callers queue on an
    internal lock, and the wait is what ``repro_pool_dispatch_seconds``
    measures — but each call uses every worker.
    """

    def __init__(self, num_workers: int, *, idle_ttl_s: float | None = None):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.idle_ttl_s = idle_ttl_s
        self.stats = PoolStats()
        self._call_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._procs: list = []
        self._conns: list = []
        self._result_q = None
        self._spans = None
        self._call_seq = 0
        self._last_used = time.monotonic()
        self._idle_timer: threading.Timer | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self._procs if p.is_alive()]

    def start(self) -> None:
        """Spawn the resident workers (idempotent while they are alive)."""
        with self._state_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self._procs and all(p.is_alive() for p in self._procs):
                return
            self._teardown_locked()
            t0 = time.perf_counter()
            self._result_q = _CTX.Queue()
            self._spans = _CTX.Array("q", 2 * self.num_workers, lock=True)
            self._procs, self._conns = [], []
            for wid in range(self.num_workers):
                parent_conn, child_conn = _CTX.Pipe()
                proc = _CTX.Process(
                    target=_worker_main,
                    args=(wid, self.num_workers, child_conn, self._result_q, self._spans),
                    name=f"repro-pool-{wid}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            obs.gauge_set("repro_pool_workers", len(self._procs))
            obs.observe("repro_pool_spinup_seconds", time.perf_counter() - t0)

    def shutdown(self) -> None:
        """Stop the workers; the pool restarts lazily on the next call."""
        with self._state_lock:
            self._teardown_locked()

    def close(self) -> None:
        """Shut down permanently (``start`` raises afterwards)."""
        with self._state_lock:
            self._closed = True
            self._teardown_locked()

    def _teardown_locked(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            finally:
                conn.close()
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._result_q is not None:
            self._result_q.close()
            self._result_q.cancel_join_thread()
        self._procs, self._conns = [], []
        self._result_q, self._spans = None, None
        obs.gauge_set("repro_pool_workers", 0)

    def _reset(self) -> None:
        """Hard restart after a dead worker: everything is respawned."""
        with self._state_lock:
            self._teardown_locked()
        self.stats = replace(self.stats, respawns=self.stats.respawns + 1)
        obs.counter_add("repro_pool_respawns_total")
        self.start()

    # ------------------------------------------------------------------
    # the call path
    # ------------------------------------------------------------------
    def count(
        self, plan, graph: CSRGraph, *, chunk_size: int = 256, inner=None, members=None
    ):
        """Run ``plan`` over ``graph`` across the resident workers.

        ``members`` are the plans scored on every match (default:
        ``plan``), shipped with it. Returns the reduced
        :class:`~repro.core.backends.PartialSum` (un-normalized, like
        every backend; one sum per member). Exact under work stealing:
        the ``ceil(n / chunk_size)`` interleaved chunks partition the
        start-vertex space and each chunk is executed exactly once.
        """
        from ..core.backends import FrontierBackend, PartialSum

        if inner is None:
            inner = FrontierBackend()
        t_submit = time.perf_counter()
        with self._call_lock:
            self.start()
            last_exc: Exception | None = None
            for attempt in range(_MAX_RETRIES + 1):
                if attempt:
                    self.stats = replace(self.stats, retries=self.stats.retries + 1)
                    obs.counter_add("repro_pool_retries_total")
                try:
                    result = self._run_call(plan, members, graph, chunk_size, inner, t_submit)
                    break
                except WorkerDied as exc:
                    last_exc = exc
                    self._reset()
            else:
                raise RuntimeError(
                    f"pool call failed after {_MAX_RETRIES} retries: {last_exc}"
                ) from last_exc
            self.stats = replace(self.stats, calls=self.stats.calls + 1)
            self._last_used = time.monotonic()
            self._arm_idle_timer()
        assert isinstance(result, PartialSum)
        return result

    def _run_call(self, plan, members, graph, chunk_size, inner, t_submit):
        call_id = self._call_seq = self._call_seq + 1
        num_chunks = -(-graph.num_vertices // chunk_size)
        # initial even split of the chunk index space, one span per worker
        base, extra = divmod(num_chunks, self.num_workers)
        with self._spans.get_lock():
            lo = 0
            for w in range(self.num_workers):
                hi = lo + base + (1 if w < extra else 0)
                self._spans[2 * w] = lo
                self._spans[2 * w + 1] = hi
                lo = hi
        if shm_available():
            graph_spec = ("shm", default_manager().ensure(graph))
        else:  # pragma: no cover - no-shm platforms ship the arrays
            graph_spec = ("inline", graph)
        payload = {
            "plan": plan,
            "members": members,
            "inner": inner,
            "graph": graph_spec,
            "num_vertices": graph.num_vertices,
            "num_chunks": num_chunks,
            "collect_metrics": obs.active_metrics() is not None,
        }
        for conn in self._conns:
            try:
                conn.send(("call", call_id, payload))
            except (OSError, BrokenPipeError) as exc:
                raise WorkerDied(f"worker pipe broke during dispatch: {exc}") from exc
        dispatch_s = time.perf_counter() - t_submit
        total, stats = self._reduce(call_id)
        self._record_metrics(total, stats, dispatch_s)
        return total

    def _reduce(self, call_id):
        from ..core.backends import PartialSum

        total = PartialSum()
        stats: list[dict] = []
        pending = set(range(self.num_workers))
        while pending:
            try:
                msg = self._result_q.get(timeout=_REAP_POLL_S)
            except queue_mod.Empty:
                dead = [w for w in pending if not self._procs[w].is_alive()]
                if dead:
                    raise WorkerDied(
                        f"worker(s) {dead} died mid-call "
                        f"(exitcodes {[self._procs[w].exitcode for w in dead]})"
                    )
                continue
            if msg[0] == "error":
                _, cid, wid, text = msg
                if cid != call_id:
                    continue  # stale message from an aborted call
                raise RuntimeError(f"pool worker {wid} failed: {text}")
            _, cid, wid, partial, wstats = msg
            if cid != call_id or wid not in pending:
                continue
            pending.discard(wid)
            total += partial
            stats.append(wstats)
        return total, stats

    # ------------------------------------------------------------------
    def _record_metrics(self, total, stats, dispatch_s: float) -> None:
        """Fold one call's worker stats into ``self.stats`` and, when
        observability is on, into the active registry.

        The workers' metric deltas are merged, per-pid busy time becomes
        a labeled gauge series plus a busy-time histogram, and the
        makespan / mean-busy ratio becomes the load-imbalance gauge the
        paper's §3.6 dynamic-schedule discussion is about (1.0 =
        perfectly balanced).
        """
        steals = sum(s["steals"] for s in stats)
        stolen = sum(s["stolen_chunks"] for s in stats)
        self.stats = replace(
            self.stats,
            steals=self.stats.steals + steals,
            stolen_chunks=self.stats.stolen_chunks + stolen,
        )
        registry = obs.active_metrics()
        if registry is None:
            return
        busy: dict[int, float] = {}
        for w in total.workers:
            busy[w.pid] = busy.get(w.pid, 0.0) + w.elapsed_s
            if w.metrics:
                registry.merge(w.metrics)
        for pid, seconds in sorted(busy.items()):
            registry.gauge("repro_worker_busy_seconds", worker=str(pid)).set(seconds)
            registry.histogram("repro_worker_elapsed_seconds").observe(seconds)
        # every worker ships a delta, so ``busy`` is never empty
        mean = sum(busy.values()) / len(busy)
        registry.gauge("repro_worker_load_imbalance").set(
            max(busy.values()) / mean if mean > 0 else 1.0
        )
        registry.gauge("repro_workers").set(len(busy))
        registry.gauge("repro_pool_workers").set(self.num_workers)
        registry.counter("repro_pool_steals_total").inc(steals)
        registry.counter("repro_pool_stolen_chunks_total").inc(stolen)
        registry.histogram("repro_pool_dispatch_seconds").observe(dispatch_s)
        registry.gauge("repro_shm_bytes").set(default_manager().total_bytes())
        for s in stats:
            wid = str(s["worker"])
            registry.gauge("repro_pool_worker_steals", worker=wid).set(s["steals"])
            registry.gauge("repro_pool_worker_chunks", worker=wid).set(s["chunks"])

    def _arm_idle_timer(self) -> None:
        if self.idle_ttl_s is None:
            return
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self._idle_timer = threading.Timer(self.idle_ttl_s, self._idle_check)
        self._idle_timer.daemon = True
        self._idle_timer.start()

    def _idle_check(self) -> None:
        if not self._call_lock.acquire(blocking=False):
            return  # a call is running; it will re-arm on completion
        try:
            if time.monotonic() - self._last_used >= (self.idle_ttl_s or 0):
                self.shutdown()
        finally:
            self._call_lock.release()

    def __repr__(self) -> str:
        state = "running" if self.running else ("closed" if self._closed else "idle")
        return (
            f"WorkerPool(num_workers={self.num_workers}, "
            f"{state}, calls={self.stats.calls}, steals={self.stats.steals})"
        )


# ----------------------------------------------------------------------
# process-wide default pool
# ----------------------------------------------------------------------
_default_pool: WorkerPool | None = None
_default_pool_lock = threading.Lock()


def get_default_pool(num_workers: int, *, idle_ttl_s: float | None = 300.0) -> WorkerPool:
    """The process-wide persistent pool (created/resized on demand).

    A request for a different worker count replaces the pool
    (the old workers are stopped first) — callers that need several
    concurrent shapes should hold their own :class:`WorkerPool`.
    """
    global _default_pool
    with _default_pool_lock:
        pool = _default_pool
        if pool is None or pool._closed or pool.num_workers != num_workers:
            if pool is not None:
                pool.close()
            pool = _default_pool = WorkerPool(num_workers, idle_ttl_s=idle_ttl_s)
        return pool


def shutdown_default_pool() -> None:
    """Stop and drop the process-wide pool (Runtime.close / atexit)."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is not None:
            _default_pool.close()
            _default_pool = None


atexit.register(shutdown_default_pool)
