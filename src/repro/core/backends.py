"""The Backend layer: execution substrates for a compiled CountingPlan.

A backend turns a :class:`~repro.core.plan.CountingPlan` plus a graph
(and an optional start-vertex slice — the unit of work distribution) into
a :class:`PartialSum`: the raw symmetry-reduced ordered-embedding sum
``sigma`` and the number of core matches visited. Backends never
normalize; :meth:`CountingPlan.normalize` is the single shared
normalization path.

Four substrates mirror the paper's execution models:

* :class:`SerialBackend` — the per-match Venn + fc pipeline (Listing 5);
* :class:`BatchBackend` — the vectorized fringe-polynomial formulation
  (one batched Venn pass per ``batch_size`` matches — the data-parallel
  shape the CUDA kernel uses), still driven by the per-match stack
  matcher;
* :class:`FrontierBackend` — fully vectorized: the frontier-at-a-time
  matcher (:mod:`repro.core.frontier`) produces whole *blocks* of core
  embeddings per NumPy kernel pass and feeds them straight into
  ``venn_batch`` + the compiled fringe polynomial, eliminating the
  per-embedding Python loop end to end (the warp model of Listing 7);
  both batched backends compute one Venn per distinct anchor set
  (:func:`venn_poly_sums`);
* :class:`MultiprocessBackend` — fork-pool distribution of start-vertex
  chunks across workers, each running an inner backend; the read-only CSR
  graph and the plan are shared copy-on-write, never pickled;
* :class:`PoolBackend` — the *persistent* spawn-context pool
  (:mod:`repro.parallel.workerpool`): workers started once and reused
  across calls, the graph resident in named shared memory
  (:mod:`repro.parallel.shm`), chunks served by split-half work stealing.
  Selected with ``ParallelConfig(pool="persistent")``.

This is the seam the GraphBLAS-style multi-backend papers advocate: one
logical algorithm, several execution substrates, all interchangeable and
all cross-checked in the test suite.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .fringe_count import fc_iterative, fc_recursive
from .frontier import FrontierStats, iter_frontier_blocks
from .matcher import match_cores
from .plan import CountingPlan
from .venn import VENN_IMPLS, row_venns, unique_anchor_sets, venn_batch

__all__ = [
    "PartialSum",
    "WorkerDelta",
    "Backend",
    "SerialBackend",
    "BatchBackend",
    "FrontierBackend",
    "MultiprocessBackend",
    "PoolBackend",
    "record_worker_metrics",
    "select_backend",
    "venn_poly_sums",
]


@dataclass(frozen=True)
class WorkerDelta:
    """One fork-pool job's contribution, attributed to its worker process.

    Crosses the process boundary inside :class:`PartialSum`, so the
    parent can compute per-worker load-imbalance (the paper's §3.6
    dynamic-schedule discussion) after the reduction. ``metrics`` is a
    :meth:`repro.obs.MetricsRegistry.snapshot` delta recorded by the
    worker while running this job (``None`` when observability is off).
    """

    pid: int
    chunks: int
    matches: int
    venn_fc_s: float
    batches: int
    elapsed_s: float
    metrics: list | None = None


@dataclass(frozen=True)
class PartialSum:
    """A backend's contribution: raw sums plus execution substatistics.

    ``sigma`` is Σ F_sets over the visited symmetry-reduced core
    embeddings (un-normalized); ``matches`` counts those embeddings.
    ``venn_fc_s`` is the time spent in Venn + fringe-count evaluation
    (as opposed to core matching); ``batches`` counts vectorized batch
    flushes. ``workers`` carries per-worker :class:`WorkerDelta` records
    out of the fork pool (empty for in-process execution); their fields
    sum to this object's totals. Partial sums add, so reductions are one
    ``sum()``.
    """

    sigma: int = 0
    matches: int = 0
    venn_fc_s: float = 0.0
    batches: int = 0
    workers: tuple[WorkerDelta, ...] = ()

    def __add__(self, other: "PartialSum") -> "PartialSum":
        return PartialSum(
            sigma=self.sigma + other.sigma,
            matches=self.matches + other.matches,
            venn_fc_s=self.venn_fc_s + other.venn_fc_s,
            batches=self.batches + other.batches,
            workers=self.workers + other.workers,
        )

    __radd__ = __add__


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a CountingPlan over a graph slice."""

    name: str

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum: ...


def venn_poly_sums(
    graph: CSRGraph,
    block: np.ndarray,
    positions: Sequence[int],
    polys: Sequence,
    batch_size: int,
    registry=None,
) -> tuple[list[int], int]:
    """Σ over a block of core embeddings of each polynomial's F(venn).

    ``block`` is ``(B, p)`` with the anchors at columns ``positions``;
    ``polys`` are :class:`~repro.core.fringe_poly.FringePolynomial` s
    that share those anchors. Returns one sum per polynomial and the
    number of ``batch_size`` row chunks evaluated.

    ``venn_batch`` runs once per distinct anchor set of the block, in
    ``batch_size`` chunks of sets; each row chunk then rebuilds its own
    diagrams from its sets' (:func:`~repro.core.venn.row_venns`) and
    feeds them to every polynomial. With ``registry`` set it records
    one ``repro_venn_set_size`` sample per row, one
    ``repro_batch_matches`` sample per chunk, and the number of distinct
    sets in ``repro_venn_unique_anchor_rows_total``.
    """
    sums = [0] * len(polys)
    if len(block) == 0:
        return sums, 0
    sets, inverse, rank = unique_anchor_sets(block[:, positions], graph.num_vertices)
    with obs.span("venn_unique", sets=len(sets), matches=len(block)):
        set_venns = np.empty((len(sets), 1 << len(positions)), dtype=np.int64)
        for s in range(0, len(sets), batch_size):
            chunk = sets[s : s + batch_size]
            set_venns[s : s + len(chunk)] = venn_batch(graph, chunk, chunk)
    batches = 0
    for s in range(0, len(block), batch_size):
        e = min(s + batch_size, len(block))
        with obs.span("venn_fc_batch", matches=e - s):
            venns = row_venns(graph, set_venns[inverse[s:e]], rank[s:e], block[s:e], positions)
            if registry is not None:
                registry.histogram("repro_batch_matches").observe(e - s)
                registry.histogram("repro_venn_set_size").observe_many(
                    venns.sum(axis=1).tolist()
                )
            for i, poly in enumerate(polys):
                sums[i] += poly.evaluate_batch(venns)
        batches += 1
    if registry is not None:
        registry.counter("repro_venn_unique_anchor_rows_total").inc(len(sets))
    return sums, batches


def _count_matches_only(plan, graph, start_vertices) -> PartialSum:
    """q == 0 (no anchored fringes): every core embedding contributes 1."""
    matches = sum(1 for _ in match_cores(graph, plan.core_plan, start_vertices=start_vertices))
    return PartialSum(sigma=matches, matches=matches)


class SerialBackend:
    """Per-match Venn + fc evaluation (the paper's Listing 5 pipeline)."""

    name = "serial"

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        if plan.q == 0:
            return _count_matches_only(plan, graph, start_vertices)
        cfg = plan.config
        venn_fn = VENN_IMPLS[cfg.venn_impl]
        fc = fc_recursive if cfg.fc_impl == "recursive" else fc_iterative
        anch, k, q = plan.anch, plan.k, plan.q
        positions = plan.anchored_positions
        registry = obs.active_metrics()  # checked once, outside the hot loop
        degrees = graph.degrees
        total = 0
        matches = 0
        venn_fc_s = 0.0
        for match in match_cores(graph, plan.core_plan, start_vertices=start_vertices):
            matches += 1
            t0 = time.perf_counter()
            anchors = [match[i] for i in positions]
            venn = venn_fn(graph, anchors, match)
            total += fc(venn, anch, k, q)
            venn_fc_s += time.perf_counter() - t0
            if registry is not None:
                registry.histogram("repro_venn_set_size").observe(sum(venn))
                registry.histogram("repro_candidate_set_size").observe(
                    int(sum(degrees[a] for a in anchors))
                )
        if registry is not None:
            registry.counter("repro_core_matches_total").inc(matches)
            registry.counter("repro_venn_fc_seconds_total").inc(venn_fc_s)
        return PartialSum(sigma=total, matches=matches, venn_fc_s=venn_fc_s)


class BatchBackend:
    """Vectorized fringe-polynomial evaluation over match batches."""

    name = "batch"

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        if plan.q == 0:
            return _count_matches_only(plan, graph, start_vertices)
        bs = plan.config.batch_size
        positions = list(plan.anchored_positions)
        poly = plan.poly
        registry = obs.active_metrics()  # checked once, outside the hot loop
        total = 0
        matches = 0
        batches = 0
        venn_fc_s = 0.0
        buf: list[tuple[int, ...]] = []

        def flush() -> int:
            core_matrix = np.asarray(buf, dtype=np.int64)
            if registry is not None:
                registry.histogram("repro_candidate_set_size").observe_many(
                    graph.degrees[core_matrix[:, positions]].sum(axis=1).tolist()
                )
            (sigma,), _ = venn_poly_sums(graph, core_matrix, positions, [poly], bs, registry)
            return sigma

        for match in match_cores(graph, plan.core_plan, start_vertices=start_vertices):
            matches += 1
            buf.append(match)
            if len(buf) >= bs:
                t0 = time.perf_counter()
                total += flush()
                venn_fc_s += time.perf_counter() - t0
                batches += 1
                buf.clear()
        if buf:
            t0 = time.perf_counter()
            total += flush()
            venn_fc_s += time.perf_counter() - t0
            batches += 1
        if registry is not None:
            registry.counter("repro_core_matches_total").inc(matches)
            registry.counter("repro_batches_flushed_total").inc(batches)
            registry.counter("repro_venn_fc_seconds_total").inc(venn_fc_s)
        return PartialSum(sigma=total, matches=matches, venn_fc_s=venn_fc_s, batches=batches)


class FrontierBackend:
    """Frontier-at-a-time vectorized matching + batched venn/fc.

    The matcher side runs level-synchronously over 2-D embedding blocks
    (:func:`repro.core.frontier.iter_frontier_blocks`); each completed
    block goes through :func:`venn_poly_sums`: one ``venn_batch`` per
    distinct anchor set, then the compiled fringe polynomial in
    ``batch_size`` row chunks. ``EngineConfig.max_frontier_rows`` bounds
    the candidate volume of any expansion step (larger frontiers split
    and traverse depth-first), so memory stays fixed on dense graphs.
    """

    name = "frontier"

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        cfg = plan.config
        registry = obs.active_metrics()  # checked once, outside the hot loop
        fstats = FrontierStats()
        positions = list(plan.anchored_positions)
        poly = plan.poly
        sigma = 0
        matches = 0
        venn_fc_s = 0.0
        batches = 0
        t_run = time.perf_counter()
        with obs.span("frontier.match", pattern_vertices=plan.pattern.n):
            for block in iter_frontier_blocks(
                graph,
                plan.core_plan,
                start_vertices=start_vertices,
                max_rows=cfg.max_frontier_rows,
                stats=fstats,
            ):
                matches += len(block)
                if plan.q == 0:
                    # no anchored fringes: every core embedding contributes 1
                    sigma += len(block)
                    continue
                t0 = time.perf_counter()
                (block_sigma,), block_batches = venn_poly_sums(
                    graph, block, positions, [poly], cfg.batch_size, registry
                )
                sigma += block_sigma
                batches += block_batches
                venn_fc_s += time.perf_counter() - t0
        elapsed = time.perf_counter() - t_run
        if registry is not None:
            registry.counter("repro_core_matches_total").inc(matches)
            registry.counter("repro_batches_flushed_total").inc(batches)
            registry.counter("repro_venn_fc_seconds_total").inc(venn_fc_s)
            registry.counter("repro_frontier_rows_total").inc(fstats.rows)
            if elapsed > 0:
                registry.gauge("repro_frontier_rows_per_second").set(
                    fstats.rows / elapsed
                )
        return PartialSum(sigma=sigma, matches=matches, venn_fc_s=venn_fc_s, batches=batches)


# ----------------------------------------------------------------------
# multiprocess execution
# ----------------------------------------------------------------------
# fork-shared state (set in the parent immediately before the pool starts,
# cleared in a finally). Forked children see it copy-on-write; nothing is
# ever pickled through the pool besides chunk indices and PartialSums.
# _SHARED_LOCK serializes populate -> fork -> clear: two threads counting
# concurrently (the serve executor path) must not interleave, or one
# thread's children fork with the other thread's plan/graph.
_SHARED: dict = {}
_SHARED_LOCK = threading.Lock()


def _worker_run(chunk_ids: Sequence[int]) -> PartialSum:
    plan: CountingPlan = _SHARED["plan"]
    graph: CSRGraph = _SHARED["graph"]
    chunks = _SHARED["chunks"]
    inner: Backend = _SHARED["inner"]
    # When the forked parent had observability active, record this job's
    # metrics into a fresh worker-local registry (the parent's registry
    # is a copy-on-write copy — writes there would be lost) and ship the
    # snapshot back as the job's delta for merge-at-reduction.
    parent = obs.current()
    local = (
        obs.Observer(trace=False)
        if parent is not None and parent.metrics is not None
        else None
    )
    out = PartialSum()
    t0 = time.perf_counter()
    if local is not None:
        with local:
            for ci in chunk_ids:
                out += inner.run(plan, graph, start_vertices=chunks[ci])
    else:
        for ci in chunk_ids:
            out += inner.run(plan, graph, start_vertices=chunks[ci])
    elapsed = time.perf_counter() - t0
    delta = WorkerDelta(
        pid=os.getpid(),
        chunks=len(chunk_ids),
        matches=out.matches,
        venn_fc_s=out.venn_fc_s,
        batches=out.batches,
        elapsed_s=elapsed,
        metrics=local.metrics.snapshot() if local is not None else None,
    )
    return replace(out, workers=(delta,))


class MultiprocessBackend:
    """Fork-pool distribution of start-vertex chunks over an inner backend.

    ``schedule`` picks the work-distribution strategy (§3.6): ``static``
    contiguous ranges, ``strided`` interleaving, or ``dynamic`` fixed-size
    chunks served from the pool's queue. With one worker (or one chunk)
    the pool is bypassed entirely and the inner backend runs in-process —
    without touching the fork-shared state.
    """

    name = "multiprocess"

    def __init__(
        self,
        num_workers: int,
        schedule: str = "dynamic",
        chunk_size: int = 256,
        inner: Backend | None = None,
    ):
        self.num_workers = num_workers
        self.schedule = schedule
        self.chunk_size = chunk_size
        self.inner = inner

    def _inner_for(self, plan: CountingPlan) -> Backend:
        if self.inner is not None:
            return self.inner
        return select_backend(plan.config)

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        # deferred: importing repro.parallel at module scope would cycle
        # back through repro.core.engine during package initialization
        from ..parallel.schedule import make_chunks

        inner = self._inner_for(plan)
        if start_vertices is not None:
            # a pre-sliced call (e.g. nested distribution) runs in-process
            return inner.run(plan, graph, start_vertices=start_vertices)
        chunks = make_chunks(graph.num_vertices, self.num_workers, self.schedule, self.chunk_size)
        if self.num_workers <= 1 or len(chunks) <= 1:
            return inner.run(plan, graph, start_vertices=None)
        # the lock spans populate -> fork -> clear: concurrent counts from
        # other threads wait here instead of clobbering the shared dict
        with _SHARED_LOCK:
            _SHARED["plan"] = plan
            _SHARED["graph"] = graph
            _SHARED["chunks"] = chunks
            _SHARED["inner"] = inner
            try:
                ctx = mp.get_context("fork")
                with ctx.Pool(processes=self.num_workers) as pool:
                    # dynamic: many chunks round-robined by the pool's own
                    # work queue; static/strided: one chunk list per worker
                    jobs = [[i] for i in range(len(chunks))]
                    results = pool.map(_worker_run, jobs)
            finally:
                _SHARED.clear()
        total = sum(results, PartialSum())
        record_worker_metrics(total)
        return total


def record_worker_metrics(total: PartialSum) -> None:
    """Merge worker deltas into the active registry at reduction.

    Per-pid busy time becomes a labeled gauge series (the Prometheus
    per-worker view) plus a busy-time histogram, and the makespan /
    mean-busy ratio becomes the load-imbalance gauge the paper's
    dynamic-schedule discussion is about (1.0 = perfectly balanced).
    Shared by the fork pool and the persistent pool — both reduce
    :class:`WorkerDelta` records off ``PartialSum.workers``.
    """
    registry = obs.active_metrics()
    if registry is None or not total.workers:
        return
    busy: dict[int, float] = {}
    for w in total.workers:
        busy[w.pid] = busy.get(w.pid, 0.0) + w.elapsed_s
        if w.metrics:
            registry.merge(w.metrics)
    for pid, seconds in sorted(busy.items()):
        registry.gauge("repro_worker_busy_seconds", worker=str(pid)).set(seconds)
        registry.histogram("repro_worker_elapsed_seconds").observe(seconds)
    mean = sum(busy.values()) / len(busy)
    imbalance = max(busy.values()) / mean if mean > 0 else 1.0
    registry.gauge("repro_worker_load_imbalance").set(imbalance)
    registry.gauge("repro_workers").set(len(busy))


class PoolBackend:
    """Persistent spawn-pool distribution over an inner backend.

    The warm-path sibling of :class:`MultiprocessBackend`: instead of
    forking a pool per call, work goes to the process-wide
    :class:`repro.parallel.workerpool.WorkerPool` — spawn-context
    workers started once, the CSR graph resident in named shared memory
    (zero-copy via :mod:`repro.parallel.shm`), start-vertex chunks
    served by split-half work stealing. Selected with
    ``ParallelConfig(pool="persistent")``. Like the fork pool, one
    worker (or a pre-sliced call) runs the inner backend in-process.
    """

    name = "pool"

    def __init__(
        self,
        num_workers: int,
        schedule: str = "dynamic",
        chunk_size: int = 256,
        inner: Backend | None = None,
        mp_context: str = "spawn",
    ):
        self.num_workers = num_workers
        self.schedule = schedule
        self.chunk_size = chunk_size
        self.inner = inner
        self.mp_context = mp_context

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        # deferred: repro.parallel imports cycle back through core.engine
        from ..parallel.workerpool import get_default_pool

        inner = self.inner if self.inner is not None else select_backend(plan.config)
        if start_vertices is not None:
            return inner.run(plan, graph, start_vertices=start_vertices)
        if self.num_workers <= 1 or graph.num_vertices <= self.chunk_size:
            return inner.run(plan, graph, start_vertices=None)
        pool = get_default_pool(self.num_workers, mp_context=self.mp_context)
        return pool.count(
            plan, graph, schedule=self.schedule, chunk_size=self.chunk_size, inner=inner
        )


def select_backend(config, parallel=None, engine: str = "auto") -> Backend:
    """Map an EngineConfig (+ optional ParallelConfig + engine) to a backend.

    ``engine="frontier"`` forces the vectorized frontier matcher; with a
    multi-worker ``parallel`` it becomes the pool's inner backend (each
    worker runs the frontier over its start-vertex slice). The chosen
    inner backend is always forwarded to the pool backend — an explicit
    non-frontier inner is honored, not silently dropped.
    ``parallel.pool`` picks the substrate: ``"fork"`` (per-call fork
    pool) or ``"persistent"`` (resident spawn pool + shared memory).
    """
    if engine == "frontier":
        inner: Backend = FrontierBackend()
    else:
        inner = BatchBackend() if config.fc_impl == "poly" else SerialBackend()
    if parallel is not None and getattr(parallel, "num_workers", 1) > 1:
        if getattr(parallel, "pool", "fork") == "persistent":
            return PoolBackend(
                num_workers=parallel.num_workers,
                schedule=parallel.schedule,
                chunk_size=parallel.chunk_size,
                inner=inner,
                mp_context=getattr(parallel, "mp_context", "spawn"),
            )
        return MultiprocessBackend(
            num_workers=parallel.num_workers,
            schedule=parallel.schedule,
            chunk_size=parallel.chunk_size,
            inner=inner,
        )
    return inner
