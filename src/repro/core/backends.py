"""The Backend layer: execution substrates for a compiled CountingPlan.

A backend turns a :class:`~repro.core.plan.CountingPlan` plus a graph
(and an optional start-vertex slice — the unit of work distribution) into
a :class:`PartialSum`: the raw symmetry-reduced ordered-embedding sum
``sigma`` and the number of core matches visited. Backends never
normalize; :meth:`CountingPlan.normalize` is the single shared
normalization path.

Three backends mirror the paper's execution models:

* :class:`SerialBackend` — the per-match pipeline of Listing 5 (stack
  matcher, §3.6 later-anchors Venn, recursive fc), kept as the single
  reference oracle;
* :class:`FrontierBackend` — the production matcher: the
  frontier-at-a-time matcher (:mod:`repro.core.frontier`) produces whole
  *blocks* of core embeddings per NumPy kernel pass and feeds them
  straight into one Venn per distinct anchor set + the compiled fringe
  polynomial (:func:`venn_poly_sums`), with no per-embedding Python loop
  (the warp model of Listing 7);
* :class:`PoolBackend` — the worker substrate: the *persistent* pool
  (:mod:`repro.parallel.workerpool`), workers started once and reused
  across calls, the graph resident in named shared memory
  (:mod:`repro.parallel.shm`), interleaved start-vertex chunks served
  by split-half work stealing, each worker running an inner backend.
  Selected by any ``ParallelConfig`` with more than one worker.

This is the seam the GraphBLAS-style multi-backend papers advocate: one
logical algorithm, several execution substrates, all interchangeable and
all cross-checked in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .fringe_count import fc_recursive
from .frontier import FrontierStats, iter_frontier_blocks
from .matcher import match_cores
from .plan import CountingPlan
from .venn import row_venns, unique_anchor_sets, venn_merge, venn_sets
# the sort-reduce oracle stays importable here: the repository benchmark's
# layer tracer (perfbench/tracing.py) wraps it under this name
from .venn import venn_batch  # noqa: F401

__all__ = [
    "PartialSum",
    "WorkerDelta",
    "Backend",
    "SerialBackend",
    "FrontierBackend",
    "PoolBackend",
    "select_backend",
    "venn_poly_sums",
]


@dataclass(frozen=True)
class WorkerDelta:
    """One pool worker's contribution to a call, attributed to its process.

    Crosses the process boundary inside :class:`PartialSum`, so the
    parent can compute per-worker load-imbalance (the paper's §3.6
    dynamic-schedule discussion) after the reduction. ``metrics`` is a
    :meth:`repro.obs.MetricsRegistry.snapshot` delta recorded by the
    worker while running this call (``None`` when observability is off).
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
    ``match_s`` is the time spent producing core matches and
    ``venn_fc_s`` the time spent in Venn + fringe-count evaluation, each
    timed directly by the backend; ``batches`` counts vectorized batch
    flushes. ``workers`` carries per-worker :class:`WorkerDelta` records
    out of the worker pool (empty for in-process execution); their fields
    sum to this object's totals. Partial sums add: a reduction starts
    from ``PartialSum()`` and adds each part with ``+=``.
    """

    sigma: int = 0
    matches: int = 0
    match_s: float = 0.0
    venn_fc_s: float = 0.0
    batches: int = 0
    workers: tuple[WorkerDelta, ...] = ()

    def __add__(self, other: "PartialSum") -> "PartialSum":
        return PartialSum(
            sigma=self.sigma + other.sigma,
            matches=self.matches + other.matches,
            match_s=self.match_s + other.match_s,
            venn_fc_s=self.venn_fc_s + other.venn_fc_s,
            batches=self.batches + other.batches,
            workers=self.workers + other.workers,
        )


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

    :func:`~repro.core.venn.venn_sets` runs once per distinct anchor set
    of the block, in ``batch_size`` chunks of sets; each row chunk then
    rebuilds its own diagrams from its sets'
    (:func:`~repro.core.venn.row_venns`) and feeds them to every
    polynomial. With ``registry`` set it records one
    ``repro_venn_set_size`` sample per row, one ``repro_batch_matches``
    sample per chunk, and the number of distinct sets in
    ``repro_venn_unique_anchor_rows_total``.
    """
    sums = [0] * len(polys)
    if len(block) == 0:
        return sums, 0
    sets, inverse, rank = unique_anchor_sets(block[:, positions], graph.num_vertices)
    with obs.span("venn_unique", sets=len(sets), matches=len(block)):
        set_venns = np.empty((len(sets), 1 << len(positions)), dtype=np.int64)
        for s in range(0, len(sets), batch_size):
            chunk = sets[s : s + batch_size]
            set_venns[s : s + len(chunk)] = venn_sets(graph, chunk)
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
    t0 = time.perf_counter()
    matches = sum(1 for _ in match_cores(graph, plan.core_plan, start_vertices=start_vertices))
    return PartialSum(sigma=matches, matches=matches, match_s=time.perf_counter() - t0)


class SerialBackend:
    """Per-match evaluation, the paper's Listing 5 pipeline: each core
    match from :func:`match_cores` gets its own :func:`venn_merge`
    diagram and :func:`fc_recursive` count."""

    name = "serial"

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        if plan.q == 0:
            return _count_matches_only(plan, graph, start_vertices)
        anch, k, q = plan.anch, plan.k, plan.q
        positions = plan.anchored_positions
        registry = obs.active_metrics()  # checked once, outside the hot loop
        degrees = graph.degrees
        total = 0
        matches = 0
        match_s = venn_fc_s = 0.0
        # t_mark..t0 is one matcher pull, t0..t_mark one venn/fc evaluation
        t_mark = time.perf_counter()
        for match in match_cores(graph, plan.core_plan, start_vertices=start_vertices):
            t0 = time.perf_counter()
            match_s += t0 - t_mark
            matches += 1
            anchors = [match[i] for i in positions]
            venn = venn_merge(graph, anchors, match)
            total += fc_recursive(venn, anch, k, q)
            t_mark = time.perf_counter()
            venn_fc_s += t_mark - t0
            if registry is not None:
                registry.histogram("repro_venn_set_size").observe(sum(venn))
                registry.histogram("repro_candidate_set_size").observe(
                    int(sum(degrees[a] for a in anchors))
                )
                t_mark = time.perf_counter()
        match_s += time.perf_counter() - t_mark
        if registry is not None:
            registry.counter("repro_core_matches_total").inc(matches)
            registry.counter("repro_venn_fc_seconds_total").inc(venn_fc_s)
        return PartialSum(
            sigma=total, matches=matches, match_s=match_s, venn_fc_s=venn_fc_s
        )


class FrontierBackend:
    """Frontier-at-a-time vectorized matching + batched venn/fc.

    The matcher side runs level-synchronously over 2-D embedding blocks
    (:func:`repro.core.frontier.iter_frontier_blocks`); each completed
    block goes through :func:`venn_poly_sums`: one ``venn_sets`` diagram
    per distinct anchor set, then the compiled fringe polynomial in
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
        return self.run_polys(plan, [plan.poly], graph, start_vertices)[1]

    def run_polys(
        self,
        plan: CountingPlan,
        polys: Sequence,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> tuple[list[int], PartialSum]:
        """One matcher pass of ``plan``, evaluating several polynomials.

        ``polys`` are :class:`~repro.core.fringe_poly.FringePolynomial` s
        over ``plan``'s anchors (a pattern family sharing one core, as in
        :class:`~repro.core.multi.MultiPatternCounter`). Returns one raw
        sum per polynomial and the pass's :class:`PartialSum`, whose
        ``sigma`` is the first polynomial's sum.
        """
        cfg = plan.config
        registry = obs.active_metrics()  # checked once, outside the hot loop
        fstats = FrontierStats()
        positions = list(plan.anchored_positions)
        sums = [0] * len(polys)
        matches = 0
        match_s = venn_fc_s = 0.0
        batches = 0
        t_run = time.perf_counter()
        with obs.span("frontier.match", pattern_vertices=plan.pattern.n):
            blocks = iter_frontier_blocks(
                graph,
                plan.core_plan,
                start_vertices=start_vertices,
                max_rows=cfg.max_frontier_rows,
                stats=fstats,
            )
            while True:
                t0 = time.perf_counter()
                block = next(blocks, None)
                match_s += time.perf_counter() - t0
                if block is None:
                    break
                matches += len(block)
                if plan.q == 0:
                    # no anchored fringes: every core embedding contributes 1
                    sums = [s + len(block) for s in sums]
                    continue
                t0 = time.perf_counter()
                block_sums, block_batches = venn_poly_sums(
                    graph, block, positions, polys, cfg.batch_size, registry
                )
                sums = [s + b for s, b in zip(sums, block_sums)]
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
        partial = PartialSum(
            sigma=sums[0], matches=matches, match_s=match_s, venn_fc_s=venn_fc_s, batches=batches
        )
        return sums, partial


class PoolBackend:
    """Persistent-pool distribution over an inner backend.

    Work goes to the process-wide
    :class:`repro.parallel.workerpool.WorkerPool` — spawn workers started
    once, the CSR graph resident in named shared memory (zero-copy via
    :mod:`repro.parallel.shm`), interleaved start-vertex chunks served by
    split-half work stealing. One worker, a graph no bigger than one
    chunk, or a pre-sliced call runs the inner backend in-process.
    """

    name = "pool"

    def __init__(
        self,
        num_workers: int,
        chunk_size: int = 256,
        inner: Backend | None = None,
    ):
        self.num_workers = num_workers
        self.chunk_size = chunk_size
        self.inner = inner

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
    ) -> PartialSum:
        # deferred: repro.parallel imports cycle back through core.engine
        from ..parallel.workerpool import get_default_pool

        inner = self.inner if self.inner is not None else FrontierBackend()
        if start_vertices is not None:
            return inner.run(plan, graph, start_vertices=start_vertices)
        if self.num_workers <= 1 or graph.num_vertices <= self.chunk_size:
            return inner.run(plan, graph, start_vertices=None)
        pool = get_default_pool(self.num_workers)
        return pool.count(plan, graph, chunk_size=self.chunk_size, inner=inner)


def select_backend(parallel=None, route: str = "frontier") -> Backend:
    """Map a matcher route (+ optional ParallelConfig) to a backend.

    ``route`` is ``"frontier"`` (:class:`FrontierBackend`) or
    ``"serial"`` (the :class:`SerialBackend` oracle). A ``parallel``
    with more than one worker wraps that matcher in a
    :class:`PoolBackend`, which runs it in every worker over its
    start-vertex slices.
    """
    if route not in ("frontier", "serial"):
        raise ValueError(f"unknown matcher route {route!r}")
    inner: Backend = SerialBackend() if route == "serial" else FrontierBackend()
    if parallel is not None and parallel.num_workers > 1:
        return PoolBackend(
            num_workers=parallel.num_workers, chunk_size=parallel.chunk_size, inner=inner
        )
    return inner
