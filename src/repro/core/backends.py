"""The Backend layer: execution substrates for a compiled CountingPlan.

A backend turns a :class:`~repro.core.plan.CountingPlan` plus a graph
(and an optional start-vertex slice — the unit of work distribution) into
a :class:`PartialSum`: the raw symmetry-reduced ordered-embedding sums,
one per member plan scored on the pass (a family sharing one core, or
the plan alone), and the number of core matches visited. Backends never
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
from itertools import zip_longest
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .fringe_count import fc_recursive
from .frontier import FrontierStats, iter_frontier_blocks
from .matcher import match_cores
from .plan import CountingPlan
from .frontier import has_edges
from .venn import group_anchor_rows, venn_merge, venn_sets
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

    ``sums`` holds one Σ F_sets over the visited symmetry-reduced core
    embeddings (un-normalized) per member plan the pass scored, in the
    order the members were given; ``sigma`` is the first (for a
    one-pattern pass, the only) of them. ``matches`` counts those
    embeddings. ``match_s`` is the time spent producing core matches and
    ``venn_fc_s`` the time spent in Venn + fringe-count evaluation, each
    timed directly by the backend; ``batches`` counts vectorized batch
    flushes. ``workers`` carries per-worker :class:`WorkerDelta` records
    out of the worker pool (empty for in-process execution); their fields
    sum to this object's totals. Partial sums add, ``sums`` elementwise:
    a reduction starts from ``PartialSum()`` and adds each part with
    ``+=``.
    """

    sums: tuple[int, ...] = ()
    matches: int = 0
    match_s: float = 0.0
    venn_fc_s: float = 0.0
    batches: int = 0
    workers: tuple[WorkerDelta, ...] = ()

    @property
    def sigma(self) -> int:
        return self.sums[0] if self.sums else 0

    def __add__(self, other: "PartialSum") -> "PartialSum":
        return PartialSum(
            sums=tuple(map(sum, zip_longest(self.sums, other.sums, fillvalue=0))),
            matches=self.matches + other.matches,
            match_s=self.match_s + other.match_s,
            venn_fc_s=self.venn_fc_s + other.venn_fc_s,
            batches=self.batches + other.batches,
            workers=self.workers + other.workers,
        )


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a CountingPlan over a graph slice.

    ``plan`` drives the core matching; ``members`` are the plans whose
    fringes are counted on every match (default: ``plan`` alone). They
    share ``plan``'s core, matching order, anchored set and symmetry
    restriction, and the result carries one raw sum per member.
    """

    name: str

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
        members: Sequence[CountingPlan] | None = None,
    ) -> PartialSum: ...


def _exclusions(plan: CountingPlan) -> list[tuple[int, int, tuple[int, ...]]]:
    """``(column, fixed, free)`` per non-anchor matching position:
    ``fixed`` masks the anchors it is pattern-adjacent to (every match
    has those edges), ``free`` lists the anchor indices it is not, whose
    graph edges vary from match to match."""
    core = plan.core_plan
    positions = plan.anchored_positions
    out = []
    for c in range(len(core.order)):
        if c not in positions:
            adjacent = [min(c, a) in core.back_edges[max(c, a)] for a in positions]
            fixed = sum(1 << j for j, hit in enumerate(adjacent) if hit)
            out.append((c, fixed, tuple(j for j, hit in enumerate(adjacent) if not hit)))
    return out


def venn_poly_sums(
    graph: CSRGraph,
    block: np.ndarray,
    plan: CountingPlan,
    members: Sequence[CountingPlan],
    batch_size: int,
    registry=None,
) -> tuple[list[int], int]:
    """Σ over a block of core embeddings of each member's F(venn).

    ``block`` is ``(B, p)`` in ``plan``'s matching order; ``members``
    share ``plan``'s core, order and anchors, and ``plan`` matched under
    the weakest of their degree filters. Returns one sum per member and
    the number of ``batch_size`` group chunks evaluated.

    Rows with equal anchors in equal order and equal *free* exclusion
    bits (the graph edges between a non-anchor core vertex and the
    anchors it is not pattern-adjacent to) have equal diagrams, so
    :func:`~repro.core.venn.group_anchor_rows` groups the block once and
    :func:`~repro.core.venn.venn_sets` runs once per distinct anchor
    set, in ``batch_size`` chunks. Each group's diagram is its set's,
    permuted into the group's anchor order, minus the non-anchor core
    vertices; every member's polynomial scores one row per group,
    weighted by the group's size. A member whose own filter is stricter
    than ``plan``'s scores only the groups whose anchors pass it (the
    rest score 0 for it; non-anchor core vertices carry no fringe, so
    every member filters them alike). With ``registry`` set it records
    one ``repro_venn_set_size`` sample per row, one
    ``repro_batch_matches`` sample per chunk, and the number of distinct
    sets in ``repro_venn_unique_anchor_rows_total``.
    """
    sums = [0] * len(members)
    if len(block) == 0:
        return sums, 0
    positions = list(plan.anchored_positions)
    q = len(positions)
    anchors = block[:, positions]
    # per non-anchor core vertex, the anchors it is adjacent to: q bits
    # each, packed side by side; only the free bits need an edge test
    masks = np.zeros(len(block), dtype=np.int64)
    exclusions = _exclusions(plan)
    for i, (c, fixed, free) in enumerate(exclusions):
        mask = fixed
        for j in free:
            mask = mask | has_edges(graph, anchors[:, j], block[:, c]).astype(np.int64) << j
        masks |= mask << (q * i)
    sets, set_of, rank, masks, counts = group_anchor_rows(
        anchors, masks, q * len(exclusions), graph.num_vertices
    )
    with obs.span("venn_unique", sets=len(sets), matches=len(block)):
        set_venns = np.empty((len(sets), 1 << q), dtype=np.int64)
        for s in range(0, len(sets), batch_size):
            chunk = sets[s : s + batch_size]
            set_venns[s : s + len(chunk)] = venn_sets(graph, chunk)
    # per member, the anchor degrees its own filter asks for, when stricter
    shared = [plan.core_plan.min_degree[a] for a in positions]
    filters = []
    for m in members:
        own = [m.core_plan.min_degree[a] for a in positions]
        filters.append(own if own != shared else None)
    region_bits = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1  # (2^q, q)
    batches = 0
    for s in range(0, len(counts), batch_size):
        e = min(s + batch_size, len(counts))
        chunk_counts = counts[s:e]
        with obs.span("venn_fc_batch", matches=int(chunk_counts.sum())):
            venns = set_venns[set_of[s:e]]
            ranks = rank[s:e]
            if (ranks != np.arange(q)).any():
                # group region T is region {rank[j] : j in T} of the sorted set
                maps = (np.int64(1) << ranks) @ region_bits.T
                venns = np.take_along_axis(venns, maps, axis=1)
            # a non-anchor core vertex is a neighbour of exactly the anchors
            # its mask names; it leaves that region
            for i in range(len(exclusions)):
                mask = masks[s:e] >> (q * i) & ((1 << q) - 1)
                sel = np.flatnonzero(mask)
                venns[sel, mask[sel]] -= 1
            if registry is not None:
                registry.histogram("repro_batch_matches").observe(int(chunk_counts.sum()))
                registry.histogram("repro_venn_set_size").observe_many(
                    np.repeat(venns.sum(axis=1), chunk_counts).tolist()
                )
            for i, (m, own) in enumerate(zip(members, filters)):
                if own is None:
                    sums[i] += m.poly.evaluate_batch(venns, chunk_counts)
                else:
                    group_anchors = np.take_along_axis(sets[set_of[s:e]], ranks, axis=1)
                    keep = (graph.degrees[group_anchors] >= own).all(axis=1)
                    sums[i] += m.poly.evaluate_batch(venns[keep], chunk_counts[keep])
        batches += 1
    if registry is not None:
        registry.counter("repro_venn_unique_anchor_rows_total").inc(len(sets))
    return sums, batches


def _count_matches_only(plan, graph, start_vertices, members) -> PartialSum:
    """q == 0 (no anchored fringes): every core embedding contributes 1."""
    t0 = time.perf_counter()
    matches = sum(1 for _ in match_cores(graph, plan.core_plan, start_vertices=start_vertices))
    return PartialSum(
        sums=(matches,) * len(members), matches=matches, match_s=time.perf_counter() - t0
    )


class SerialBackend:
    """Per-match evaluation, the paper's Listing 5 pipeline: each core
    match from :func:`match_cores` gets its own :func:`venn_merge`
    diagram and one :func:`fc_recursive` count per member."""

    name = "serial"

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
        members: Sequence[CountingPlan] | None = None,
    ) -> PartialSum:
        members = members or (plan,)
        if plan.q == 0:
            return _count_matches_only(plan, graph, start_vertices, members)
        fringes = [(m.anch, m.k, m.q) for m in members]
        positions = plan.anchored_positions
        registry = obs.active_metrics()  # checked once, outside the hot loop
        degrees = graph.degrees
        sums = [0] * len(members)
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
            for i, (anch, k, q) in enumerate(fringes):
                sums[i] += fc_recursive(venn, anch, k, q)
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
            sums=tuple(sums), matches=matches, match_s=match_s, venn_fc_s=venn_fc_s
        )


class FrontierBackend:
    """Frontier-at-a-time vectorized matching + batched venn/fc.

    The matcher side runs level-synchronously over 2-D embedding blocks
    (:func:`repro.core.frontier.iter_frontier_blocks`); each completed
    block goes through :func:`venn_poly_sums`: one ``venn_sets`` diagram
    per distinct anchor set, then every member's compiled fringe
    polynomial on one row per row group, in ``batch_size`` group chunks. ``EngineConfig.max_frontier_rows``
    bounds the candidate volume of any expansion step (larger frontiers
    split and traverse depth-first), so memory stays fixed on dense
    graphs.
    """

    name = "frontier"

    def run(
        self,
        plan: CountingPlan,
        graph: CSRGraph,
        start_vertices: Sequence[int] | None = None,
        members: Sequence[CountingPlan] | None = None,
    ) -> PartialSum:
        members = members or (plan,)
        cfg = plan.config
        registry = obs.active_metrics()  # checked once, outside the hot loop
        fstats = FrontierStats()
        sums = [0] * len(members)
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
                    graph, block, plan, members, cfg.batch_size, registry
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
        return PartialSum(
            sums=tuple(sums), matches=matches, match_s=match_s, venn_fc_s=venn_fc_s,
            batches=batches,
        )


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
        members: Sequence[CountingPlan] | None = None,
    ) -> PartialSum:
        # deferred: repro.parallel imports cycle back through core.engine
        from ..parallel.workerpool import get_default_pool

        inner = self.inner if self.inner is not None else FrontierBackend()
        if (
            start_vertices is not None
            or self.num_workers <= 1
            or graph.num_vertices <= self.chunk_size
        ):
            return inner.run(plan, graph, start_vertices=start_vertices, members=members)
        pool = get_default_pool(self.num_workers)
        return pool.count(plan, graph, chunk_size=self.chunk_size, inner=inner, members=members)


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
