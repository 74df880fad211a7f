"""Vectorized frontier-at-a-time core matcher (paper §3.6, warp model).

The stack matcher (:mod:`repro.core.matcher`) extends one partial
embedding at a time from a Python generator — every candidate test is an
interpreter round trip. The paper's GPU kernel instead advances
*thousands* of partial embeddings in lockstep (Listing 7: one warp per
embedding, one level per step). This module is the CPU analogue of that
execution model: the partial-embedding frontier is a 2-D NumPy array
with one row per embedding and one column per matched position, and each
step extends the whole frontier by one matching-order level with bulk
array kernels:

* **candidate generation** — one CSR adjacency gather over the pivot
  column (``np.repeat`` + offset arithmetic, the same indexing scheme
  :func:`repro.core.venn.venn_batch` uses). When the pivot is also a
  symmetry bound (``match[pivot] < v``) the gather starts at the
  pivot's first larger neighbour, read from the graph's cached
  :func:`upper_starts`, so candidates the bound would reject are never
  gathered: Listing 7's ``match[j] < match[i]`` pruning, applied before
  the gather instead of after it;
* **degree / symmetry / injectivity filtering** — boolean masks:
  full-pattern degree lower bounds, the ``match[j] < v`` order
  constraints from symmetry breaking, and row-wise ``!=`` compares
  against every earlier column;
* **back-edge checking** — :func:`has_edges`, one bit test per (matched
  vertex, candidate) pair in the graph's cached adjacency bitmap
  (:func:`adjacency_bitmap`, bit ``u·stride + v`` with each row padded
  to whole 64-bit words), so a level's membership
  queries cost one gather whatever the degrees. A graph whose bitmap
  would exceed :data:`BITMAP_BUDGET_BYTES` is probed by
  :func:`has_edges_bulk` instead: ``O(log max_degree)`` synchronized
  bisection rounds over ``colidx``, the CPU shape of the paper's
  Listing 7 warp probes, kept also as the differential oracle.

Memory is bounded: before expanding, a frontier whose candidate volume
(the sum of its scan ranges) would exceed ``max_rows`` is *split* into
contiguous row blocks that are carried independently through the
remaining levels (depth-first over blocks), so dense graphs degrade into
more block iterations instead of one giant allocation. Completed embeddings stream out as blocks, which
the :class:`repro.core.backends.FrontierBackend` feeds straight into
the Venn pass + the compiled fringe polynomial — the per-embedding
Python loop disappears from the whole pipeline.

Observability: each expansion emits a ``frontier.level`` span and a
``repro_frontier_width`` histogram sample; splits count into
``repro_frontier_spills_total``; the backend reports aggregate
``repro_frontier_rows_total`` and a ``repro_frontier_rows_per_second``
throughput gauge. A bitmap build records a ``frontier.bitmap_build``
span and the ``repro_frontier_bitmap_builds_total`` /
``repro_frontier_bitmap_bytes`` metrics; edge tests on a graph over the
budget count into ``repro_frontier_bitmap_fallbacks_total``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Generic, Iterator, Sequence, TypeVar

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .matcher import CorePlan

__all__ = [
    "BITMAP_BUDGET_BYTES",
    "DEFAULT_MAX_FRONTIER_ROWS",
    "FrontierStats",
    "GraphCache",
    "adjacency_bitmap",
    "bitmap_stride",
    "build_adjacency_bitmap",
    "has_edges",
    "has_edges_bulk",
    "row_lower_bound",
    "upper_starts",
    "iter_frontier_blocks",
    "frontier_match_matrix",
]

# Default cap on the candidate volume of one expansion step (rows). At
# int64 this bounds the transient candidate arrays to ~8 MB per column;
# EngineConfig.max_frontier_rows overrides it per call.
DEFAULT_MAX_FRONTIER_ROWS = 1 << 20
# Largest adjacency bitmap one graph may get: n · bitmap_stride(n) / 8
# bytes must fit, else has_edges bisects. 64 MiB covers n up to about 23,000.
BITMAP_BUDGET_BYTES = 64 << 20

_T = TypeVar("_T")
_MISSING = object()


class GraphCache(Generic[_T]):
    """Values derived from a graph, built once per graph object.

    Keyed weakly by the graph object, so a value never enters a pickled
    graph or a shared-memory export and dies with the graph; pool workers
    build their own on the graph they attach. The lock makes concurrent
    first users build a value once. ``None`` is a value like any other
    (a graph over some budget), so it is cached too.
    """

    def __init__(self) -> None:
        self._values: "weakref.WeakKeyDictionary[CSRGraph, _T]" = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def get(self, graph: CSRGraph, build: Callable[[CSRGraph], _T]) -> _T:
        value = self._values.get(graph, _MISSING)
        if value is _MISSING:
            with self._lock:
                value = self._values.get(graph, _MISSING)
                if value is _MISSING:
                    value = self._values[graph] = build(graph)
        return value


@dataclass
class FrontierStats:
    """Aggregate execution statistics of one frontier traversal.

    ``rows`` sums the frontier widths produced by every expansion step
    (the data volume the matcher pushed through its kernels — the
    numerator of the rows/sec throughput gauge); ``peak_width`` is the
    widest single frontier block seen; ``spills`` counts block splits
    forced by ``max_rows``.
    """

    rows: int = 0
    peak_width: int = 0
    spills: int = 0


def row_lower_bound(
    rowptr: np.ndarray, colidx: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Element-wise lower bound: the first position in row ``u[i]``'s
    slice ``colidx[rowptr[u[i]]:rowptr[u[i] + 1]]`` holding a value
    ``>= v[i]`` (the row's end when there is none).

    All queries advance together through a synchronized binary search —
    ``O(log max_row_length)`` vectorized bisection rounds over the shared
    ``colidx`` array, the CPU shape of the warp-cooperative probes in
    the paper's Listing 7. ``colidx`` must be non-empty.
    """
    lo = rowptr[u].copy()
    hi = rowptr[u + 1].copy()
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        midval = colidx[np.minimum(mid, len(colidx) - 1)]
        go_right = active & (midval < v)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)


def has_edges_bulk(
    rowptr: np.ndarray, colidx: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Element-wise edge membership: does ``adj(u[i])`` contain ``v[i]``?

    One :func:`row_lower_bound` search, then an equality test at the
    position it lands on. :func:`has_edges` falls back to it for graphs
    without an adjacency bitmap, and the tests keep it as the oracle.
    """
    m = len(u)
    if m == 0 or len(colidx) == 0:
        return np.zeros(m, dtype=bool)
    lo = row_lower_bound(rowptr, colidx, u, v)
    found = lo < rowptr[u + 1]
    return found & (colidx[np.where(found, lo, 0)] == v)


def bitmap_stride(n: int) -> int:
    """Bits per adjacency-bitmap row: ``n`` rounded up to whole 64-bit words."""
    return -(-n // 64) * 64


def build_adjacency_bitmap(graph: CSRGraph) -> np.ndarray:
    """The graph's adjacency matrix as ``n · stride / 8`` ``uint8`` bytes,
    ``stride = bitmap_stride(n)``: bit ``k & 7`` of byte ``k >> 3`` is set
    iff ``(u, v)`` with ``k = u·stride + v`` is an edge.

    Each row fills whole 64-bit words, so ``bitmap.view(np.uint64)``
    reshaped to ``(n, stride / 64)`` holds one neighbourhood per row: the
    Venn pass ANDs and popcounts those rows. The CSR keys ``u·stride + v``
    already ascend, so the entries of one byte are contiguous and one
    ``bitwise_or.reduceat`` packs them: ``O(m)`` work and no ``n²``-sized
    temporary.
    """
    n = graph.num_vertices
    stride = bitmap_stride(n)
    bitmap = np.zeros(n * stride // 8, dtype=np.uint8)
    if len(graph.colidx) == 0:
        return bitmap
    keys = np.repeat(np.arange(n, dtype=np.int64) * stride, graph.degrees) + graph.colidx
    byte = keys >> 3
    starts = np.flatnonzero(np.concatenate(([True], byte[1:] != byte[:-1])))
    bits = np.left_shift(1, keys & 7).astype(np.uint8)
    bitmap[byte[starts]] = np.bitwise_or.reduceat(bits, starts)
    return bitmap


_BITMAPS: GraphCache[np.ndarray | None] = GraphCache()


def _bitmap_within_budget(graph: CSRGraph) -> np.ndarray | None:
    n = graph.num_vertices
    nbytes = n * bitmap_stride(n) // 8
    if len(graph.colidx) == 0 or nbytes > BITMAP_BUDGET_BYTES:
        return None
    with obs.span("frontier.bitmap_build", n=n, bytes=nbytes):
        bitmap = build_adjacency_bitmap(graph)
    registry = obs.active_metrics()
    if registry is not None:
        registry.counter("repro_frontier_bitmap_builds_total").inc()
        registry.gauge("repro_frontier_bitmap_bytes").set(nbytes)
    return bitmap


def adjacency_bitmap(graph: CSRGraph) -> np.ndarray | None:
    """The graph's cached :func:`build_adjacency_bitmap`, built on first
    use; ``None`` for an edgeless graph or when the bitmap would exceed
    :data:`BITMAP_BUDGET_BYTES`."""
    return _BITMAPS.get(graph, _bitmap_within_budget)


def has_edges(graph: CSRGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Element-wise edge membership: is ``(u[i], v[i])`` an edge?

    The one graph-level edge test of the matcher and the Venn pass: a
    gather and a shift per query in the :func:`adjacency_bitmap`, or
    :func:`has_edges_bulk` when the graph has none.
    """
    bitmap = adjacency_bitmap(graph)
    if bitmap is None:
        if len(graph.colidx):
            obs.counter_add("repro_frontier_bitmap_fallbacks_total")
        return has_edges_bulk(graph.rowptr, graph.colidx, u, v)
    k = u.astype(np.int64, copy=False) * bitmap_stride(graph.num_vertices) + v
    return ((bitmap[k >> 3] >> (k & 7).astype(np.uint8)) & 1).view(bool)


def _build_upper_starts(graph: CSRGraph) -> np.ndarray:
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    below = np.bincount(src[graph.colidx < src], minlength=n)
    return graph.rowptr[:-1] + below


_UPPER_STARTS: GraphCache[np.ndarray] = GraphCache()


def upper_starts(graph: CSRGraph) -> np.ndarray:
    """``starts[v]``: the position in ``colidx`` of ``v``'s first
    neighbour with a larger id (``rowptr[v + 1]`` when there is none).

    ``rowptr[v]`` plus the number of ``v``'s neighbours below ``v``
    (adjacency lists ascend and hold no self loop); built in ``O(m)`` on
    first use and cached per graph, 8 bytes per vertex.
    """
    return _UPPER_STARTS.get(graph, _build_upper_starts)


def _scan_ranges(
    graph: CSRGraph, block: np.ndarray, level: int, plan: CorePlan
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate slice ``colidx[start : start + length]`` at
    ``level``: the pivot's whole adjacency list, or only its neighbours
    above it when the pivot bounds the level (``match[pivot] < v``)."""
    piv = plan.pivot[level]
    pivots = block[:, piv]
    if piv in plan.less_than[level]:
        starts = upper_starts(graph)[pivots]
    else:
        starts = graph.rowptr[pivots]
    return starts, graph.rowptr[pivots + 1] - starts


def _expand_level(
    graph: CSRGraph,
    block: np.ndarray,
    level: int,
    plan: CorePlan,
    starts: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Extend every partial embedding in ``block`` by matching position
    ``level``, gathering row ``r``'s candidates from its scan range
    (``starts[r]``, ``lengths[r]``: :func:`_scan_ranges`); returns the
    filtered ``(rows, level + 1)`` frontier."""
    colidx, degrees = graph.colidx, graph.degrees
    piv = plan.pivot[level]
    total = int(lengths.sum())
    if total == 0:
        return np.empty((0, level + 1), dtype=np.int64)
    # bulk adjacency gather: candidate c of row r is colidx[starts[r] + o]
    parent = np.repeat(np.arange(len(block), dtype=np.int64), lengths)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    cand = colidx[starts[parent] + offsets]

    keep = degrees[cand] >= plan.min_degree[level]
    # symmetry-breaking order constraints: match[j] < candidate (the scan
    # range already enforces the pivot's)
    lts = plan.less_than[level]
    for j in lts:
        if j != piv:
            keep &= block[parent, j] < cand
    # injectivity against every earlier position (strict < above already
    # implies != for the symmetry-constrained columns, and a neighbour of
    # the pivot is never the pivot)
    for j in range(level):
        if j != piv and j not in lts:
            keep &= block[parent, j] != cand
    parent, cand = parent[keep], cand[keep]
    # remaining back edges: progressive narrowing, cheapest survivors last
    for b in plan.back_edges[level]:
        if b == piv or len(cand) == 0:
            continue
        ok = has_edges(graph, block[parent, b], cand)
        parent, cand = parent[ok], cand[ok]

    out = np.empty((len(cand), level + 1), dtype=np.int64)
    out[:, :level] = block[parent]
    out[:, level] = cand
    return out


def _budget_spans(lengths: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Contiguous ``[start, end)`` row spans whose candidate volume
    (sum of ``lengths``) stays within ``budget`` — at least one row each,
    so a single ultra-dense row can never wedge the traversal."""
    cum = np.cumsum(lengths)
    start, base = 0, 0
    n = len(lengths)
    while start < n:
        end = int(np.searchsorted(cum, base + budget, side="right"))
        if end <= start:
            end = start + 1
        yield start, end
        base = int(cum[end - 1])
        start = end


def _blocks(
    graph: CSRGraph,
    plan: CorePlan,
    block: np.ndarray,
    level: int,
    max_rows: int,
    stats: FrontierStats,
    registry,
) -> Iterator[np.ndarray]:
    """Carry one frontier block through levels ``level..p-1``, splitting
    whenever the next expansion would exceed ``max_rows`` candidates."""
    p = len(plan.order)
    while level < p:
        if len(block) == 0:
            return  # empty-frontier early exit: nothing downstream matches
        starts, lengths = _scan_ranges(graph, block, level, plan)
        if int(lengths.sum()) > max_rows and len(block) > 1:
            stats.spills += 1
            if registry is not None:
                registry.counter("repro_frontier_spills_total").inc()
            for s, e in _budget_spans(lengths, max_rows):
                yield from _blocks(
                    graph, plan, block[s:e], level, max_rows, stats, registry
                )
            return
        with obs.span("frontier.level", level=level, rows_in=len(block)):
            block = _expand_level(graph, block, level, plan, starts, lengths)
        stats.rows += len(block)
        stats.peak_width = max(stats.peak_width, len(block))
        if registry is not None:
            registry.histogram("repro_frontier_width").observe(len(block))
        level += 1
    if len(block):
        yield block


def iter_frontier_blocks(
    graph: CSRGraph,
    plan: CorePlan,
    *,
    start_vertices: Sequence[int] | None = None,
    max_rows: int = DEFAULT_MAX_FRONTIER_ROWS,
    stats: FrontierStats | None = None,
) -> Iterator[np.ndarray]:
    """Stream completed core embeddings as ``(rows, p)`` int64 blocks.

    Row-for-row equivalent to collecting :func:`repro.core.matcher.
    match_cores` (same symmetry reduction, same matching-order column
    layout), but produced level-synchronously: row ``i`` of a block maps
    matching position ``j`` to graph vertex ``block[i, j]``.
    ``start_vertices`` restricts position-0 roots — the same
    work-distribution unit the parallel layers slice. ``max_rows``
    bounds the candidate volume of any single expansion; larger
    frontiers are split and traversed block-by-block (depth-first), so
    peak memory is ``O(max_rows · p)`` regardless of graph density.
    """
    if max_rows < 1:
        raise ValueError("max_rows must be positive")
    degrees = graph.degrees
    if start_vertices is None:
        roots = np.nonzero(degrees >= plan.min_degree[0])[0].astype(np.int64)
    else:
        sv = np.asarray(list(start_vertices), dtype=np.int64)
        roots = sv[degrees[sv] >= plan.min_degree[0]] if len(sv) else sv
    if len(roots) == 0:
        return
    if stats is None:
        stats = FrontierStats()
    registry = obs.active_metrics()
    frontier = roots.reshape(-1, 1)
    stats.rows += len(frontier)
    stats.peak_width = max(stats.peak_width, len(frontier))
    if registry is not None:
        registry.histogram("repro_frontier_width").observe(len(frontier))
    yield from _blocks(graph, plan, frontier, 1, max_rows, stats, registry)


def frontier_match_matrix(
    graph: CSRGraph,
    plan: CorePlan,
    *,
    start_vertices: Sequence[int] | None = None,
    max_rows: int = DEFAULT_MAX_FRONTIER_ROWS,
) -> np.ndarray:
    """All symmetry-reduced core embeddings as one ``(matches, p)``
    matrix (testing/debug helper; production callers stream blocks)."""
    blocks = list(
        iter_frontier_blocks(
            graph, plan, start_vertices=start_vertices, max_rows=max_rows
        )
    )
    if not blocks:
        return np.empty((0, len(plan.order)), dtype=np.int64)
    return np.concatenate(blocks, axis=0)
