"""Vectorized frontier-at-a-time core matcher (paper §3.6, warp model).

The stack matcher (:mod:`repro.core.matcher`) extends one partial
embedding at a time from a Python generator — every candidate test is an
interpreter round trip. The paper's GPU kernel instead advances
*thousands* of partial embeddings in lockstep (Listing 7: one warp per
embedding, one level per step). This module is the CPU analogue of that
execution model: the partial-embedding frontier is a 2-D NumPy array
with one row per embedding and one column per matched position, stored
column-major (one C-contiguous ``(positions, rows)`` array per level,
handed out as its ``(rows, positions)`` transpose), so every column is
contiguous and moves to the next level with a 1-D ``np.take``. Each
step extends the whole frontier by one matching-order level with bulk
array kernels:

* **candidate generation** — one CSR adjacency gather over the pivot
  column (``np.repeat`` + offset arithmetic, the same indexing scheme
  :func:`repro.core.venn.venn_batch` uses). When the pivot is also a
  symmetry bound (``match[pivot] < v``) the gather starts at the
  pivot's first larger neighbour, read from the graph's cached
  :func:`upper_starts`, so candidates the bound would reject are never
  gathered: Listing 7's ``match[j] < match[i]`` pruning, applied before
  the gather instead of after it. A level that must exceed a *sibling*
  (an earlier level read from the same pivot's list) starts right after
  the sibling's slot, which the rows carry;
* **support / degree / symmetry / injectivity filtering** — boolean
  masks: the support bound (the pivot edge's common-neighbour count,
  one gather from :func:`~repro.core.venn.slot_common_neighbors` at the
  candidate's slot, must reach ``CorePlan.min_common``: fewer places no
  full pattern), full-pattern degree lower bounds, the ``match[j] < v``
  order constraints from symmetry breaking, and row-wise ``!=``
  compares against every earlier column;
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
Python loop disappears from the whole pipeline. For levels the caller
names, each row also carries the CSR slot its candidate was gathered
from, so the Venn pass reads that pivot edge's common neighbours at the
slot instead of searching for the pair.

Observability: each expansion emits a ``frontier.level`` span and a
``repro_frontier_width`` histogram sample; splits count into
``repro_frontier_spills_total`` and support-pruned candidates into
``repro_frontier_support_pruned_total``; the backend reports aggregate
``repro_frontier_rows_total`` and a ``repro_frontier_rows_per_second``
throughput gauge. A bitmap build records a ``frontier.bitmap_build``
span and the ``repro_frontier_bitmap_builds_total`` /
``repro_frontier_bitmap_bytes`` metrics; edge tests on a graph over the
budget count into ``repro_frontier_bitmap_fallbacks_total``.
"""

from __future__ import annotations

import functools
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
    forced by ``max_rows``; ``support_pruned`` counts the candidates
    that passed the degree filter but failed the support bound
    (``CorePlan.min_common``).
    """

    rows: int = 0
    peak_width: int = 0
    spills: int = 0
    support_pruned: int = 0


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


@dataclass(frozen=True)
class _Walk:
    """The constants of one :func:`iter_frontier_blocks` traversal.

    ``carried`` lists (ascending) the levels whose CSR slots the rows
    carry: the caller's ``slot_levels`` and every level that bounds a
    later sibling scan; ``siblings[level]`` names the earlier levels
    whose carried slot starts ``level``'s scan. ``common`` is the
    graph's :func:`~repro.core.venn.slot_common_neighbors` when some
    level has a support bound, and ``pruned`` the
    ``repro_frontier_support_pruned_total`` counter when metrics are on.
    """

    graph: CSRGraph
    plan: CorePlan
    carried: tuple[int, ...]
    siblings: tuple[tuple[int, ...], ...]
    common: np.ndarray | None
    max_rows: int
    stats: FrontierStats
    registry: obs.MetricsRegistry | None
    pruned: obs.Counter | None


def _sibling_bounds(plan: CorePlan) -> tuple[tuple[int, ...], ...]:
    """Per level, the earlier levels it must exceed whose candidates were
    read from the same pivot's adjacency list: the level's scan can
    start right after such a sibling's slot."""
    return tuple(
        tuple(j for j in plan.less_than[level] if j > 0 and plan.pivot[j] == plan.pivot[level])
        for level in range(len(plan.order))
    )


def _scan_ranges(
    walk: _Walk, cols: np.ndarray, slots: np.ndarray | None, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate slice ``colidx[start : start + length]`` at
    ``level``: the pivot's adjacency list above its tightest start —
    the pivot itself when the pivot bounds the level (``match[pivot] <
    v``), and the slot of every sibling bound (an earlier level read
    from the same list that the level must exceed)."""
    graph, plan = walk.graph, walk.plan
    piv = plan.pivot[level]
    pivots = cols[piv]
    bounds = [slots[walk.carried.index(j)] + 1 for j in walk.siblings[level]]
    if piv in plan.less_than[level]:
        bounds.append(np.take(upper_starts(graph), pivots))
    starts = functools.reduce(np.maximum, bounds) if bounds else np.take(graph.rowptr, pivots)
    return starts, np.take(graph.rowptr, pivots + 1) - starts


def _expand_level(
    walk: _Walk,
    cols: np.ndarray,
    level: int,
    starts: np.ndarray,
    lengths: np.ndarray,
    slots: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Extend every partial embedding of the column-major frontier
    ``cols`` (``(level, rows)``, row ``j`` the matches of position
    ``j``) by matching position ``level``, gathering row ``r``'s
    candidates from its scan range (``starts[r]``, ``lengths[r]``:
    :func:`_scan_ranges`). Returns the filtered ``(level + 1, rows')``
    frontier and its ``(k, rows')`` slot columns: ``slots`` (one row
    per carried level, or ``None``) follow their rows, and at a carried
    level the CSR position each candidate was read from joins them as a
    new last row. Every column is gathered with a 1-D ``np.take``, so
    no full-width row array is built."""
    graph, plan = walk.graph, walk.plan
    colidx, degrees = graph.colidx, graph.degrees
    piv = plan.pivot[level]
    carry = level in walk.carried
    total = int(lengths.sum())
    if total == 0:  # the caller drops an empty frontier with its slots
        return np.empty((level + 1, 0), dtype=np.int64), None
    # bulk adjacency gather: candidate o of row r is colidx[starts[r] + o],
    # so slot = (starts[r] - the rows' candidates before r) + running index
    parent = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    slot = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    slot += np.arange(total, dtype=np.int64)
    cand = np.take(colidx, slot)

    keep = np.take(degrees, cand) >= plan.min_degree[level]
    # support bound: the pivot edge needs as many common neighbours as
    # the pattern puts on it, read at the slot the candidate came from
    need = plan.min_common[level]
    if need:
        passed = np.count_nonzero(keep)
        keep &= np.take(walk.common, slot) >= need
        dropped = int(passed - np.count_nonzero(keep))
        walk.stats.support_pruned += dropped
        if walk.pruned is not None:
            walk.pruned.inc(dropped)
    if not carry:
        slot = None  # free it now: holding it slows the next allocations
    # symmetry-breaking order constraints: match[j] < candidate (the scan
    # range already enforces the pivot's and every sibling's)
    lts = plan.less_than[level]
    for j in lts:
        if j != piv and j not in walk.siblings[level]:
            keep &= np.take(cols[j], parent) < cand
    # injectivity against every earlier position (strict < above already
    # implies != for the symmetry-constrained columns, and a neighbour of
    # the pivot is never the pivot)
    for j in range(level):
        if j != piv and j not in lts:
            keep &= np.take(cols[j], parent) != cand
    if not keep.all():
        parent, cand = parent[keep], cand[keep]
        if carry:
            slot = slot[keep]
    # remaining back edges: progressive narrowing, cheapest survivors last
    for b in plan.back_edges[level]:
        if b == piv or len(cand) == 0:
            continue
        ok = has_edges(graph, np.take(cols[b], parent), cand)
        parent, cand = parent[ok], cand[ok]
        if carry:
            slot = slot[ok]

    out = np.empty((level + 1, len(cand)), dtype=np.int64)
    for j in range(level):  # in range: "clip" only skips the copy "raise" makes of out=
        np.take(cols[j], parent, out=out[j], mode="clip")
    out[level] = cand
    kept = 0 if slots is None else len(slots)
    if kept or carry:
        moved = np.empty((kept + carry, len(cand)), dtype=np.int64)
        for k in range(kept):
            np.take(slots[k], parent, out=moved[k], mode="clip")
        if carry:
            moved[kept] = slot
        slots = moved
    return out, slots


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
    walk: _Walk, cols: np.ndarray, slots: np.ndarray | None, level: int
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Carry one column-major frontier block (and its slot columns)
    through levels ``level..p-1``, splitting whenever the next expansion
    would exceed ``max_rows`` candidates; yields ``(p, rows)`` blocks
    and ``(k, rows)`` slots."""
    p = len(walk.plan.order)
    stats, registry = walk.stats, walk.registry
    while level < p:
        rows = cols.shape[1]
        if rows == 0:
            return  # empty-frontier early exit: nothing downstream matches
        starts, lengths = _scan_ranges(walk, cols, slots, level)
        if int(lengths.sum()) > walk.max_rows and rows > 1:
            stats.spills += 1
            if registry is not None:
                registry.counter("repro_frontier_spills_total").inc()
            for s, e in _budget_spans(lengths, walk.max_rows):
                yield from _blocks(
                    walk, cols[:, s:e], None if slots is None else slots[:, s:e], level
                )
            return
        with obs.span("frontier.level", level=level, rows_in=rows):
            cols, slots = _expand_level(walk, cols, level, starts, lengths, slots)
        rows = cols.shape[1]
        stats.rows += rows
        stats.peak_width = max(stats.peak_width, rows)
        if registry is not None:
            registry.histogram("repro_frontier_width").observe(rows)
        level += 1
    if cols.shape[1]:
        yield cols, slots


def iter_frontier_blocks(
    graph: CSRGraph,
    plan: CorePlan,
    *,
    start_vertices: Sequence[int] | None = None,
    max_rows: int = DEFAULT_MAX_FRONTIER_ROWS,
    stats: FrontierStats | None = None,
    slot_levels: Sequence[int] = (),
) -> Iterator[np.ndarray] | Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream completed core embeddings as ``(rows, p)`` int64 blocks.

    Each block is the transposed view of a C-contiguous ``(p, rows)``
    array: indexing is by row and column as usual, and every column
    ``block[:, j]`` is contiguous, so consumers read a position's matches
    without copying the block.

    The rows are the :func:`repro.core.matcher.match_cores` tuples (same
    symmetry reduction, same matching-order column layout) whose pivot
    edges meet the plan's support bound: at every level the pivot edge
    has at least ``plan.min_common[level]`` common graph neighbours
    (read from :func:`~repro.core.venn.slot_common_neighbors` at the
    candidate's slot). A dropped row places no full pattern, so every
    fringe count on it is 0. They are produced level-synchronously: row
    ``i`` of a block maps matching position ``j`` to graph vertex
    ``block[i, j]``. ``start_vertices`` restricts position-0 roots — the
    same work-distribution unit the parallel layers slice. ``max_rows``
    bounds the candidate volume of any single expansion; larger
    frontiers are split and traversed block-by-block (depth-first), so
    peak memory is ``O(max_rows · p)`` regardless of graph density.

    With ``slot_levels`` (ascending levels ``>= 1``) it yields
    ``(block, slots)`` pairs instead: ``slots[i, k]`` is the position in
    ``colidx`` the matcher read ``block[i, slot_levels[k]]`` from, a slot
    in the adjacency list of the level's pivot ``block[i, pivot]``,
    laid out column-major like the block. The blocks are the same either
    way.
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
    siblings = _sibling_bounds(plan)
    carried = tuple(sorted(set(slot_levels).union(*siblings)))
    common = pruned = None
    if any(plan.min_common):
        from .venn import slot_common_neighbors  # venn imports this module

        common = slot_common_neighbors(graph)
        if registry is not None:
            pruned = registry.counter("repro_frontier_support_pruned_total")
    walk = _Walk(graph, plan, carried, siblings, common, max_rows, stats, registry, pruned)
    stats.rows += len(roots)
    stats.peak_width = max(stats.peak_width, len(roots))
    if registry is not None:
        registry.histogram("repro_frontier_width").observe(len(roots))
    blocks = _blocks(walk, roots.reshape(1, -1), None, 1)
    if not slot_levels:
        for cols, _ in blocks:
            yield cols.T
    elif carried == tuple(slot_levels):
        for cols, slots in blocks:
            yield cols.T, slots.T
    else:  # drop the columns only the sibling scans needed
        rows = [carried.index(level) for level in slot_levels]
        for cols, slots in blocks:
            yield cols.T, slots[rows].T


def frontier_match_matrix(
    graph: CSRGraph,
    plan: CorePlan,
    *,
    start_vertices: Sequence[int] | None = None,
    max_rows: int = DEFAULT_MAX_FRONTIER_ROWS,
) -> np.ndarray:
    """All symmetry-reduced core embeddings that meet the support bound
    as one ``(matches, p)`` matrix (testing/debug helper; production
    callers stream blocks)."""
    blocks = list(
        iter_frontier_blocks(
            graph, plan, start_vertices=start_vertices, max_rows=max_rows
        )
    )
    if not blocks:
        return np.empty((0, len(plan.order)), dtype=np.int64)
    return np.concatenate(blocks, axis=0)
