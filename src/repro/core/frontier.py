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
  :func:`repro.core.venn.venn_batch` uses);
* **degree / symmetry / injectivity filtering** — boolean masks:
  full-pattern degree lower bounds, the ``match[j] < v`` order
  constraints from symmetry breaking, and row-wise ``!=`` compares
  against every earlier column;
* **back-edge checking** — a vectorized binary search
  (:func:`has_edges_bulk`) that resolves all (matched vertex, candidate)
  adjacency membership queries of a level in ``O(log max_degree)``
  synchronized bisection rounds over ``colidx``.

Memory is bounded: before expanding, a frontier whose candidate volume
would exceed ``max_rows`` is *split* into contiguous row blocks that are
carried independently through the remaining levels (depth-first over
blocks), so dense graphs degrade into more block iterations instead of
one giant allocation. Completed embeddings stream out as blocks, which
the :class:`repro.core.backends.FrontierBackend` feeds straight into
the Venn pass + the compiled fringe polynomial — the per-embedding
Python loop disappears from the whole pipeline.

Observability: each expansion emits a ``frontier.level`` span and a
``repro_frontier_width`` histogram sample; splits count into
``repro_frontier_spills_total``; the backend reports aggregate
``repro_frontier_rows_total`` and a ``repro_frontier_rows_per_second``
throughput gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .matcher import CorePlan

__all__ = [
    "DEFAULT_MAX_FRONTIER_ROWS",
    "FrontierStats",
    "has_edges_bulk",
    "row_lower_bound",
    "iter_frontier_blocks",
    "frontier_match_matrix",
]

# Default cap on the candidate volume of one expansion step (rows). At
# int64 this bounds the transient candidate arrays to ~8 MB per column;
# EngineConfig.max_frontier_rows overrides it per call.
DEFAULT_MAX_FRONTIER_ROWS = 1 << 20


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
    position it lands on.
    """
    m = len(u)
    if m == 0 or len(colidx) == 0:
        return np.zeros(m, dtype=bool)
    lo = row_lower_bound(rowptr, colidx, u, v)
    found = lo < rowptr[u + 1]
    return found & (colidx[np.where(found, lo, 0)] == v)


def _expand_level(
    graph: CSRGraph, block: np.ndarray, level: int, plan: CorePlan
) -> np.ndarray:
    """Extend every partial embedding in ``block`` by matching position
    ``level``; returns the filtered ``(rows, level + 1)`` frontier."""
    rowptr, colidx, degrees = graph.rowptr, graph.colidx, graph.degrees
    piv = plan.pivot[level]
    pivots = block[:, piv]
    starts = rowptr[pivots]
    degs = rowptr[pivots + 1] - starts
    total = int(degs.sum())
    if total == 0:
        return np.empty((0, level + 1), dtype=np.int64)
    # bulk adjacency gather: candidate c of row r is colidx[starts[r] + o]
    parent = np.repeat(np.arange(len(block), dtype=np.int64), degs)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(degs) - degs, degs)
    cand = colidx[starts[parent] + offsets]

    keep = degrees[cand] >= plan.min_degree[level]
    # symmetry-breaking order constraints: match[j] < candidate
    lts = plan.less_than[level]
    for j in lts:
        keep &= block[parent, j] < cand
    # injectivity against every earlier position (strict < above already
    # implies != for the symmetry-constrained columns)
    lt_set = set(lts)
    for j in range(level):
        if j not in lt_set:
            keep &= block[parent, j] != cand
    parent, cand = parent[keep], cand[keep]
    # remaining back edges: progressive narrowing, cheapest survivors last
    for b in plan.back_edges[level]:
        if b == piv or len(cand) == 0:
            continue
        ok = has_edges_bulk(rowptr, colidx, block[parent, b], cand)
        parent, cand = parent[ok], cand[ok]

    out = np.empty((len(cand), level + 1), dtype=np.int64)
    out[:, :level] = block[parent]
    out[:, level] = cand
    return out


def _budget_spans(degs: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Contiguous ``[start, end)`` row spans whose candidate volume
    (sum of ``degs``) stays within ``budget`` — at least one row each,
    so a single ultra-dense row can never wedge the traversal."""
    cum = np.cumsum(degs)
    start, base = 0, 0
    n = len(degs)
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
        pivots = block[:, plan.pivot[level]]
        degs = graph.rowptr[pivots + 1] - graph.rowptr[pivots]
        if int(degs.sum()) > max_rows and len(block) > 1:
            stats.spills += 1
            if registry is not None:
                registry.counter("repro_frontier_spills_total").inc()
            for s, e in _budget_spans(degs, max_rows):
                yield from _blocks(
                    graph, plan, block[s:e], level, max_rows, stats, registry
                )
            return
        with obs.span("frontier.level", level=level, rows_in=len(block)):
            block = _expand_level(graph, block, level, plan)
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
