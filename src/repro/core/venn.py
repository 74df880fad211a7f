"""Venn-diagram computation for matched cores (paper §3.4, §3.6).

Given a matched core and the ``q`` core vertices that appear in at least
one anchor set, the engine needs the sizes of the ``2^q − 1`` *disjoint*
regions of the Venn diagram of their external-neighbour sets:
``venn[S] = #{x : x not a matched core vertex, and x is adjacent to
exactly the anchors in S}`` for every non-empty ``S ⊆ {0..q-1}``.

The array layout matches the paper: index ``S`` is a q-bit bitset, bit
``i`` meaning the i-th anchor vertex; element 0 is unused.

Three interchangeable *per-match* implementations:

* :func:`venn_merge` — the paper's §3.6 scheme and the one the serial
  oracle (:class:`~repro.core.backends.SerialBackend`) runs: for each
  anchor, binary search the adjacency lists of anchors *later in the
  stack* only, then computationally correct the counts ("about twice as
  fast as always checking all adjacency lists");
* :func:`venn_hash` — reference, Python dict of neighbour→bitmask;
* :func:`venn_sorted` — NumPy sort-reduce over the concatenated adjacency
  lists (the data-parallel formulation a GPU kernel would use).

The last two are the test reference and the §3.6 ablation's comparison
points (``benchmarks/bench_ablation_venn.py``).

Plus one *batched* formulation, :func:`venn_batch`: a ``(B, q)`` matrix
of anchor rows in, a ``(B, 2^q)`` matrix of region counts out, computed
with a single gather + sort-reduce pass across the whole batch.

The batched backends do not call :func:`venn_batch` on every matched
core. Core embeddings repeat the same anchor *set* — in another order,
or with different non-anchor core vertices — so a block of embeddings
is first reduced to its distinct sorted anchor sets
(:func:`unique_anchor_sets`) and one diagram is computed per distinct
set, excluding only the anchors. :func:`row_venns` then rebuilds any
row's own diagram from its set's: it permutes the region bits back into
the row's anchor order (one column map per anchor permutation, at most
``q!``) and removes each non-anchor core vertex from the one region its
adjacency to the anchors names. The result equals
``venn_batch(graph, block[:, positions], block)`` row for row.

The per-set diagrams come from :func:`venn_sets`, which never gathers
whole neighbourhoods. Region sizes follow from intersection sizes
``I[T] = |∩_{j in T} N(a_j)|`` by the superset Möbius inversion

    venn[S] = Σ_{T ⊇ S} (−1)^{|T|−|S|} · I[T]

(the paper's §3.6 "search later anchors, then correct", done
algebraically): ``|T| = 1`` is a degree, ``|T| = 2`` one entry of
``A·A``, and ``|T| >= 3`` scans only the smallest member's adjacency
list with :func:`~repro.core.frontier.has_edges` bit tests against the
others (the graph's cached adjacency bitmap; bisection over budget).
An in-place ``O(q·2^q)`` transform inverts the sizes; each anchor then
leaves the region its adjacency to the other anchors names.

``A·A`` lives in a :class:`PairIndex`: its strict upper triangle in CSR
form — ``int64`` row pointers, ``int32`` columns and ``int32`` common-
neighbour counts, 8 B per nonzero. :func:`build_pair_index` counts the
2-paths ``u–w–v`` (``v > u``) in row blocks of about
:data:`INDEX_BLOCK_PATHS` 2-paths with NumPy alone, and
:func:`pair_index` caches the result per graph object in a
:class:`~repro.core.frontier.GraphCache` (never on the graph, so it
never enters a pickled graph; pool workers build their own on their
attached graph). A graph gets an index only when the bound
``Σ_w C(deg w, 2) · 8`` bytes fits :data:`INDEX_BUDGET_BYTES` (64 MiB)
and its ids fit ``int32``; otherwise :func:`venn_sets` falls back to
:func:`venn_batch`, which also stays the
differential oracle in the tests. Builds record a ``venn.index_build``
span and the ``repro_venn_index_builds_total`` /
``repro_venn_index_bytes`` metrics; fallbacks count into
``repro_venn_index_fallbacks_total``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .frontier import GraphCache, has_edges, row_lower_bound

__all__ = [
    "venn_hash",
    "venn_sorted",
    "venn_merge",
    "venn_batch",
    "venn_sets",
    "PairIndex",
    "build_pair_index",
    "pair_index",
    "INDEX_BUDGET_BYTES",
    "group_keys",
    "unique_anchor_sets",
    "row_venns",
]


def venn_hash(
    graph: CSRGraph, anchors: Sequence[int], core: Sequence[int]
) -> list[int]:
    """Reference implementation via a neighbour→bitmask dictionary."""
    q = len(anchors)
    core_set = set(int(c) for c in core)
    mask_of: dict[int, int] = {}
    for i, a in enumerate(anchors):
        bit = 1 << i
        for x in graph.neighbors(a):
            x = int(x)
            if x not in core_set:
                mask_of[x] = mask_of.get(x, 0) | bit
    venn = [0] * (1 << q)
    for mask in mask_of.values():
        venn[mask] += 1
    return venn


def venn_sorted(
    graph: CSRGraph, anchors: Sequence[int], core: Sequence[int]
) -> list[int]:
    """Sort-reduce formulation: concatenate the q adjacency lists with
    per-list bit weights, group by neighbour id, OR the bits, histogram.

    This maps directly onto GPU segmented-sort + reduce-by-key primitives
    and is the fastest CPU path for high-degree anchors.
    """
    q = len(anchors)
    lists = [graph.neighbors(a) for a in anchors]
    vals = np.concatenate(lists)
    bits = np.concatenate(
        [np.full(len(lst), 1 << i, dtype=np.int64) for i, lst in enumerate(lists)]
    )
    order = np.argsort(vals, kind="stable")
    vals, bits = vals[order], bits[order]
    # OR the bit weights of equal neighbour ids (they are adjacent after sort)
    boundaries = np.empty(len(vals), dtype=bool)
    if len(vals):
        boundaries[0] = True
        np.not_equal(vals[1:], vals[:-1], out=boundaries[1:])
    uniq_vals = vals[boundaries]
    group_ids = np.cumsum(boundaries) - 1
    masks = np.zeros(len(uniq_vals), dtype=np.int64)
    np.bitwise_or.at(masks, group_ids, bits)
    # drop matched core vertices (all of them, not just anchors — §3.6)
    core_arr = np.asarray(sorted(set(int(c) for c in core)), dtype=np.int64)
    keep = ~np.isin(uniq_vals, core_arr, assume_unique=True)
    venn = np.bincount(masks[keep], minlength=1 << q)
    return venn.tolist()


def venn_merge(
    graph: CSRGraph, anchors: Sequence[int], core: Sequence[int]
) -> list[int]:
    """The paper's GPU scheme (§3.6), serialized.

    For each anchor ``i`` (stack order), classify every entry ``x`` of its
    adjacency list by binary-searching only the adjacency lists of anchors
    ``j > i``. This assigns ``x`` the bitmask ``(1 << i) | later_bits`` and
    would count ``x`` once per anchor it neighbours; the correction step
    keeps only the occurrence at the *first* anchor (no earlier bit set),
    which is exactly what restricting the search to later anchors gives us
    for free: ``x`` is counted at anchor ``i`` iff ``i`` is its first
    anchor. Hence one pass, no duplicate counting — the "computational
    correction" is that anchors earlier in the stack never re-test ``x``.
    """
    q = len(anchors)
    core_set = set(int(c) for c in core)
    partial = [0] * (1 << q)
    lists = [graph.neighbors(a) for a in anchors]
    for i in range(q):
        adj = lists[i]
        if len(adj) == 0:
            continue
        mask = np.full(len(adj), 1 << i, dtype=np.int64)
        for j in range(i + 1, q):  # later stack entries only
            mask |= _member(lists[j], adj).astype(np.int64) << j
        for x, m in zip(adj.tolist(), mask.tolist()):
            if x not in core_set:
                partial[m] += 1
    return _correct_partial(partial, q)


def _correct_partial(partial: list[int], q: int) -> list[int]:
    """Undo the overcount from searching only later anchors.

    A neighbour with true mask ``M`` was tallied once per anchor ``i ∈ M``,
    each time under the partial mask ``M`` with bits below ``i`` cleared.
    Processing masks by increasing lowest-set-bit lets us peel the
    duplicates: ``venn[m] = partial[m] − Σ venn[m | B]`` over non-empty
    ``B`` inside the bits below ``lowbit(m)``.
    """
    venn = [0] * (1 << q)
    masks = sorted(range(1, 1 << q), key=lambda m: (m & -m))
    for m in masks:
        low = m & -m
        below = low - 1  # bits strictly under the lowest set bit of m
        total = partial[m]
        # iterate non-empty subsets B of `below` (all disjoint from m)
        b = below
        while b:
            total -= venn[m | b]
            b = (b - 1) & below
        venn[m] = total
    return venn


def _member(sorted_list: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Vectorized binary-search membership of ``queries`` in ``sorted_list``."""
    if len(sorted_list) == 0:
        return np.zeros(len(queries), dtype=bool)
    pos = np.searchsorted(sorted_list, queries)
    pos_clipped = np.minimum(pos, len(sorted_list) - 1)
    return sorted_list[pos_clipped] == queries


def venn_batch(
    graph: CSRGraph, anchor_matrix: np.ndarray, core_matrix: np.ndarray
) -> np.ndarray:
    """Venn diagrams for a whole batch of matches in one sort-reduce pass.

    ``anchor_matrix`` is ``(B, q)`` — the anchor vertices of B matched
    cores; ``core_matrix`` is ``(B, p)`` — all matched core vertices (to
    exclude). Returns ``(B, 2^q)`` region sizes.

    Keys combine (match index, neighbour id) so one global sort groups
    every match's external neighbourhood at once — the CPU analogue of the
    warp-cooperative Venn population in §3.6, processing thousands of
    matches per NumPy kernel launch instead of one per Python iteration.
    """
    b, q = anchor_matrix.shape
    if b == 0:
        return np.zeros((0, 1 << q), dtype=np.int64)
    n = graph.num_vertices
    rowptr, colidx = graph.rowptr, graph.colidx

    degs = rowptr[anchor_matrix + 1] - rowptr[anchor_matrix]  # (B, q)
    total = int(degs.sum())
    keys = np.empty(total, dtype=np.int64)
    bits = np.empty(total, dtype=np.int64)
    pos = 0
    # gather adjacency lists column by column (one anchor role at a time)
    for j in range(q):
        starts = rowptr[anchor_matrix[:, j]]
        lens = degs[:, j]
        m = int(lens.sum())
        if m == 0:
            continue
        # index vector: for each match, starts[i] .. starts[i]+lens[i]
        reps = np.repeat(np.arange(b), lens)
        offsets = np.arange(m) - np.repeat(np.cumsum(lens) - lens, lens)
        idx = starts[reps] + offsets
        keys[pos : pos + m] = reps * n + colidx[idx]
        bits[pos : pos + m] = 1 << j
        pos += m
    if pos == 0:  # every anchor isolated
        return np.zeros((b, 1 << q), dtype=np.int64)
    keys, bits = keys[:pos], bits[:pos]
    order = np.argsort(keys, kind="stable")
    keys, bits = keys[order], bits[order]
    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    uniq = keys[boundaries]
    group_ids = np.cumsum(boundaries) - 1
    masks = np.zeros(len(uniq), dtype=np.int64)
    np.bitwise_or.at(masks, group_ids, bits)
    match_of = uniq // n
    # exclude matched core vertices: look their keys up among uniq
    excl_keys = (np.arange(b, dtype=np.int64)[:, None] * n + core_matrix).ravel()
    loc = np.searchsorted(uniq, excl_keys)
    loc_c = np.minimum(loc, len(uniq) - 1)
    hit = uniq[loc_c] == excl_keys
    keep = np.ones(len(uniq), dtype=bool)
    keep[loc_c[hit]] = False
    flat = match_of[keep] * (1 << q) + masks[keep]
    venn = np.bincount(flat, minlength=b << q).reshape(b, 1 << q)
    return venn


# ----------------------------------------------------------------------
# algebraic Venn: intersection sizes + superset Möbius inversion
# ----------------------------------------------------------------------
# Largest pair index one graph may get: the bound Σ_w C(deg w, 2) · 8 B
# (an int32 column plus an int32 value per upper-triangle nonzero) must
# fit, else venn_sets falls back to venn_batch for that graph.
INDEX_BUDGET_BYTES = 64 << 20
# 2-paths gathered per build block; bounds the build's transient memory
INDEX_BLOCK_PATHS = 1 << 16


@dataclass(frozen=True)
class PairIndex:
    """The strict upper triangle of ``A·A`` in CSR form.

    For ``u < v``, ``cols[ptr[u]:ptr[u + 1]]`` lists (ascending) every
    ``v`` that shares a neighbour with ``u`` and ``vals`` the number of
    common neighbours ``|N(u) ∩ N(v)|``.
    """

    ptr: np.ndarray  # (n + 1,) int64
    cols: np.ndarray  # (nnz,) int32
    vals: np.ndarray  # (nnz,) int32

    @property
    def nbytes(self) -> int:
        return self.ptr.nbytes + self.cols.nbytes + self.vals.nbytes

    def lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``|N(u[i]) ∩ N(v[i])|`` for element-wise pairs with ``u < v``."""
        if len(self.cols) == 0:
            return np.zeros(len(u), dtype=np.int64)
        lo = row_lower_bound(self.ptr, self.cols, u, v)
        at = np.minimum(lo, len(self.cols) - 1)
        hit = (lo < self.ptr[u + 1]) & (self.cols[at] == v)
        return np.where(hit, self.vals[at], 0).astype(np.int64)


def build_pair_index(graph: CSRGraph, block_paths: int = INDEX_BLOCK_PATHS) -> PairIndex:
    """Count the 2-paths ``u–w–v`` with ``u < v`` into a :class:`PairIndex`.

    Rows ``u`` are processed in contiguous blocks of about
    ``block_paths`` 2-paths. For an edge ``u → w`` the ``v > u`` in
    ``N(w)`` are the entries after the reverse edge ``w → u``, so each
    block is one repeat+offset gather and one ``np.unique`` count; the
    blocks' keys are disjoint, so their outputs concatenate into CSR.
    """
    n = graph.num_vertices
    rowptr, colidx = graph.rowptr, graph.colidx
    # rev[e]: position of the reverse of edge e. CSR order is (u, w);
    # a stable sort by w gives (w, u), the CSR order of the reverses.
    rev = np.empty(len(colidx), dtype=np.int64)
    rev[np.argsort(colidx, kind="stable")] = np.arange(len(colidx), dtype=np.int64)
    after = rowptr[colidx + 1] - rev - 1  # v > u in N(w), per edge u → w
    row_cum = np.concatenate(([0], np.cumsum(after)))[rowptr]  # (n + 1,)
    total = int(row_cum[-1])
    cuts = np.searchsorted(row_cum, np.arange(block_paths, total, block_paths))
    cuts = np.unique(np.concatenate(([0], cuts, [n])))
    row_nnz = np.zeros(n, dtype=np.int64)
    cols, vals = [], []
    for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        e0, e1 = int(rowptr[r0]), int(rowptr[r1])
        lens = after[e0:e1]
        m = int(lens.sum())
        if m == 0:
            continue
        src = np.repeat(np.arange(r1 - r0, dtype=np.int64), graph.degrees[r0:r1])
        reps = np.repeat(np.arange(e1 - e0, dtype=np.int64), lens)
        offsets = np.arange(m, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
        keys = src[reps] * n + colidx[rev[e0:e1][reps] + 1 + offsets]
        keys, counts = np.unique(keys, return_counts=True)
        row_nnz[r0:r1] = np.bincount(keys // n, minlength=r1 - r0)
        cols.append((keys % n).astype(np.int32))
        vals.append(counts.astype(np.int32))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=ptr[1:])
    return PairIndex(
        ptr,
        np.concatenate(cols) if cols else np.empty(0, dtype=np.int32),
        np.concatenate(vals) if vals else np.empty(0, dtype=np.int32),
    )


_INDEXES: GraphCache[PairIndex | None] = GraphCache()


def _index_within_budget(graph: CSRGraph) -> PairIndex | None:
    deg = graph.degrees.astype(np.float64)
    bound = float((deg * (deg - 1)).sum()) / 2 * 8
    if bound > INDEX_BUDGET_BYTES or graph.num_vertices >= 1 << 31:
        return None
    with obs.span("venn.index_build", n=graph.num_vertices) as attrs:
        index = build_pair_index(graph)
        if attrs is not None:
            attrs.update(nnz=len(index.cols), bytes=index.nbytes)
    registry = obs.active_metrics()
    if registry is not None:
        registry.counter("repro_venn_index_builds_total").inc()
        registry.gauge("repro_venn_index_bytes").set(index.nbytes)
    return index


def pair_index(graph: CSRGraph) -> PairIndex | None:
    """The graph's cached :class:`PairIndex`, built on first use.

    ``None`` when the index would exceed :data:`INDEX_BUDGET_BYTES` or
    the vertex ids do not fit int32. A
    :class:`~repro.core.frontier.GraphCache` keeps it per graph object,
    out of pickles, and built once under concurrent first use.
    """
    return _INDEXES.get(graph, _index_within_budget)


def _intersection_sizes(
    graph: CSRGraph, sets: np.ndarray, degs: np.ndarray, members: list[int]
) -> np.ndarray:
    """``|∩_{j in members} N(sets[:, j])|`` per row: the smallest member's
    adjacency list, filtered by adjacency to each other member."""
    rowptr, colidx = graph.rowptr, graph.colidx
    rows = np.arange(len(sets))
    pick = np.asarray(members)[np.argmin(degs[:, members], axis=1)]
    smallest = sets[rows, pick]
    lens = degs[rows, pick]
    m = int(lens.sum())
    reps = np.repeat(rows, lens)
    offsets = np.arange(m, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    x = colidx[rowptr[smallest][reps] + offsets]
    for j in members:
        test = pick[reps] != j
        keep = ~test
        keep[test] = has_edges(graph, sets[reps[test], j], x[test])
        reps, x = reps[keep], x[keep]
    return np.bincount(reps, minlength=len(sets))


def venn_sets(graph: CSRGraph, sets: np.ndarray) -> np.ndarray:
    """``venn_batch(graph, sets, sets)`` from intersection sizes.

    ``sets`` is ``(U, q)``, each row ``q`` distinct vertices in any
    order. Region sizes follow from the sizes of the intersections
    ``I[T] = |∩_{j in T} N(sets[:, j])|`` by a superset Möbius
    inversion, ``venn[S] = Σ_{T ⊇ S} (−1)^{|T|−|S|} I[T]``: degrees for
    ``|T| = 1``, the cached :func:`pair_index` for ``|T| = 2``,
    :func:`_intersection_sizes` for ``|T| >= 3``. Each anchor then
    leaves the one region its adjacency to the other anchors names.
    Falls back to :func:`venn_batch` when the graph has no index.
    """
    u, q = sets.shape
    if u == 0 or q == 0:
        return np.zeros((u, 1 << q), dtype=np.int64)
    index = pair_index(graph) if q >= 2 else None
    if q >= 2 and index is None:
        obs.counter_add("repro_venn_index_fallbacks_total")
        return venn_batch(graph, sets, sets)
    degs = graph.degrees[sets]
    venn = np.zeros((u, 1 << q), dtype=np.int64)
    adj = np.zeros((u, q), dtype=np.int64)  # anchors adjacent to anchor j
    for j in range(q):
        venn[:, 1 << j] = degs[:, j]
        for i in range(j):
            a, b = sets[:, i], sets[:, j]
            venn[:, (1 << i) | (1 << j)] = index.lookup(np.minimum(a, b), np.maximum(a, b))
            hit = has_edges(graph, a, b).astype(np.int64)
            adj[:, i] |= hit << j
            adj[:, j] |= hit << i
    for t in range(7, 1 << q):
        members = [j for j in range(q) if t >> j & 1]
        if len(members) >= 3:
            venn[:, t] = _intersection_sizes(graph, sets, degs, members)
    # superset Möbius transform, one bit at a time, in place
    for j in range(q):
        pairs = venn.reshape(u, -1, 2, 1 << j)
        pairs[:, :, 0, :] -= pairs[:, :, 1, :]
    venn[:, 0] = 0
    # an anchor is a neighbour of exactly the anchors its mask names
    rows = np.arange(u)
    for j in range(q):
        sel = adj[:, j] != 0
        venn[rows[sel], adj[sel, j]] -= 1
    return venn


def group_keys(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal entries of a 1-D ``key``.

    Returns ``(first, inverse, counts)`` over the distinct values in
    ascending order: ``first[g]`` indexes one entry of group ``g``,
    ``key[i]`` belongs to group ``inverse[i]``, and ``counts[g]`` is the
    group's size — what ``np.unique(key, return_index=True,
    return_inverse=True, return_counts=True)`` returns, except that
    ``first`` names *a* member rather than the first occurrence. One
    unstable ``argsort`` and a boundary mask compute it.
    """
    order = np.argsort(key)
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[starts], inverse, np.diff(starts, append=len(key))


def unique_anchor_sets(
    anchors: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct anchor sets of a ``(B, q)`` anchor matrix.

    Returns ``(sets, inverse, rank)``: ``sets`` is ``(U, q)``, each row
    one distinct set with its vertices in ascending order; row ``i`` of
    ``anchors`` holds the set ``sets[inverse[i]]``, and ``rank[i, j]``
    is the position of ``anchors[i, j]`` within that sorted set. The
    anchors of one row are distinct (matching is injective), so the rank
    is a permutation of ``0..q-1`` and places each row in sorted order.

    Each sorted row is packed into one int64 key (base ``num_vertices``)
    when ``num_vertices^q`` fits, so deduplication is a 1-D
    :func:`group_keys`; otherwise it falls back to a row-wise unique.
    """
    b, q = anchors.shape
    rank = (anchors[:, None, :] < anchors[:, :, None]).sum(axis=2)
    srt = np.empty_like(anchors)
    np.put_along_axis(srt, rank, anchors, axis=1)
    if int(num_vertices) ** q < 1 << 62:
        key = np.zeros(b, dtype=np.int64)
        for j in range(q):
            key = key * num_vertices + srt[:, j]
        first, inverse, _ = group_keys(key)
        sets = srt[first]
    else:
        sets, inverse = np.unique(srt, axis=0, return_inverse=True)
    return sets, inverse.reshape(-1), rank


def _region_maps(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column maps from sorted-set region order to each row's anchor order.

    Returns ``(maps, which)``: ``maps`` is ``(P, 2^q)`` with one map per
    distinct permutation among the rows of ``rank`` (``P <= q!``), and
    row ``i`` uses ``maps[which[i]]``. A row's own region ``T`` reads
    the sorted-set region ``maps[which[i], T]`` = ``{rank[i, j] : j in T}``.
    """
    q = rank.shape[1]
    perm_id = np.zeros(len(rank), dtype=np.int64)
    for j in range(q):
        perm_id = perm_id * q + rank[:, j]
    first, which, _ = group_keys(perm_id)
    members = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1  # (2^q, q)
    maps = members @ (np.int64(1) << rank[first]).T  # (2^q, P)
    return np.ascontiguousarray(maps.T), which


def row_venns(
    graph: CSRGraph,
    set_venns: np.ndarray,
    rank: np.ndarray,
    core_matrix: np.ndarray,
    positions: Sequence[int],
) -> np.ndarray:
    """Each row's Venn diagram, rebuilt from its anchor set's diagram.

    ``set_venns[i]`` is the diagram of row ``i``'s sorted anchor set with
    only the anchors excluded (``venn_batch(graph, sets, sets)`` gathered
    through the inverse index of :func:`unique_anchor_sets`); ``rank``
    holds the rows' anchor ranks from the same call; ``core_matrix`` is
    ``(B, p)`` with the anchors at columns ``positions``. Returns a new
    ``(B, 2^q)`` matrix equal to ``venn_batch(graph, core_matrix[:,
    positions], core_matrix)``.
    """
    if (rank == np.arange(len(positions))).all():
        venns = set_venns.copy()
    else:
        maps, which = _region_maps(rank)
        venns = np.take_along_axis(set_venns, maps[which], axis=1)
    # a non-anchor core vertex c is a neighbour of exactly the anchors
    # named by its adjacency mask; venn_batch excludes it from that region
    anchor_cols = set(positions)
    rows = np.arange(len(core_matrix))
    for c in range(core_matrix.shape[1]):
        if c in anchor_cols:
            continue
        mask = np.zeros(len(core_matrix), dtype=np.int64)
        for j, a in enumerate(positions):
            hit = has_edges(graph, core_matrix[:, a], core_matrix[:, c])
            mask |= hit.astype(np.int64) << j
        sel = mask != 0
        venns[rows[sel], mask[sel]] -= 1
    return venns
