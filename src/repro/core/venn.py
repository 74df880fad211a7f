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
core. Where every core vertex is an anchor and the symmetry restriction
orders them, each row gets its own :func:`venn_sets` diagram. Otherwise
core embeddings repeat the same anchor *set* — in another order, or
with different non-anchor core vertices — so
:func:`group_anchor_rows` groups a block of embeddings once, by sorted
anchor set, anchor order and the bits the caller names (the adjacency
of non-anchor core vertices to anchors), and one diagram is computed
per distinct set, excluding only the anchors. Each group's diagram is
its set's with the region bits permuted into the group's anchor order,
minus one at the region each non-anchor core vertex's adjacency names
(:func:`repro.core.backends.venn_poly_sums`).

The per-set diagrams come from :func:`venn_sets`, which never gathers
whole neighbourhoods. Region sizes follow from intersection sizes
``I[T] = |∩_{j in T} N(a_j)|`` by the superset Möbius inversion

    venn[S] = Σ_{T ⊇ S} (−1)^{|T|−|S|} · I[T]

(the paper's §3.6 "search later anchors, then correct", done
algebraically): ``|T| = 1`` is a degree, ``|T| = 2`` one entry of
``A·A``, and ``|T| >= 3`` the AND of the members' rows of the graph's
cached :func:`~repro.core.frontier.adjacency_bitmap` (each row whole
``uint64`` words), counted with ``np.bitwise_count``. An in-place
``O(q·2^q)`` transform inverts the sizes; each anchor then leaves the
region its adjacency to the other anchors names.

``A·A`` lives in a :class:`PairIndex`: its strict upper triangle as
sorted pair keys ``u·n + v`` (``int32`` while ``n² < 2^31``, else
``int64``) and ``int32`` common-neighbour counts, 8 B per nonzero on
``int32`` keys; a lookup is one ``searchsorted``.
:func:`build_pair_index` counts the 2-paths ``u–w–v`` (``v > u``) in
row blocks of about :data:`INDEX_BLOCK_PATHS` 2-paths with NumPy alone,
and :func:`pair_index` caches the result per graph object in a
:class:`~repro.core.frontier.GraphCache` (never on the graph, so it
never enters a pickled graph; pool workers build their own on their
attached graph). A graph gets an index only when the bound
``Σ_w C(deg w, 2) · 8`` bytes fits :data:`INDEX_BUDGET_BYTES` (64 MiB)
and its ids fit ``int32``; otherwise, or for ``q >= 3`` on a graph
without a bitmap (edgeless, or over its budget), :func:`venn_sets`
falls back to :func:`venn_batch`, which also stays the differential
oracle in the tests. Builds record a ``venn.index_build`` span and the
``repro_venn_index_builds_total`` / ``repro_venn_index_bytes`` metrics;
fallbacks count into ``repro_venn_index_fallbacks_total``.

A pair that is an edge needs no index: :func:`slot_common_neighbors`
keeps ``|N(u) ∩ N(v)|`` at every CSR slot of ``v`` in ``u``'s row
(``A ⊙ A²`` at the positions of ``A``, ``int32``), built with
:func:`~repro.core.frontier.has_edges` alone and cached per graph. The
frontier backend hands those counts to :func:`venn_sets` for its pivot
edges, and the edge-core closed form reads them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .frontier import GraphCache, _budget_spans, adjacency_bitmap, has_edges

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
    "build_slot_common_neighbors",
    "slot_common_neighbors",
    "group_keys",
    "group_anchor_rows",
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
# (a key plus an int32 value per upper-triangle nonzero) must fit, else
# venn_sets falls back to venn_batch for that graph.
INDEX_BUDGET_BYTES = 64 << 20
# 2-paths gathered per build block; bounds the build's transient memory
INDEX_BLOCK_PATHS = 1 << 16
# edge tests per block of the per-slot count build: small enough that a
# block's transient arrays stay in cache
SLOT_BLOCK_TESTS = 1 << 14


@dataclass(frozen=True)
class PairIndex:
    """The strict upper triangle of ``A·A`` as sorted pair keys.

    ``keys`` lists (ascending) ``u·n + v`` for every pair ``u < v`` that
    shares a neighbour, and ``vals`` the number of common neighbours
    ``|N(u) ∩ N(v)|``. ``keys`` is ``int32`` while ``n² < 2^31`` (8 B
    per nonzero with its count) and ``int64`` beyond (12 B).
    """

    num_vertices: int
    keys: np.ndarray  # (nnz,) int32 or int64
    vals: np.ndarray  # (nnz,) int32

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.vals.nbytes

    def lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``|N(u[i]) ∩ N(v[i])|`` for element-wise pairs with ``u < v``."""
        if len(self.keys) == 0:
            return np.zeros(len(u), dtype=np.int64)
        # queries in the keys' dtype: numpy never casts the whole key array
        query = (u * self.num_vertices + v).astype(self.keys.dtype, copy=False)
        at = np.minimum(np.searchsorted(self.keys, query), len(self.keys) - 1)
        return np.where(self.keys[at] == query, self.vals[at], 0).astype(np.int64)


def _key_dtype(n: int) -> type:
    return np.int32 if n * n < 1 << 31 else np.int64


def build_pair_index(graph: CSRGraph, block_paths: int = INDEX_BLOCK_PATHS) -> PairIndex:
    """Count the 2-paths ``u–w–v`` with ``u < v`` into a :class:`PairIndex`.

    Rows ``u`` are processed in contiguous blocks of about
    ``block_paths`` 2-paths. For an edge ``u → w`` the ``v > u`` in
    ``N(w)`` are the entries after the reverse edge ``w → u``, so each
    block is one repeat+offset gather and one ``np.unique`` count of the
    keys ``u·n + v``; the blocks' keys ascend from block to block, so
    their outputs concatenate into the sorted index.
    """
    n = graph.num_vertices
    rowptr, colidx = graph.rowptr, graph.colidx
    dtype = _key_dtype(n)
    # rev[e]: position of the reverse of edge e. CSR order is (u, w);
    # a stable sort by w gives (w, u), the CSR order of the reverses.
    rev = np.empty(len(colidx), dtype=np.int64)
    rev[np.argsort(colidx, kind="stable")] = np.arange(len(colidx), dtype=np.int64)
    after = rowptr[colidx + 1] - rev - 1  # v > u in N(w), per edge u → w
    row_cum = np.concatenate(([0], np.cumsum(after)))[rowptr]  # (n + 1,)
    total = int(row_cum[-1])
    cuts = np.searchsorted(row_cum, np.arange(block_paths, total, block_paths))
    cuts = np.unique(np.concatenate(([0], cuts, [n])))
    keys, vals = [np.empty(0, dtype=dtype)], [np.empty(0, dtype=np.int32)]
    for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        e0, e1 = int(rowptr[r0]), int(rowptr[r1])
        lens = after[e0:e1]
        m = int(lens.sum())
        if m == 0:
            continue
        src = np.repeat(np.arange(r0, r1, dtype=np.int64), graph.degrees[r0:r1])
        reps = np.repeat(np.arange(e1 - e0, dtype=np.int64), lens)
        offsets = np.arange(m, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
        block, counts = np.unique(
            src[reps] * n + colidx[rev[e0:e1][reps] + 1 + offsets], return_counts=True
        )
        keys.append(block.astype(dtype))
        vals.append(counts.astype(np.int32))
    return PairIndex(n, np.concatenate(keys), np.concatenate(vals))


_INDEXES: GraphCache[PairIndex | None] = GraphCache()


def _index_within_budget(graph: CSRGraph) -> PairIndex | None:
    deg = graph.degrees.astype(np.float64)
    bound = float((deg * (deg - 1)).sum()) / 2 * 8
    if bound > INDEX_BUDGET_BYTES or graph.num_vertices >= 1 << 31:
        return None
    with obs.span("venn.index_build", n=graph.num_vertices) as attrs:
        index = build_pair_index(graph)
        if attrs is not None:
            attrs.update(nnz=len(index.keys), bytes=index.nbytes)
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


def build_slot_common_neighbors(
    graph: CSRGraph, block_tests: int = SLOT_BLOCK_TESTS
) -> np.ndarray:
    """``|N(u) ∩ N(colidx[s])|`` for every CSR slot ``s`` of every row
    ``u``: the edge-masked ``A ⊙ A²`` at the positions of ``A``, as
    ``int32`` (4 B per slot, 8 B per undirected edge).

    Each edge ``u < v`` scans the adjacency list of its endpoint of
    smaller degree and tests every entry against the other endpoint with
    :func:`~repro.core.frontier.has_edges` (the adjacency bitmap, or
    bisection past its budget), in blocks of about ``block_tests``
    tests. The pair index is never read. The edge's reverse slot, in
    ``v``'s row, gets the same count.
    """
    n, rowptr, colidx, deg = graph.num_vertices, graph.rowptr, graph.colidx, graph.degrees
    out = np.zeros(len(colidx), dtype=np.int32)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    upper = np.flatnonzero(src < colidx)
    if len(upper) == 0:
        return out
    u, v = src[upper], colidx[upper]
    small = np.where(deg[u] <= deg[v], u, v)
    other = u + v - small
    lengths = deg[small]
    counts = np.empty(len(upper), dtype=np.int32)
    for e0, e1 in _budget_spans(lengths, block_tests):
        lens = lengths[e0:e1]  # every edge scans at least its own other end
        total = int(lens.sum())
        edge = np.repeat(np.arange(e0, e1, dtype=np.int64), lens)
        first = np.cumsum(lens) - lens
        offsets = np.arange(total, dtype=np.int64) - np.repeat(first, lens)
        hit = has_edges(graph, other[edge], colidx[rowptr[small[edge]] + offsets])
        counts[e0:e1] = np.add.reduceat(hit.astype(np.int32), first)
    out[upper] = counts
    # lower slots in CSR order are (v, u) by v then u; a stable sort by u
    # lines them up with the upper slots' (u, v)
    lower = np.flatnonzero(src > colidx)
    out[lower[np.argsort(colidx[lower], kind="stable")]] = counts
    return out


def _build_slot_common(graph: CSRGraph) -> np.ndarray:
    with obs.span("venn.slot_build", n=graph.num_vertices, slots=len(graph.colidx)):
        counts = build_slot_common_neighbors(graph)
    counts.setflags(write=False)
    return counts


_SLOT_COMMON: GraphCache[np.ndarray] = GraphCache()


def slot_common_neighbors(graph: CSRGraph) -> np.ndarray:
    """The graph's cached :func:`build_slot_common_neighbors`, built on
    first use: read-only, one ``int32`` per slot of ``colidx``.

    The frontier backend reads a pivot edge's common neighbours here at
    the slot the matcher gathered it from, and the edge-core closed form
    reads the upper-triangle slots (``u < v``, the order of
    :meth:`~repro.graph.csr.CSRGraph.edge_array`). A
    :class:`~repro.core.frontier.GraphCache` keeps it per graph object
    and out of pickles.
    """
    return _SLOT_COMMON.get(graph, _build_slot_common)


def venn_sets(
    graph: CSRGraph,
    sets: np.ndarray,
    common: Mapping[tuple[int, int], np.ndarray] | None = None,
    adjacent: Collection[tuple[int, int]] = (),
) -> np.ndarray:
    """``venn_batch(graph, sets, sets)`` from intersection sizes.

    ``sets`` is ``(U, q)``, each row ``q`` distinct vertices in any
    order. Region sizes follow from the sizes of the intersections
    ``I[T] = |∩_{j in T} N(sets[:, j])|`` by a superset Möbius
    inversion, ``venn[S] = Σ_{T ⊇ S} (−1)^{|T|−|S|} I[T]``: degrees for
    ``|T| = 1``, the cached :func:`pair_index` for ``|T| = 2``, and for
    ``|T| >= 3`` the AND of the members' rows of the
    :func:`~repro.core.frontier.adjacency_bitmap`, popcounted. Each
    anchor then leaves the one region its adjacency to the other anchors
    names. Falls back to :func:`venn_batch` when the graph has no index
    (and some pair is not in ``common``), or, for ``q >= 3``, no bitmap.

    ``common`` maps column pairs ``(i, j)``, ``i < j``, to their
    common-neighbour counts when the caller already has them (read from
    :func:`slot_common_neighbors`), and ``adjacent`` lists the column
    pairs that are edges in every row; neither is looked up again.
    """
    u, q = sets.shape
    if u == 0 or q == 0:
        return np.zeros((u, 1 << q), dtype=np.int64)
    common = common or {}
    lookups = q * (q - 1) // 2 > len(common)
    index = pair_index(graph) if lookups else None
    bitmap = adjacency_bitmap(graph) if q >= 3 else None
    if (lookups and index is None) or (q >= 3 and bitmap is None):
        obs.counter_add("repro_venn_index_fallbacks_total")
        return venn_batch(graph, sets, sets)
    # region-major: one contiguous row of u counts per region
    venn = np.zeros((1 << q, u), dtype=np.int64)
    adj = np.zeros((q, u), dtype=np.int64)  # anchors adjacent to anchor j
    for j in range(q):
        venn[1 << j] = graph.degrees[sets[:, j]]
        for i in range(j):
            a, b = sets[:, i], sets[:, j]
            known = common.get((i, j))
            if known is None:
                known = index.lookup(np.minimum(a, b), np.maximum(a, b))
            venn[(1 << i) | (1 << j)] = known
            hit = 1 if (i, j) in adjacent else has_edges(graph, a, b).astype(np.int64)
            adj[i] |= hit << j
            adj[j] |= hit << i
    if q >= 3:
        words = bitmap.view(np.uint64).reshape(graph.num_vertices, -1)
        nbrs = [words[sets[:, j]] for j in range(q)]
        both = np.empty_like(nbrs[0])
        for t in range(7, 1 << q):
            members = [j for j in range(q) if t >> j & 1]
            if len(members) >= 3:
                np.bitwise_and(nbrs[members[0]], nbrs[members[1]], out=both)
                for j in members[2:]:
                    both &= nbrs[j]
                venn[t] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    # superset Möbius transform, one bit at a time, in place
    for j in range(q):
        for t in range(1 << q):
            if not t >> j & 1:
                venn[t] -= venn[t | 1 << j]
    # an anchor is a neighbour of exactly the anchors its mask names (an
    # anchor adjacent to none lands in region 0, cleared below)
    flat, rows = venn.reshape(-1), np.arange(u)
    for j in range(q):
        flat[adj[j] * u + rows] -= 1
    venn[0] = 0
    return venn.T


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


def group_anchor_rows(
    anchors: Sequence[np.ndarray],
    free: np.ndarray | None,
    free_width: int,
    num_vertices: int,
    ordered: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray | None, np.ndarray]:
    """Group the rows of ``q`` anchor columns that share their anchor
    set, their anchor order and their ``free`` bits.

    ``anchors`` holds the ``q`` columns, each ``(B,)`` (a ``(q, B)``
    array, or the column views of a frontier block: nothing is copied
    into a ``(B, q)`` matrix). ``free[i]`` holds ``free_width`` bits the
    caller needs equal within a group (the adjacency of non-anchor core
    vertices to anchors), or is ``None`` when there are none
    (``free_width`` 0). Rows of one group have equal anchors in equal
    order, so they share one Venn diagram. Returns ``(sets, set_of,
    rank, free, counts)`` over the ``G`` groups, ordered by set:
    ``sets`` is ``(U, q)``, column-major, each row one distinct set in
    ascending order (but see ``ordered``), and group ``g`` holds the set
    ``sets[set_of[g]]``; ``rank[g, j]`` is the position of the group's
    ``j``-th anchor within that set, so ``np.take_along_axis(
    sets[set_of], rank, axis=1)`` are the groups' anchor rows;
    ``free[g]`` are the group's bits (``None`` without free bits) and
    ``counts[g]`` its size.

    With ``ordered`` the caller promises that rows with one anchor set
    list it in one order (the symmetry restriction fixes the anchors'
    order): the rows are grouped by their anchors as they stand, each
    set is kept in that order and every rank is the identity. Without
    free bits the groups are then the sets themselves, and ``set_of``
    is ``None``: group ``g`` holds set ``g``.

    Each row's set (sorted, unless ``ordered``), anchor ranks and free
    bits are packed into one int64 key when ``num_vertices^q · q^q ·
    2^free_width`` (no ``q^q`` when ``ordered``) fits 62 bits; the key
    is built and sorted in place and the groups are decoded from the
    distinct keys. Otherwise a row-wise unique groups the rows.
    """
    columns = list(anchors)
    q, b, n = len(columns), len(columns[0]), int(num_vertices)
    if ordered:
        ranks = None
        perms = 1
    else:
        ranks = [np.zeros(b, dtype=np.int64) for _ in range(q)]
        for k in range(q):
            for j in range(k):
                below = columns[j] < columns[k]
                ranks[k] += below
                below ^= True
                ranks[j] += below
        perms = q**q
    if n**q * perms << free_width < 1 << 62:
        if ordered:  # the anchors are the set's digits (base n) in order
            key = columns[0].astype(np.int64)
            for col in columns[1:]:
                key *= n
                key += col
        else:  # anchor j is digit rank[j] of the set's key
            digit = n ** np.arange(q - 1, -1, -1, dtype=np.int64)
            key = np.zeros(b, dtype=np.int64)
            for col, rank in zip(columns, ranks):
                term = np.take(digit, rank)
                term *= col
                key += term
            for rank in ranks:
                key *= q
                key += rank
        if free is not None:
            key <<= free_width
            key |= free
        key.sort()
        new = np.empty(b, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        counts = np.diff(starts, append=b)
        key = np.take(key, starts)
        if free is not None:
            free = key & ((1 << free_width) - 1)
            key >>= free_width
        if ordered:
            rank = np.broadcast_to(np.arange(q, dtype=np.int64), (len(key), q))
        else:
            key, perm = np.divmod(key, perms)
            rank = (perm[:, None] // q ** np.arange(q - 1, -1, -1)) % q
        set_of = None
        if free is not None or not ordered:
            new = np.empty(len(key), dtype=bool)
            new[:1] = True
            np.not_equal(key[1:], key[:-1], out=new[1:])
            set_of = np.cumsum(new) - 1
            key = key[new]
        # decode the distinct set keys column by column, last digit first
        sets = np.empty((q, len(key)), dtype=np.int64)
        for j in range(q - 1, -1, -1):
            np.divmod(key, n, out=(key, sets[j]))
        return sets.T, set_of, rank, free, counts
    matrix = np.stack(columns, axis=1)
    if ranks is None:
        rank = np.broadcast_to(np.arange(q, dtype=np.int64), (b, q))
    else:
        rank = np.stack(ranks, axis=1)
        srt = np.empty_like(matrix)
        np.put_along_axis(srt, rank, matrix, axis=1)
        matrix = srt
    bits = np.zeros(b, dtype=np.int64) if free is None else free
    rows, counts = np.unique(np.column_stack([matrix, rank, bits]), axis=0, return_counts=True)
    group_sets, rank = rows[:, :q], rows[:, q : 2 * q]
    new = np.ones(len(rows), dtype=bool)
    np.any(group_sets[1:] != group_sets[:-1], axis=1, out=new[1:])
    set_of = None if free is None and ordered else np.cumsum(new) - 1
    sets = np.asfortranarray(group_sets[new])
    return sets, set_of, rank, None if free is None else rows[:, 2 * q], counts
