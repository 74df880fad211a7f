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
or with different non-anchor core vertices — so
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..graph.csr import CSRGraph
from .frontier import GraphCache, adjacency_bitmap, has_edges

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


def venn_sets(graph: CSRGraph, sets: np.ndarray) -> np.ndarray:
    """``venn_batch(graph, sets, sets)`` from intersection sizes.

    ``sets`` is ``(U, q)``, each row ``q`` distinct vertices in any
    order. Region sizes follow from the sizes of the intersections
    ``I[T] = |∩_{j in T} N(sets[:, j])|`` by a superset Möbius
    inversion, ``venn[S] = Σ_{T ⊇ S} (−1)^{|T|−|S|} I[T]``: degrees for
    ``|T| = 1``, the cached :func:`pair_index` for ``|T| = 2``, and for
    ``|T| >= 3`` the AND of the members' rows of the
    :func:`~repro.core.frontier.adjacency_bitmap`, popcounted. Each
    anchor then leaves the one region its adjacency to the other anchors
    names. Falls back to :func:`venn_batch` when the graph has no index,
    or, for ``q >= 3``, no bitmap.
    """
    u, q = sets.shape
    if u == 0 or q == 0:
        return np.zeros((u, 1 << q), dtype=np.int64)
    index = pair_index(graph) if q >= 2 else None
    bitmap = adjacency_bitmap(graph) if q >= 3 else None
    if (q >= 2 and index is None) or (q >= 3 and bitmap is None):
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
                venn[:, t] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
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


def group_anchor_rows(
    anchors: np.ndarray, free: np.ndarray, free_width: int, num_vertices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of a ``(B, q)`` anchor matrix that share their
    anchor set, their anchor order and their ``free`` bits.

    ``free[i]`` holds ``free_width`` bits the caller needs equal within a
    group (the adjacency of non-anchor core vertices to anchors). Rows of
    one group have equal anchors in equal order, so they share one Venn
    diagram. Returns ``(sets, set_of, rank, free, counts)`` over the
    ``G`` groups, ordered by sorted anchor set: ``sets`` is ``(U, q)``,
    each row one distinct set in ascending order, and group ``g`` holds
    the set ``sets[set_of[g]]``; ``rank[g, j]`` is the position of the
    group's ``j``-th anchor within that set, so ``np.take_along_axis(
    sets[set_of], rank, axis=1)`` are the groups' anchor rows;
    ``free[g]`` are the group's bits and ``counts[g]`` its size.

    Each row's sorted set, anchor ranks and free bits are packed into
    one int64 key when ``num_vertices^q · q^q · 2^free_width`` fits 62
    bits; one sort groups the keys and the groups are decoded from the
    distinct keys. Otherwise a row-wise unique groups the rows.
    """
    b, q = anchors.shape
    rank = np.zeros((b, q), dtype=np.int64)
    for k in range(q):
        for j in range(k):
            below = anchors[:, j] < anchors[:, k]
            rank[:, k] += below
            rank[:, j] += ~below
    perms = q**q
    if int(num_vertices) ** q * perms << free_width < 1 << 62:
        # anchor j is digit rank[j] (base n) of the sorted set's key
        digit = int(num_vertices) ** np.arange(q - 1, -1, -1, dtype=np.int64)
        key = np.zeros(b, dtype=np.int64)
        for j in range(q):
            key += anchors[:, j] * digit[rank[:, j]]
        for j in range(q):
            key = key * q + rank[:, j]
        key = np.sort((key << free_width) | free)
        new = np.empty(b, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        counts = np.empty(len(starts), dtype=np.int64)
        counts[:-1] = starts[1:] - starts[:-1]
        counts[-1:] = b - starts[-1:]
        key = key[starts]
        free = key & ((1 << free_width) - 1)
        set_key, perm = np.divmod(key >> free_width, perms)
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(set_key[1:], set_key[:-1], out=new[1:])
        rank = (perm[:, None] // q ** np.arange(q - 1, -1, -1)) % q
        sets = (set_key[new][:, None] // digit) % num_vertices
    else:
        srt = np.empty_like(anchors)
        np.put_along_axis(srt, rank, anchors, axis=1)
        rows, counts = np.unique(
            np.column_stack([srt, rank, free]), axis=0, return_counts=True
        )
        group_sets, rank, free = rows[:, :q], rows[:, q : 2 * q], rows[:, 2 * q]
        new = np.ones(len(rows), dtype=bool)
        np.any(group_sets[1:] != group_sets[:-1], axis=1, out=new[1:])
        sets = group_sets[new]
    return sets, np.cumsum(new) - 1, rank, free, counts
