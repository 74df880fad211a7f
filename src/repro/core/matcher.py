"""Stack-based DFS matcher for the pattern core (paper §3.5–3.6).

The matcher enumerates *ordered core embeddings*: injective maps from the
core pattern into the graph that preserve core edges. It follows the
matching order computed by the decomposition (most constrained first),
filters candidates by full-pattern degree, checks adjacency against all
earlier matched positions with binary search, and — optionally — applies
min-ID symmetry-breaking restrictions so each ``Aut_dec`` orbit is visited
once (the caller multiplies by the group order).

Like STMatch, memory use is fixed: one stack of candidate iterators per
search, never a worklist of partial embeddings. ``match_cores`` is a
generator, so the engine streams matches into the Venn/fc stage without
materializing anything.

:mod:`repro.core.frontier` is this matcher's vectorized sibling: it
enumerates the *same* symmetry-reduced embedding set (same plan, same
constraints), less the embeddings whose pivot edges miss the plan's
support bound (``CorePlan.min_common``; they score 0), but
level-synchronously over a 2-D frontier array instead
of one tuple at a time — trading the fixed memory bound for bulk NumPy
throughput, with ``max_rows`` restoring a configurable bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition

__all__ = ["CorePlan", "build_plan", "match_cores", "count_core_matches"]


@dataclass(frozen=True)
class CorePlan:
    """Pattern-side precomputation for the matcher (done once per pattern).

    All arrays are indexed by matching-order *position*:

    * ``min_degree[i]`` — full-pattern degree of the core vertex at
      position ``i`` (candidates must have at least this graph degree);
    * ``back_edges[i]`` — earlier positions the vertex must be adjacent to;
    * ``pivot[i]`` — which back edge supplies the candidate list (the
      matcher scans the pivot's adjacency and tests the rest): the
      tightest symmetry bound among the back edges when there is one —
      a back edge in ``less_than[i]`` that the transitive ``less_than``
      order places below no other such back edge, so the frontier
      scans only the pivot's neighbours above it — else the earliest
      back edge; ``-1`` at position 0;
    * ``min_common[i]`` — full-pattern vertices adjacent to both position
      ``i``'s core vertex and its pivot's (``0`` at position 0): a core
      embedding whose pivot edge has fewer common graph neighbours
      places no full pattern, so every fringe count on it is 0. The
      vectorized routes drop such candidates; :func:`match_cores`, the
      oracle, keeps them;
    * ``less_than[i]`` — earlier positions whose match must be *greater*
      than position i's match (symmetry breaking: match[j] < match[i]
      for each j in less_than[i]).
    """

    decomp: Decomposition
    order: tuple[int, ...]
    min_degree: tuple[int, ...]
    back_edges: tuple[tuple[int, ...], ...]
    pivot: tuple[int, ...]
    min_common: tuple[int, ...]
    less_than: tuple[tuple[int, ...], ...]
    group_order: int


def build_plan(decomp: Decomposition, *, symmetry_breaking: bool = True) -> CorePlan:
    from ..patterns.automorphisms import symmetry_restrictions

    order = decomp.matching_order
    core_pat = decomp.core_pattern
    pattern = decomp.pattern
    pos_of = {c: i for i, c in enumerate(order)}
    p = len(order)
    min_degree = tuple(pattern.degree(decomp.core_vertices[c]) for c in order)
    back_edges = tuple(
        tuple(sorted(pos_of[w] for w in core_pat.adj[order[i]] if pos_of[w] < i))
        for i in range(p)
    )
    if symmetry_breaking:
        restrictions, group_order = symmetry_restrictions(decomp)
    else:
        restrictions, group_order = [], 1
    lt: list[list[int]] = [[] for _ in range(p)]
    for i, j in restrictions:  # require match[i] < match[j]
        lt[j].append(i)
    less_than = tuple(tuple(sorted(v)) for v in lt)
    pivot = _pivots(back_edges, less_than)
    vertex = [decomp.core_vertices[c] for c in order]
    min_common = tuple(
        len(pattern.adj[vertex[i]] & pattern.adj[vertex[piv]]) if piv >= 0 else 0
        for i, piv in enumerate(pivot)
    )
    return CorePlan(
        decomp=decomp,
        order=order,
        min_degree=min_degree,
        back_edges=back_edges,
        pivot=pivot,
        min_common=min_common,
        less_than=less_than,
        group_order=group_order,
    )


def _pivots(
    back_edges: tuple[tuple[int, ...], ...], less_than: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """Each position's pivot: its tightest bounding back edge, else its
    earliest back edge (``-1`` at position 0, which scans all vertices).

    ``below[j]`` holds the positions whose match the transitive
    ``less_than`` order puts below position ``j``'s; a bounding back edge
    below another one is the looser bound of the two.
    """
    below: list[set[int]] = []
    pivot = []
    for be, lts in zip(back_edges, less_than):
        below.append(set().union(*({j} | below[j] for j in lts)))
        bounds = [b for b in be if b in lts]
        tight = [b for b in bounds if not any(b in below[c] for c in bounds)]
        pivot.append(tight[0] if tight else be[0] if be else -1)
    return tuple(pivot)


def match_cores(
    graph: CSRGraph,
    plan: CorePlan,
    *,
    start_vertices: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every (symmetry-reduced) ordered core embedding.

    The yielded tuple is indexed by matching-order position: entry ``i``
    is the graph vertex matched to core vertex ``plan.order[i]``.
    ``start_vertices`` restricts position-0 candidates — the unit of work
    distribution for the parallel layers (each worker takes a slice).
    """
    p = len(plan.order)
    rowptr, colidx = graph.rowptr, graph.colidx
    degrees = graph.degrees

    if start_vertices is None:
        roots = np.nonzero(degrees >= plan.min_degree[0])[0]
    else:
        roots = np.asarray(
            [v for v in start_vertices if degrees[v] >= plan.min_degree[0]],
            dtype=np.int64,
        )

    if p == 1:
        for v in roots.tolist():
            yield (v,)
        return

    match = [0] * p
    min_degree = plan.min_degree
    back_edges = plan.back_edges
    pivot = plan.pivot
    less_than = plan.less_than

    def adjacency(v: int) -> np.ndarray:
        return colidx[rowptr[v] : rowptr[v + 1]]

    def has_edge(u: int, w: int) -> bool:
        adj = adjacency(u)
        j = int(np.searchsorted(adj, w))
        return j < len(adj) and adj[j] == w

    # Explicit DFS over matching positions, one candidate iterator per level.
    iters: list[Iterator[int] | None] = [None] * p

    def candidates(i: int) -> Iterator[int]:
        cand = adjacency(match[pivot[i]])
        md = min_degree[i]
        rest = [b for b in back_edges[i] if b != pivot[i]]
        lts = less_than[i]
        earlier = match[:i]
        for v in cand.tolist():
            if degrees[v] < md:
                continue
            if v in earlier:
                continue
            ok = True
            for j in lts:
                if match[j] >= v:
                    ok = False
                    break
            if ok:
                for b in rest:
                    if not has_edge(match[b], v):
                        ok = False
                        break
            if ok:
                yield v

    for root in roots.tolist():
        if less_than[0]:  # cannot happen (position 0 has no earlier), safety
            raise AssertionError("restriction on position 0")
        match[0] = int(root)
        level = 1
        iters[1] = candidates(1)
        while level >= 1:
            nxt = next(iters[level], None)
            if nxt is None:
                level -= 1
                continue
            match[level] = nxt
            if level == p - 1:
                yield tuple(match)
            else:
                level += 1
                iters[level] = candidates(level)
    return


def count_core_matches(graph: CSRGraph, plan: CorePlan) -> int:
    """Number of symmetry-reduced core embeddings (for stats/ablations)."""
    return sum(1 for _ in match_cores(graph, plan))
