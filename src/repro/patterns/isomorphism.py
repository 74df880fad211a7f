"""Backtracking (sub)graph isomorphism for small patterns.

Exponential enumeration, kept as the brute-force oracle: tests check the
partition-refinement search of :mod:`repro.patterns.symmetry` against
it, and the VF2 baseline counts with it. No production path calls it.
VF2-style: extend a partial mapping one vertex at a time,
pruning on degree and adjacency consistency. Patterns are tiny, so no
fancy candidate ordering is needed here — the *graph*-side matcher in
``repro.core.matcher`` is the performance-critical one.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .pattern import Pattern

__all__ = ["are_isomorphic", "isomorphisms", "automorphisms_of"]


def isomorphisms(
    a: Pattern,
    b: Pattern,
    *,
    compatible: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every isomorphism ``a -> b`` as a tuple ``m`` with ``m[v]`` the
    image of ``v``. ``compatible(va, vb)`` can impose extra vertex-level
    constraints (used for decoration-preserving core automorphisms)."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return
    if sorted(a.degrees()) != sorted(b.degrees()):
        return
    n = a.n
    deg_a, deg_b = a.degrees(), b.degrees()
    mapping = [-1] * n
    used = [False] * n
    # order pattern-a vertices so each (after the first) touches a previous
    # one when possible; keeps pruning tight for connected patterns.
    order = _connect_order(a)

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(mapping)
            return
        va = order[pos]
        for vb in range(n):
            if used[vb] or deg_a[va] != deg_b[vb]:
                continue
            if compatible is not None and not compatible(va, vb):
                continue
            ok = True
            for wa in a.adj[va]:
                mb = mapping[wa]
                if mb != -1 and mb not in b.adj[vb]:
                    ok = False
                    break
            if ok:
                # also ensure non-adjacent mapped pairs stay non-adjacent
                for wa in range(n):
                    mb = mapping[wa]
                    if mb != -1 and wa not in a.adj[va] and mb in b.adj[vb]:
                        ok = False
                        break
            if not ok:
                continue
            mapping[va] = vb
            used[vb] = True
            yield from extend(pos + 1)
            mapping[va] = -1
            used[vb] = False

    yield from extend(0)


def are_isomorphic(a: Pattern, b: Pattern) -> bool:
    return next(isomorphisms(a, b), None) is not None


def automorphisms_of(
    pattern: Pattern, *, compatible: Callable[[int, int], bool] | None = None
) -> list[tuple[int, ...]]:
    """All automorphisms of ``pattern`` (exponential; small patterns only)."""
    return list(isomorphisms(pattern, pattern, compatible=compatible))


def _connect_order(pattern: Pattern) -> list[int]:
    if pattern.n == 0:
        return []
    order = [max(range(pattern.n), key=pattern.degree)]
    placed = set(order)
    while len(order) < pattern.n:
        # prefer vertices adjacent to already-placed ones, highest degree first
        candidates = [v for v in range(pattern.n) if v not in placed]
        candidates.sort(
            key=lambda v: (sum(1 for w in pattern.adj[v] if w in placed), pattern.degree(v)),
            reverse=True,
        )
        order.append(candidates[0])
        placed.add(candidates[0])
    return order
