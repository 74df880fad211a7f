"""Automorphism handling and symmetry breaking (paper §3.1).

Two distinct groups matter for Fringe-SGC:

* ``Aut(P)`` — the full pattern automorphism group. The engine divides the
  injective-homomorphism total by ``|Aut(P)|`` to obtain subgraph copies.
  For fringe-heavy patterns ``|Aut(P)|`` is astronomically large (it
  contains ``Π_t k_t!`` fringe permutations), so it is *never* enumerated;
  the plan compiler computes it structurally via the identity
  ``|Aut(P)| = inj(P, P)`` — counting the pattern in itself with the very
  same fringe formula (``repro.core.plan.CountingPlan.aut_size``).

* ``Aut_dec(core)`` — the decoration-preserving core automorphisms: the
  core-pattern automorphisms that map every anchor set onto an anchor set
  with the same fringe count. Ordered core embeddings related by such an
  automorphism contribute identical fringe counts, so the matcher can
  enumerate one representative per orbit (via the classic min-ID
  restriction scheme) and multiply by ``|Aut_dec|``.
"""

from __future__ import annotations

from .decompose import Decomposition
from .isomorphism import automorphisms_of, isomorphisms
from .pattern import Pattern

__all__ = [
    "aut_size_bruteforce",
    "decorated_core_automorphisms",
    "symmetry_restrictions",
]


def aut_size_bruteforce(pattern: Pattern) -> int:
    """|Aut(P)| by enumeration — exponential, for small test patterns only."""
    return len(automorphisms_of(pattern))


def decorated_core_automorphisms(decomp: Decomposition) -> list[tuple[int, ...]]:
    """Automorphisms of the core pattern that preserve the fringe decoration.

    Returned permutations act on core-local ids. Pre-filter candidate
    vertex pairs by full-pattern degree and by the multiset of fringe types
    anchored at each vertex, then verify anchor-set preservation exactly.
    """
    decoration = decomp.decoration()  # core-local anchor set -> count
    pattern, core = decomp.pattern, decomp.core_vertices

    # per-core-vertex profile: full degree + sorted (arity, count) incidences
    def profile(c: int) -> tuple:
        incidences = sorted(
            (len(a), decoration[a]) for a in decoration if c in a
        )
        return (pattern.degree(core[c]), tuple(incidences))

    profiles = [profile(c) for c in range(decomp.num_core)]

    def compatible(u: int, v: int) -> bool:
        return profiles[u] == profiles[v]

    out = []
    for perm in isomorphisms(decomp.core_pattern, decomp.core_pattern, compatible=compatible):
        mapped = {
            frozenset(perm[c] for c in anchors): count
            for anchors, count in decoration.items()
        }
        if mapped == decoration:
            out.append(perm)
    return out


def symmetry_restrictions(
    decomp: Decomposition,
) -> tuple[list[tuple[int, int]], int]:
    """Min-ID symmetry-breaking restrictions for the core matcher.

    Returns ``(restrictions, group_order)`` where each restriction
    ``(i, j)`` — in *matching-order positions* — requires
    ``match[i] < match[j]``. Enumerating only embeddings satisfying all
    restrictions visits exactly one member per ``Aut_dec`` orbit, so the
    matcher multiplies its total by ``group_order``.

    This is the standard stabilizer-chain construction used by GraphPi,
    Dryadic, and STMatch: walk the matching order; at the first position
    whose orbit under the remaining group is non-trivial, pin it to be the
    minimum of its orbit and descend into the stabilizer.
    """
    autos = decorated_core_automorphisms(decomp)
    group_order = len(autos)
    restrictions: list[tuple[int, int]] = []
    order = decomp.matching_order
    pos_of = {c: i for i, c in enumerate(order)}
    group = [a for a in autos if a != tuple(range(decomp.num_core))]
    for c in order:
        if not group:
            break
        orbit = {a[c] for a in group} | {c}
        if len(orbit) > 1:
            for other in orbit - {c}:
                restrictions.append((pos_of[c], pos_of[other]))
        group = [a for a in group if a[c] == c]
    return restrictions, group_order
