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
  restriction scheme) and multiply by ``|Aut_dec|``. This group is
  not enumerated either: :mod:`repro.patterns.symmetry` finds generators
  by partition refinement, and Schreier–Sims turns them into the
  stabilizer chain along the matching order.
"""

from __future__ import annotations

from .decompose import Decomposition
from .pattern import Pattern
from .symmetry import Perm, stabilizer_chain
from .symmetry import search as symmetry_search

__all__ = [
    "aut_size_bruteforce",
    "decorated_core_generators",
    "decorated_core_automorphisms",
    "symmetry_restrictions",
]


def aut_size_bruteforce(pattern: Pattern) -> int:
    """|Aut(P)| by enumeration — exponential, for small test patterns only."""
    from .isomorphism import automorphisms_of

    return len(automorphisms_of(pattern))


def decorated_core_generators(decomp: Decomposition) -> tuple[Perm, ...]:
    """Generators of ``Aut_dec(core)``, acting on core-local ids.

    The decoration becomes a coloured graph: the core pattern plus one
    vertex per fringe type, adjacent to the type's anchors and coloured by
    its fringe count (core vertices share one colour). Its automorphisms
    map anchor sets onto anchor sets with equal counts, so restricted to
    the core they are exactly the decoration-preserving ones.
    """
    decoration = decomp.decoration()  # core-local anchor set -> count
    p = decomp.num_core
    neighbors = [set(decomp.core_pattern.adj[c]) for c in range(p)]
    colors: list[tuple[int, ...]] = [(0,)] * p
    for t, (anchors, count) in enumerate(decoration.items()):
        neighbors.append(set(anchors))
        colors.append((1, count))
        for c in anchors:
            neighbors[c].add(p + t)
    generators = symmetry_search(neighbors, colors).generators
    return tuple(g[:p] for g in generators)


def _decorated_chain(decomp: Decomposition) -> list[dict[int, Perm]]:
    """Stabilizer chain of ``Aut_dec`` along the matching order."""
    return stabilizer_chain(
        decorated_core_generators(decomp), decomp.matching_order, decomp.num_core
    )


def decorated_core_automorphisms(decomp: Decomposition) -> list[tuple[int, ...]]:
    """Every element of ``Aut_dec(core)``, expanded from its stabilizer
    chain (each element is one product of transversal elements).

    ``|Aut_dec|`` elements — for inspection and tests; the compile path
    (:func:`symmetry_restrictions`) needs only the chain's orbits.
    """
    elements = [tuple(range(decomp.num_core))]
    for level in reversed(_decorated_chain(decomp)):
        elements = [tuple(u[x] for x in g) for g in elements for u in level.values()]
    return elements


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
    Dryadic, and STMatch (Grochow & Kellis, RECOMB 2007): walk the
    matching order; pin each base point to be the minimum of its orbit
    under the pointwise stabilizer of the earlier ones. The chain comes
    from Schreier–Sims over the search's generators, and ``group_order``
    is the product of its orbit lengths — no group element is listed.
    """
    order = decomp.matching_order
    pos_of = {c: i for i, c in enumerate(order)}
    restrictions: list[tuple[int, int]] = []
    group_order = 1
    for c, level in zip(order, _decorated_chain(decomp)):
        group_order *= len(level)
        for other in sorted(level.keys() - {c}):
            restrictions.append((pos_of[c], pos_of[other]))
    return restrictions, group_order
