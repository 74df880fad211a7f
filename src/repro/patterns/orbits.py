"""Vertex orbits of a pattern under its automorphism group.

Orbit structure explains the fractional core-mass semantics of the
listing mode (two core placements related by an automorphism share one
copy's mass) and drives orbit-aware graphlet degrees: two pattern
vertices in the same orbit are indistinguishable roles ("leaf of a star"),
different orbits are distinct roles ("apex vs tail of a paw").

Orbits come from the generators of the pattern's cached symmetry search
(:attr:`Pattern.symmetry`); the group itself is never listed.
"""

from __future__ import annotations

from .pattern import Pattern

__all__ = ["vertex_orbits", "orbit_of", "num_orbits", "edge_orbits"]


def vertex_orbits(pattern: Pattern) -> list[frozenset[int]]:
    """Partition of the vertices into automorphism orbits (sorted by
    smallest member)."""
    return list(pattern.symmetry.orbits)


def orbit_of(pattern: Pattern, v: int) -> frozenset[int]:
    """The orbit containing vertex ``v``."""
    if not 0 <= v < pattern.n:
        raise ValueError(f"vertex {v} out of range")
    for orbit in vertex_orbits(pattern):
        if v in orbit:
            return orbit
    raise AssertionError("orbits must cover every vertex")


def num_orbits(pattern: Pattern) -> int:
    return len(vertex_orbits(pattern))


def edge_orbits(pattern: Pattern) -> list[frozenset[tuple[int, int]]]:
    """Partition of the edges into automorphism orbits (the closure of
    each edge under the generators), in edge order of first member."""
    generators = pattern.symmetry.generators
    seen: set[tuple[int, int]] = set()
    orbits: list[frozenset[tuple[int, int]]] = []
    for edge in pattern.edges():
        if edge in seen:
            continue
        orbit = {edge}
        frontier = [edge]
        while frontier:
            u, v = frontier.pop()
            for g in generators:
                image = (min(g[u], g[v]), max(g[u], g[v]))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen.update(orbit)
        orbits.append(frozenset(orbit))
    return orbits
