"""The pattern (search subgraph) type.

Patterns are tiny (a dozen-ish vertices), so the representation favours
clarity and hashability over raw speed: a tuple of frozen neighbour sets.
Pattern-level precomputation (decomposition, automorphisms, matching
order) is amortized over the whole graph search (paper §3.4). The
canonical key is not: the plan cache and the serve result cache compute
it on every request, so it comes from a polynomial-in-practice
partition-refinement search, cached on the (immutable) pattern object.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .symmetry import Symmetry, search

__all__ = ["Pattern"]


class Pattern:
    """An undirected, simple, connected search pattern.

    Vertices are ``0..n-1``. Construct via :meth:`from_edges` or the
    builders in :mod:`repro.patterns.catalog`.
    """

    __slots__ = ("n", "adj", "__dict__")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...]):
        self.n = n
        self.adj = adj

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None) -> "Pattern":
        edge_list = [(int(u), int(v)) for u, v in edges]
        max_id = max((max(u, v) for u, v in edge_list), default=-1)
        size = max_id + 1 if n is None else int(n)
        if n is not None and max_id >= n:
            raise ValueError("edge endpoint exceeds declared vertex count")
        sets: list[set[int]] = [set() for _ in range(size)]
        for u, v in edge_list:
            if u == v:
                raise ValueError(f"self loop on vertex {u}")
            if u < 0 or v < 0:
                raise ValueError("negative vertex id")
            sets[u].add(v)
            sets[v].add(u)
        return cls(size, tuple(frozenset(s) for s in sets))

    @classmethod
    def single_vertex(cls) -> "Pattern":
        return cls(1, (frozenset(),))

    @classmethod
    def from_networkx(cls, nxg) -> "Pattern":
        import networkx as nx

        nxg = nx.convert_node_labels_to_integers(nxg)
        return cls.from_edges(nxg.edges(), n=nxg.number_of_nodes())

    def to_networkx(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(self.n))
        nxg.add_edges_from(self.edges())
        return nxg

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degrees(self) -> list[int]:
        return [len(s) for s in self.adj]

    @cached_property
    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in self.adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def relabel(self, mapping: Sequence[int]) -> "Pattern":
        """Return the pattern with vertex ``v`` renamed ``mapping[v]``."""
        if sorted(mapping) != list(range(self.n)):
            raise ValueError("mapping must be a permutation of 0..n-1")
        return Pattern.from_edges(
            [(mapping[u], mapping[v]) for u, v in self.edges()], n=self.n
        )

    def induced(self, vertices: Sequence[int]) -> "Pattern":
        """Induced subpattern on ``vertices``, relabeled by their sorted order."""
        verts = sorted(set(vertices))
        index = {v: i for i, v in enumerate(verts)}
        edges = [
            (index[u], index[v]) for u, v in self.edges() if u in index and v in index
        ]
        return Pattern.from_edges(edges, n=len(verts))

    def with_fringe(self, anchors: Iterable[int], count: int = 1) -> "Pattern":
        """Attach ``count`` new fringe vertices, each adjacent to exactly
        ``anchors``. This is the §6.2 'systematic addition of fringes' op."""
        anchor_list = sorted(set(int(a) for a in anchors))
        if not anchor_list:
            raise ValueError("a fringe needs at least one anchor")
        if any(a >= self.n or a < 0 for a in anchor_list):
            raise ValueError("anchor out of range")
        edges = self.edges()
        n = self.n
        for _ in range(count):
            edges.extend((a, n) for a in anchor_list)
            n += 1
        return Pattern.from_edges(edges, n=n)

    # ------------------------------------------------------------------
    # symmetry (one partition-refinement search, cached per pattern)
    # ------------------------------------------------------------------
    @cached_property
    def symmetry(self) -> Symmetry:
        """Canonical certificate, automorphism generators and vertex orbits
        (:func:`repro.patterns.symmetry.search`), computed once per object."""
        return search(self.adj)

    def canonical_key(self) -> tuple:
        """The exact canonical certificate ``(n, edges)``: isomorphic
        patterns share it, non-isomorphic patterns never do, at any ``n``."""
        return self.symmetry.certificate

    def is_isomorphic(self, other: "Pattern") -> bool:
        return self.canonical_key() == other.canonical_key()

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        # the value is (n, adj); cached properties are rebuilt on demand
        return (type(self), (self.n, self.adj))

    def __repr__(self) -> str:
        return f"Pattern(n={self.n}, m={self.num_edges})"


def all_connected_patterns(n: int) -> list[Pattern]:
    """Every connected pattern with exactly ``n`` vertices, up to isomorphism.

    Brute force over edge subsets; used by the exhaustive validation suite
    (the paper tested all patterns with up to 5 vertices, §3.4).
    """
    if n == 1:
        return [Pattern.single_vertex()]
    pairs = list(combinations(range(n), 2))
    seen_keys: set[tuple] = set()
    result: list[Pattern] = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if len(edges) < n - 1:
            continue
        pat = Pattern.from_edges(edges, n=n)
        if not pat.is_connected:
            continue
        key = pat.canonical_key()
        if key not in seen_keys:
            seen_keys.add(key)
            result.append(pat)
    return result
