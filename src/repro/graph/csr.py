"""Immutable CSR (compressed sparse row) graph.

This is the graph substrate every engine in the reproduction runs on. It
mirrors the data layout the paper's CUDA code uses: a ``rowptr`` offsets
array, a ``colidx`` array holding all adjacency lists back to back, and each
adjacency list **sorted ascending** so membership queries are binary
searches and set intersections are linear merges (paper §3.6).

The graph is undirected and simple: every edge ``{u, v}`` appears twice in
``colidx`` (once under ``u``, once under ``v``), self loops and duplicate
edges are removed at construction time.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["CSRGraph"]

# Index dtype used throughout the package. int64 keeps uk-2002-scale inputs
# (0.5 G directed edges in the paper) addressable without overflow checks.
INDEX_DTYPE = np.int64


class CSRGraph:
    """An immutable, undirected, simple graph in CSR form.

    Parameters
    ----------
    rowptr:
        ``(n + 1,)`` int64 array; adjacency list of vertex ``v`` occupies
        ``colidx[rowptr[v]:rowptr[v + 1]]``.
    colidx:
        ``(2 * m,)`` int64 array of neighbour ids, sorted within each list.
    validate:
        When true (the default), verify the CSR invariants. Constructors
        that already guarantee them pass ``False`` to skip the O(m) check.
    """

    # __weakref__: the shm export layer ties shared-memory segment
    # lifetime to graph objects via weakref.finalize
    __slots__ = ("rowptr", "colidx", "_degrees", "_fingerprint", "__weakref__")

    def __init__(self, rowptr: np.ndarray, colidx: np.ndarray, *, validate: bool = True):
        rowptr = np.ascontiguousarray(rowptr, dtype=INDEX_DTYPE)
        colidx = np.ascontiguousarray(colidx, dtype=INDEX_DTYPE)
        if validate:
            _validate_csr(rowptr, colidx)
        self.rowptr = rowptr
        self.colidx = colidx
        self._degrees = np.diff(rowptr)
        self._fingerprint: str | None = None
        # Freeze the buffers: engines may share one graph across worker
        # threads/processes and must never mutate it (paper §3.5: the graph
        # is read-only while counting).
        self.rowptr.setflags(write=False)
        self.colidx.setflags(write=False)
        self._degrees.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        num_vertices: int | None = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of (u, v) pairs.

        Duplicate edges, reversed duplicates, and self loops are dropped.
        ``num_vertices`` defaults to ``max vertex id + 1``.
        """
        arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=INDEX_DTYPE
        )
        if arr.size == 0:
            n = int(num_vertices or 0)
            return cls(np.zeros(n + 1, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE), validate=False)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {arr.shape}")
        if arr.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        n = int(arr.max()) + 1
        if num_vertices is not None:
            if num_vertices < n:
                raise ValueError(f"num_vertices={num_vertices} < max vertex id + 1 = {n}")
            n = int(num_vertices)
        # Canonicalize to (min, max), drop self loops, dedup.
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        key = lo * n + hi
        _, unique_idx = np.unique(key, return_index=True)
        lo, hi = lo[unique_idx], hi[unique_idx]
        # Symmetrize and sort by (src, dst): one np.lexsort gives both the
        # CSR ordering and sorted adjacency lists.
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        rowptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.add.at(rowptr, src + 1, 1)
        np.cumsum(rowptr, out=rowptr)
        return cls(rowptr, dst, validate=False)

    @classmethod
    def from_networkx(cls, nxg) -> "CSRGraph":
        """Build from a :mod:`networkx` graph with integer labels 0..n-1."""
        n = nxg.number_of_nodes()
        labels = set(nxg.nodes)
        if labels != set(range(n)):
            raise ValueError("networkx graph must be labeled 0..n-1; use nx.convert_node_labels_to_integers")
        return cls.from_edges(list(nxg.edges()), num_vertices=n)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for tests and baselines)."""
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(self.num_vertices))
        src = np.repeat(np.arange(self.num_vertices, dtype=INDEX_DTYPE), self._degrees)
        mask = src < self.colidx  # each undirected edge once
        nxg.add_edges_from(zip(src[mask].tolist(), self.colidx[mask].tolist()))
        return nxg

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.rowptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges."""
        return len(self.colidx) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex, shape ``(n,)`` (read-only view)."""
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self.rowptr[v + 1] - self.rowptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted adjacency list of ``v`` (zero-copy view)."""
        return self.colidx[self.rowptr[v] : self.rowptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Binary-search membership test, O(log deg(u))."""
        adj = self.neighbors(u)
        i = int(np.searchsorted(adj, v))
        return i < len(adj) and adj[i] == v

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v``."""
        src = np.repeat(np.arange(self.num_vertices, dtype=INDEX_DTYPE), self._degrees)
        mask = src < self.colidx
        return np.column_stack([src[mask], self.colidx[mask]])

    def fingerprint(self) -> str:
        """Stable sha256 content digest of the graph (hex, cached).

        Hashes ``n`` plus the raw ``rowptr``/``colidx`` bytes, so two
        graphs built from the same edge list share a fingerprint across
        processes and machines (the arrays are canonical: int64,
        contiguous, adjacency sorted). This is the content identity used
        by serving-layer result caches; ``__hash__`` stays identity-based
        so live objects remain cheap dict keys.
        """
        fp = self._fingerprint
        if fp is None:
            h = hashlib.sha256()
            h.update(np.int64(self.num_vertices).tobytes())
            h.update(self.rowptr.tobytes())
            h.update(self.colidx.tobytes())
            fp = self._fingerprint = h.hexdigest()
        return fp

    def max_degree(self) -> int:
        return int(self._degrees.max(initial=0))

    def avg_degree(self) -> float:
        n = self.num_vertices
        return float(self._degrees.mean()) if n else 0.0

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Sequence[int]) -> "CSRGraph":
        """Vertex-induced subgraph, relabeled 0..len(vertices)-1."""
        verts = np.asarray(sorted(set(int(v) for v in vertices)), dtype=INDEX_DTYPE)
        remap = -np.ones(self.num_vertices, dtype=INDEX_DTYPE)
        remap[verts] = np.arange(len(verts), dtype=INDEX_DTYPE)
        edges = self.edge_array()
        mask = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
        kept = edges[mask]
        return CSRGraph.from_edges(
            np.column_stack([remap[kept[:, 0]], remap[kept[:, 1]]]), num_vertices=len(verts)
        )

    def relabel_by_degree(self, descending: bool = True) -> "CSRGraph":
        """Renumber vertices by degree (a common GPU preprocessing step)."""
        order = np.argsort(self._degrees, kind="stable")
        if descending:
            order = order[::-1]
        remap = np.empty(self.num_vertices, dtype=INDEX_DTYPE)
        remap[order] = np.arange(self.num_vertices, dtype=INDEX_DTYPE)
        edges = self.edge_array()
        return CSRGraph.from_edges(
            np.column_stack([remap[edges[:, 0]], remap[edges[:, 1]]]),
            num_vertices=self.num_vertices,
        )

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other is self:  # per-graph caches look their graph up by weakref equality
            return True
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self.rowptr, other.rowptr) and np.array_equal(
            self.colidx, other.colidx
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash is fine
        return id(self)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_vertices))


def _validate_csr(rowptr: np.ndarray, colidx: np.ndarray) -> None:
    if rowptr.ndim != 1 or colidx.ndim != 1:
        raise ValueError("rowptr and colidx must be 1-D")
    if len(rowptr) == 0 or rowptr[0] != 0 or rowptr[-1] != len(colidx):
        raise ValueError("rowptr must start at 0 and end at len(colidx)")
    if np.any(np.diff(rowptr) < 0):
        raise ValueError("rowptr must be non-decreasing")
    n = len(rowptr) - 1
    if colidx.size and (colidx.min() < 0 or colidx.max() >= n):
        raise ValueError("colidx entries out of range")
    for v in range(n):
        adj = colidx[rowptr[v] : rowptr[v + 1]]
        if np.any(np.diff(adj) <= 0):
            raise ValueError(f"adjacency list of vertex {v} not strictly increasing")
        if np.any(adj == v):
            raise ValueError(f"self loop at vertex {v}")
