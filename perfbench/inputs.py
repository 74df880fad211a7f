"""Seeded input graphs for the benchmark, independent of ``repro.graph``.

Three base graphs are generated from fixed constants, so their structure
(and therefore their subgraph counts) never changes:

* ``D`` -- dense, skewed R-MAT (Kronecker-like) graph, ~360 vertices,
  ~2.2k edges, max degree ~180;
  frontier rows repeat anchor sets heavily.
* ``S`` -- sparse preferential-attachment graph, ~4k vertices, ~24k edges;
  anchor sets repeat less.
* ``s`` -- the same kind of graph as ``S`` at ~300 vertices.

The workload seed picks a random vertex relabeling of each base graph and
the request order. Counts are invariant under relabeling, so the expected
counts in ``expected.json`` (keyed by base-graph fingerprint) check every
seed exactly, while the files the program loads differ per seed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# name -> (generator, constant seed); see the module docstring
BASE_SEEDS = {"D": 7001, "S": 7002, "s": 7003}
GRAPH_FILES = {"D": "gD.el", "S": "gS.el", "s": "gs.el"}


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Undirected simple edge set as sorted (u < v) rows, isolated ids
    compacted away so vertex ids are exactly ``0..n-1``."""
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.sort(edges, axis=1)
    edges = np.unique(edges, axis=0)
    _, inv = np.unique(edges, return_inverse=True)
    return inv.reshape(-1, 2).astype(np.int64)


def rmat(scale: int, edge_factor: int, seed: int,
         probs=(0.57, 0.19, 0.19, 0.05)) -> np.ndarray:
    """R-MAT edge sampler (the Graph500 Kronecker generator's recursion)."""
    rng = np.random.default_rng(seed)
    m = edge_factor << scale
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    cum = np.cumsum(probs)
    for bit in range(scale):
        r = rng.random(m)
        quad = np.searchsorted(cum, r, side="right")
        u |= (quad >> 1).astype(np.int64) << bit
        v |= (quad & 1).astype(np.int64) << bit
    return _canonical(np.column_stack([u, v]))


def preferential_attachment(n: int, m: int, seed: int) -> np.ndarray:
    """Barabasi-Albert graph: each new vertex links to ``m`` distinct
    earlier vertices chosen proportionally to degree."""
    rng = np.random.default_rng(seed)
    targets = list(range(m))
    repeated: list[int] = []
    rows = []
    for v in range(m, n):
        for t in set(targets):
            rows.append((v, t))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = list(chosen)
    return _canonical(np.asarray(rows, dtype=np.int64))


def base_edges(name: str) -> np.ndarray:
    seed = BASE_SEEDS[name]
    if name == "D":
        return rmat(9, 8, seed, (0.65, 0.15, 0.15, 0.05))
    if name == "S":
        return preferential_attachment(4000, 6, seed)
    if name == "s":
        return preferential_attachment(300, 6, seed)
    raise KeyError(name)


def fingerprint(edges: np.ndarray) -> str:
    """Content digest of a canonical base edge array (label-sensitive)."""
    return hashlib.sha256(np.ascontiguousarray(edges, dtype=np.int64).tobytes()).hexdigest()[:16]


def relabel(edges: np.ndarray, seed: int, salt: int) -> np.ndarray:
    """Renumber vertices by descending degree, ties broken by the seed.

    Ids in descending-degree order are the usual preprocessing for
    symmetry-broken matching; the per-seed tie order makes each seed's
    files distinct while the work per count stays nearly the same.
    """
    n = int(edges.max()) + 1
    deg = np.bincount(edges.ravel(), minlength=n)
    tie = np.random.default_rng([seed, salt]).permutation(n)
    order = np.lexsort((tie, -deg))  # new id i <- old vertex order[i]
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    out = perm[edges]
    out = np.sort(out, axis=1)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def write_inputs(workdir: Path, seed: int) -> dict[str, dict]:
    """Write the seed's relabeled D, S, s edge lists; return their
    base fingerprints and file paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for salt, name in enumerate(GRAPH_FILES):
        edges = base_edges(name)
        path = workdir / GRAPH_FILES[name]
        lab = relabel(edges, seed, salt)
        path.write_text("".join(f"{u} {v}\n" for u, v in lab.tolist()), encoding="ascii")
        out[name] = {"path": path, "base_fingerprint": fingerprint(edges),
                     "vertices": int(edges.max()) + 1, "edges": len(edges)}
    return out
