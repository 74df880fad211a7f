"""Partitioned counting with ghost regions (the paper's multi-GPU plan).

Paper §3.6: "If the input does not fit on a single GPU, it would have to
be partitioned. Each partition would need a ghost region that is as wide
as the diameter of the search pattern ... This way, multiple GPUs can
process the partitions independently and at the same time."

This module implements that scheme on the CPU:

1. the vertex set is split into ``k`` parts (contiguous by default, or by
   a provided assignment);
2. each part is expanded by a BFS halo of width = the *core diameter*
  (+1 for the fringes, which reach one hop beyond the core) — the ghost
   region;
3. each worker counts on its local subgraph, with the ownership rule
   "a core match is counted by the partition that owns its first matched
   vertex", so every match is counted exactly once globally;
4. partial sums are reduced and normalized once.

The result is bit-identical to single-machine counting; tests assert it
on every partition count and pattern family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.engine import CountResult, EngineConfig
from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition
from ..patterns.pattern import Pattern

__all__ = ["Partition", "partition_graph", "ghost_width", "partitioned_count"]


@dataclass(frozen=True)
class Partition:
    """One partition: local subgraph + id maps + ownership mask."""

    index: int
    graph: CSRGraph  # local subgraph (owned + ghost), compact local ids
    local_to_global: np.ndarray
    owned_local: np.ndarray  # local ids owned by this partition


def core_diameter(decomp: Decomposition) -> int:
    """Diameter of the core pattern (BFS, the core is small)."""
    core = decomp.core_pattern
    best = 0
    for s in range(core.n):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in core.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        best = max(best, max(dist.values()))
    return best


def ghost_width(decomp: Decomposition) -> int:
    """Halo width: core diameter + 1 (fringe neighbourhoods reach one hop
    past the core). Bounded by the pattern size, as the paper notes."""
    return core_diameter(decomp) + 1


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    halo: int,
    *,
    assignment: np.ndarray | None = None,
) -> list[Partition]:
    """Split ``graph`` into ``num_parts`` with BFS ghost halos."""
    n = graph.num_vertices
    if assignment is None:
        assignment = np.minimum(
            np.arange(n, dtype=np.int64) * num_parts // max(n, 1), num_parts - 1
        )
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != n or assignment.min() < 0 or assignment.max() >= num_parts:
            raise ValueError("assignment must map every vertex into 0..num_parts-1")

    partitions = []
    for part in range(num_parts):
        owned = np.nonzero(assignment == part)[0]
        # BFS halo of `halo` hops around the owned set
        in_part = np.zeros(n, dtype=bool)
        in_part[owned] = True
        frontier = owned
        for _ in range(halo):
            nxt: list[int] = []
            for v in frontier.tolist():
                for w in graph.neighbors(v).tolist():
                    if not in_part[w]:
                        in_part[w] = True
                        nxt.append(w)
            frontier = np.asarray(nxt, dtype=np.int64)
            if len(frontier) == 0:
                break
        local_vertices = np.nonzero(in_part)[0]
        global_to_local = -np.ones(n, dtype=np.int64)
        global_to_local[local_vertices] = np.arange(len(local_vertices))
        sub = graph.subgraph(local_vertices.tolist())
        partitions.append(
            Partition(
                index=part,
                graph=sub,
                local_to_global=local_vertices,
                owned_local=global_to_local[owned],
            )
        )
    return partitions


def partitioned_count(
    graph: CSRGraph,
    pattern: Pattern,
    num_parts: int = 2,
    *,
    decomposition: Decomposition | None = None,
    config: EngineConfig | None = None,
) -> CountResult:
    """Count by independent per-partition passes (multi-GPU simulation).

    Ownership rule: a core embedding is tallied by the partition owning
    the graph vertex matched at position 0 of the matching order. The
    halo guarantees every core + fringe neighbourhood around an owned
    root is fully present locally, so local Venn diagrams equal global
    ones.
    """
    import time

    from ..core.backends import FrontierBackend
    from ..core.plan import compile_pattern

    start = time.perf_counter()
    cfg = config or EngineConfig()
    # one compiled plan shared by every partition pass — the pattern side
    # is partition-independent
    plan = compile_pattern(pattern, cfg, decomposition=decomposition)
    decomp = plan.decomp
    halo = ghost_width(decomp)
    partitions = partition_graph(graph, num_parts, halo)

    backend = FrontierBackend()
    sigma = 0
    matches = 0
    for part in partitions:
        ps = backend.run(plan, part.graph, start_vertices=part.owned_local)
        sigma += ps.sigma
        matches += ps.matches
    value = plan.normalize(sigma, context="partitioned count (halo too small?)")
    return CountResult(
        count=value,
        pattern=pattern,
        core_matches=matches,
        elapsed_s=time.perf_counter() - start,
        engine=f"fringe-partitioned(x{num_parts},halo={halo})",
        decomposition=decomp,
    )
