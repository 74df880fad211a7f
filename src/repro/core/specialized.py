"""Closed-form kernels for small cores (paper §3.4).

The paper invokes dedicated code for patterns whose core has one, two, or
three vertices. Here the first two keep closed forms: the fringe
identity with every core embedding's Venn sizes read off the graph
instead of computed per match.

* 1 vertex — a vertex v has one region, its degree: the row ``[·, d_v]``;
* 2 vertices — an ordered edge (u, v) has the row
  ``[·, d_u − 1 − c, d_v − 1 − c, c]``, where ``c`` is the number of
  common neighbours, read at the edge's upper-triangle slot of the
  graph's cached per-slot counts
  (:func:`~repro.core.venn.slot_common_neighbors`, 8 B per edge, built
  without the pair index). Every edge gives one row per orientation,
  or a single orientation when the plan's symmetry restriction keeps one
  (``group_order`` 2); like the frontier matcher, an orientation whose
  ends fall below the core's full-pattern degrees, or an edge with fewer
  common neighbours than the pattern puts on it, gives none.

:func:`anchored_rows` lays such rows out in a plan's anchored-vertex
columns, and the plan's compiled
:class:`~repro.core.fringe_poly.FringePolynomial` counts them — the
same exact evaluator (float64 with a residue-number-system fallback) the
matcher backends use, so the paper's §3.1 double sum is never written
out by hand.

A 3-vertex core has no closed form here: the frontier matcher
(:class:`~repro.core.backends.FrontierBackend`) counts wedge and
triangle cores faster than dedicated instance enumeration did.

A kernel is built from a :class:`~repro.core.plan.CountingPlan` and
returns the Venn rows of the plan's core embeddings, one row per
embedding over every core vertex; it evaluates no polynomial itself. The
:class:`~repro.runtime.Runtime` scores one kernel's rows with the
polynomial of every pattern that shares the core (a whole family from
one row build) and normalizes each sum like a matcher backend's.
Kernels hold no precomputation of their own and are cheap to build; the
per-slot counts belong to the graph, in a
:class:`~repro.core.frontier.GraphCache`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graph.csr import CSRGraph
from .venn import slot_common_neighbors, venn_sets

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan -> specialized)
    from .plan import CountingPlan

__all__ = [
    "CLOSED_FORMS",
    "VertexCoreEngine",
    "EdgeCoreEngine",
    "anchored_rows",
    "common_neighbor_counts",
]

_PAIR_CHUNK = 1 << 16  # edges per venn_sets call in common_neighbor_counts


def anchored_rows(plan: "CountingPlan", venn: np.ndarray) -> np.ndarray:
    """Venn rows over every core vertex, laid out in ``plan``'s columns.

    ``venn[..., S]`` is the size of the region adjacent to exactly the
    core vertices in ``S`` (bit ``i``: matching-order position ``i``).
    The plan's polynomial reads regions over its ``q`` anchored vertices
    only (:attr:`~repro.core.plan.CountingPlan.anchored_positions`), so
    region ``S`` joins the region of its anchored members and is dropped
    when it has none: with ``q = 0`` a row has no regions, and with one
    anchored end of an edge that end's region includes the common
    neighbours.
    """
    positions = plan.anchored_positions
    out = np.zeros(venn.shape[:-1] + (1 << len(positions),), dtype=np.int64)
    for s in range(1, venn.shape[-1]):
        t = sum(1 << i for i, p in enumerate(positions) if s >> p & 1)
        if t:
            out[..., t] += venn[..., s]
    return out


class VertexCoreEngine:
    """1-vertex core: one row ``[·, d_v]`` per vertex of large enough degree."""

    kind = "vertex-core"
    name = f"fringe-specialized({kind})"

    def __init__(self, plan: "CountingPlan"):
        if plan.decomp.num_core != 1:
            raise ValueError("VertexCoreEngine needs a 1-vertex core")
        self.plan = plan

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        deg = np.asarray(graph.degrees, dtype=np.int64)
        deg = deg[deg >= self.plan.core_plan.min_degree[0]]  # the matcher's filter
        return np.stack([np.zeros_like(deg), deg], axis=1)


class EdgeCoreEngine:
    """2-vertex core: one row ``[·, d_u − 1 − c, d_v − 1 − c, c]`` per
    ordered edge whose ends pass the matcher's ``min_degree`` filter and
    whose ``c`` meets its ``min_common`` support bound, both orientations
    unless ``group_order`` is 2."""

    kind = "edge-core"
    name = f"fringe-specialized({kind})"

    def __init__(self, plan: "CountingPlan"):
        if plan.decomp.num_core != 2:
            raise ValueError("EdgeCoreEngine needs a 2-vertex core")
        self.plan = plan

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        deg = graph.degrees
        src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), deg)
        upper = src < graph.colidx  # the slots of the edges u < v
        du, dv = deg[src[upper]], deg[graph.colidx[upper]]
        c = slot_common_neighbors(graph)[upper]
        core = self.plan.core_plan
        md = core.min_degree  # the matcher's degree filter, per position
        # and its support bound: fewer common neighbours than the pattern
        # puts on the edge place no fringes
        supported = c >= core.min_common[1]
        forward = supported & (du >= md[0]) & (dv >= md[1])
        backward = supported & (dv >= md[0]) & (du >= md[1]) & (self.plan.group_order == 1)
        split = int(forward.sum())
        venn = np.zeros((split + int(backward.sum()), 4), dtype=np.int64)
        # forward rows (u, v), then backward rows (v, u)
        for rows, keep, first, second in (
            (venn[:split], forward, du, dv), (venn[split:], backward, dv, du)
        ):
            ck = c[keep]
            rows[:, 1] = first[keep] - 1 - ck
            rows[:, 2] = second[keep] - 1 - ck
            rows[:, 3] = ck
        return venn


# the closed-form kernel of each core size; a plan's ``specialized_kind``
# is the kernel's ``kind``
CLOSED_FORMS = {1: VertexCoreEngine, 2: EdgeCoreEngine}


def common_neighbor_counts(graph: CSRGraph, edges: np.ndarray) -> np.ndarray:
    """``c[e]`` = number of common neighbours of the endpoints of edge e.

    Region ``0b11`` of the two-anchor Venn diagram of each pair, read in
    fixed-size edge slices through :func:`~repro.core.venn.venn_sets`:
    the graph's cached ``A·A`` pair index, or ``venn_batch`` when the
    index is over budget.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    out = np.empty(len(pairs), dtype=np.int64)
    for s in range(0, len(pairs), _PAIR_CHUNK):
        out[s : s + _PAIR_CHUNK] = venn_sets(graph, pairs[s : s + _PAIR_CHUNK])[:, 0b11]
    return out
