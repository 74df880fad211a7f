"""Closed-form kernels for small cores (paper §3.4).

The paper invokes dedicated code for patterns whose core has one, two, or
three vertices. Here the first two keep closed forms:

* 1 vertex  — the k-star formula ``Σ_v C(d_v, k)`` evaluated on the degree
  *histogram* (exact big-int arithmetic over unique degrees only);
* 2 vertices — the closed-form §3.1 double summation, vectorized with
  NumPy over every edge at once (the data-parallel formulation the CUDA
  kernel uses); per-edge values that could exceed float64's exact-integer
  range are recomputed with Python big ints.

A 3-vertex core has no closed form here: the frontier matcher
(:class:`~repro.core.backends.FrontierBackend`) counts wedge and
triangle cores faster than dedicated instance enumeration did.

A kernel is the fringe identity with closed-form Venn sizes, so it
returns what a matcher backend returns: the symmetry-reduced sum σ as a
:class:`~repro.core.backends.PartialSum`, which
:meth:`~repro.core.plan.CountingPlan.normalize` turns into a count.
Kernels hold no pattern-side precomputation and are cheap to build.
"""

from __future__ import annotations

import math

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition
from .backends import PartialSum
from .binomial import nCk, nck_array
from .venn import venn_sets

__all__ = ["CLOSED_FORMS", "VertexCoreEngine", "EdgeCoreEngine", "common_neighbor_counts"]

_EXACT_LIMIT = float(1 << 52)  # above this, float64 loses integer exactness
_PAIR_CHUNK = 1 << 16  # edges per venn_sets call in common_neighbor_counts


# ----------------------------------------------------------------------
# 1-vertex core: k-stars
# ----------------------------------------------------------------------
class VertexCoreEngine:
    """``σ = Σ_v C(d_v, k)`` via the degree histogram.

    ``group_order`` is accepted for a uniform kernel signature; a
    one-vertex core has only the trivial symmetry.
    """

    kind = "vertex-core"
    name = f"fringe-specialized({kind})"

    def __init__(self, decomp: Decomposition, group_order: int = 1):
        if decomp.num_core != 1:
            raise ValueError("VertexCoreEngine needs a 1-vertex core")
        if decomp.num_fringe_types > 1:
            raise AssertionError("1-vertex core can only carry one fringe type")
        self.k = decomp.fringe_types[0].count if decomp.fringe_types else 0

    def __call__(self, graph: CSRGraph) -> PartialSum:
        hist = np.bincount(np.asarray(graph.degrees, dtype=np.int64))
        sigma = sum(
            int(cnt) * math.comb(d, self.k) for d, cnt in enumerate(hist.tolist()) if cnt
        )
        return PartialSum(sigma=sigma, matches=int(np.count_nonzero(graph.degrees >= self.k)))


# ----------------------------------------------------------------------
# 2-vertex core: §3.1 closed form over all edges
# ----------------------------------------------------------------------
class EdgeCoreEngine:
    """Vectorized §3.1 formula.

    With ``a`` tails on core vertex 0, ``b`` tails on core vertex 1, and
    ``m`` wedge fringes, a matched ordered edge (u, v) contributes

    ``F = Σ_i C(n_u, a−i) C(n_uv, i) Σ_j C(n_v, b−j) C(n_uv−i, j)
            C(n_uv−i−j, m)``

    where ``n_u = d_u − 1 − c``, ``n_v = d_v − 1 − c``, ``n_uv = c`` and
    ``c`` is the number of common neighbours of u and v. ``σ`` sums F
    over one orientation of every edge, plus the reverse orientation
    unless the plan's symmetry restriction keeps one (``group_order`` 2,
    which needs ``a == b`` and so a symmetric F).
    """

    kind = "edge-core"
    name = f"fringe-specialized({kind})"

    def __init__(self, decomp: Decomposition, group_order: int = 1):
        if decomp.num_core != 2:
            raise ValueError("EdgeCoreEngine needs a 2-vertex core")
        if not decomp.core_pattern.has_edge(0, 1):
            raise ValueError("2-vertex core must be connected (an edge)")
        deco = decomp.decoration()
        self.a = deco.get(frozenset({0}), 0)
        self.b = deco.get(frozenset({1}), 0)
        self.m = deco.get(frozenset({0, 1}), 0)
        if group_order == 2 and self.a != self.b:
            raise ValueError("swapping the core vertices needs equal tails")
        self.both = group_order == 1

    # -- scalar exact evaluation --------------------------------------
    def _f_exact(self, nu: int, nv: int, c: int) -> int:
        a, b, m = self.a, self.b, self.m
        total = 0
        for i in range(a + 1):
            left = nCk(nu, a - i) * nCk(c, i)
            if left == 0:
                continue
            inner = 0
            for j in range(b + 1):
                inner += nCk(nv, b - j) * nCk(c - i, j) * nCk(c - i - j, m)
            total += left * inner
        return total

    # -- vectorized evaluation ----------------------------------------
    def _f_vector(self, nu: np.ndarray, nv: np.ndarray, c: np.ndarray) -> np.ndarray:
        a, b, m = self.a, self.b, self.m
        total = np.zeros(len(nu), dtype=np.float64)
        for i in range(a + 1):
            left = nck_array(nu, a - i) * nck_array(c, i)
            inner = np.zeros_like(total)
            for j in range(b + 1):
                inner += nck_array(nv, b - j) * nck_array(c - i, j) * nck_array(c - i - j, m)
            total += left * inner
        return total

    def __call__(self, graph: CSRGraph) -> PartialSum:
        edges = graph.edge_array()
        deg = graph.degrees
        c = common_neighbor_counts(graph, edges)
        nu = deg[edges[:, 0]] - 1 - c
        nv = deg[edges[:, 1]] - 1 - c
        with np.errstate(over="ignore", invalid="ignore"):
            per_edge = self._f_vector(nu, nv, c)
            if self.both:
                per_edge += self._f_vector(nv, nu, c)
        # negated comparison so NaN rows (inf * 0 on extreme hubs) fall
        # into the exact path instead of silently passing as "safe"
        risky = ~(per_edge < _EXACT_LIMIT)
        sigma = int(np.rint(per_edge[~risky]).astype(np.int64).sum(dtype=np.object_))
        for idx in np.nonzero(risky)[0].tolist():
            cu, cv, cc = int(nu[idx]), int(nv[idx]), int(c[idx])
            sigma += self._f_exact(cu, cv, cc)
            if self.both:
                sigma += self._f_exact(cv, cu, cc)
        return PartialSum(sigma=sigma, matches=len(edges) * (2 if self.both else 1))


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
    pairs = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    out = np.empty(len(pairs), dtype=np.int64)
    for s in range(0, len(pairs), _PAIR_CHUNK):
        out[s : s + _PAIR_CHUNK] = venn_sets(graph, pairs[s : s + _PAIR_CHUNK])[:, 0b11]
    return out
