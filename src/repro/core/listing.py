"""Subgraph *matching* mode: list core locations and per-core counts.

Paper §2: "by adding a simple print statement, we can change Fringe-SGC
to not only count the pattern but also list all identified core locations
and the number of patterns that surround each core. Doing so basically
changes the code into a subgraph matching application."

This module is that mode, minus the print statement: a streaming iterator
over :class:`CoreMatch` records (matched core vertices + the number of
pattern embeddings around them), plus two aggregations the applications
in the paper's introduction need:

* :func:`per_vertex_counts` — for every graph vertex, the number of
  pattern copies whose core contains it (a graphlet-degree-style,
  orbit-blind signature used in biology and fraud scoring);
* :func:`top_cores` — the k core locations with the most surrounding
  copies (hotspot mining).

Caveat on semantics: per-core numbers are *ordered-embedding* masses
normalized by the same structural constant as the global count, so they
sum exactly to ``count(P, G)``; a copy whose automorphisms map it onto
several core placements contributes fractionally to each (we expose the
exact fraction as a :class:`fractions.Fraction` to keep everything
exact).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition
from ..patterns.pattern import Pattern
from .engine import EngineConfig
from .fringe_count import fc_recursive
from .matcher import match_cores
from .plan import compile_pattern
from .venn import venn_merge

__all__ = ["CoreMatch", "iter_core_matches", "per_vertex_counts", "top_cores"]


@dataclass(frozen=True)
class CoreMatch:
    """One matched core and the pattern mass around it.

    ``vertices`` are the matched graph vertices in matching order;
    ``embeddings`` is the exact share of pattern copies centred on this
    placement (a Fraction; sums to the global count over all matches).
    ``raw_choices`` is the unnormalized fringe-set count F(venn).
    """

    vertices: tuple[int, ...]
    embeddings: Fraction
    raw_choices: int


def iter_core_matches(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    decomposition: Decomposition | None = None,
    config: EngineConfig | None = None,
) -> Iterator[CoreMatch]:
    """Stream every productive core match (raw fringe count > 0).

    Memory use is constant — matches are produced by the same
    fixed-memory stack matcher the counting engine uses (§3.5). Each
    match is scored the way the serial oracle scores it (``venn_merge``
    + the recursive fc).
    """
    plan = compile_pattern(pattern, config, decomposition=decomposition)
    positions = plan.anchored_positions
    scale = Fraction(plan.group_order, plan.denominator)
    for match in match_cores(graph, plan.core_plan):
        if plan.q == 0:
            raw = 1
        else:
            venn = venn_merge(graph, [match[i] for i in positions], match)
            raw = fc_recursive(venn, plan.anch, plan.k, plan.q)
        if raw:
            yield CoreMatch(vertices=match, embeddings=raw * scale, raw_choices=raw)


def per_vertex_counts(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    decomposition: Decomposition | None = None,
) -> list[Fraction]:
    """For each vertex, the pattern mass of cores containing it.

    Summing over all vertices gives ``p · count(P, G)`` (each copy's core
    has ``p`` vertices).
    """
    out = [Fraction(0)] * graph.num_vertices
    for m in iter_core_matches(graph, pattern, decomposition=decomposition):
        for v in m.vertices:
            out[v] += m.embeddings
    return out


def top_cores(
    graph: CSRGraph,
    pattern: Pattern,
    k: int = 10,
    *,
    decomposition: Decomposition | None = None,
) -> list[CoreMatch]:
    """The k core placements with the largest surrounding pattern mass."""
    heap: list[tuple[Fraction, int, CoreMatch]] = []
    for i, m in enumerate(iter_core_matches(graph, pattern, decomposition=decomposition)):
        item = (m.embeddings, i, m)
        if len(heap) < k:
            heapq.heappush(heap, item)
        elif item[0] > heap[0][0]:
            heapq.heapreplace(heap, item)
    return [m for _, _, m in sorted(heap, key=lambda t: (-t[0], t[1]))]
