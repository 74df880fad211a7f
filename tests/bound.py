"""The support bound recomputed with Python sets.

The vectorized routes (the frontier matcher and the edge-core closed
form) keep a stack-matcher row only when every pivot edge has at least
``CorePlan.min_common`` common graph neighbours; the serial oracle keeps
every row. These helpers rebuild the kept set from
:func:`repro.core.matcher.match_cores` and plain set intersections, the
reference the tests compare the vectorized routes against.
"""

from __future__ import annotations

import dataclasses

from repro.core.matcher import CorePlan, match_cores
from repro.graph.csr import CSRGraph


def neighbor_sets(graph: CSRGraph) -> list[set[int]]:
    return [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]


def meets_bound(nbrs: list[set[int]], plan: CorePlan, row) -> bool:
    """Does every pivot edge of ``row`` have the common neighbours the
    pattern puts on it?"""
    return all(
        len(nbrs[row[i]] & nbrs[row[plan.pivot[i]]]) >= plan.min_common[i]
        for i in range(1, len(row))
    )


def bounded_rows(graph: CSRGraph, plan: CorePlan, **kwargs) -> set[tuple[int, ...]]:
    """The ``match_cores`` rows that meet the plan's support bound."""
    nbrs = neighbor_sets(graph)
    return {row for row in match_cores(graph, plan, **kwargs) if meets_bound(nbrs, plan, row)}


def unbounded(plan: CorePlan) -> CorePlan:
    """``plan`` without a support bound: the frontier then yields every
    ``match_cores`` row."""
    return dataclasses.replace(plan, min_common=(0,) * len(plan.order))
