#!/usr/bin/env python
"""Quickstart: count patterns with Fringe-SGC in a few lines.

Builds the paper's Fig. 2 example graph, counts the patterns discussed in
the introduction, and shows the pieces a power user can inspect: the
core/fringe decomposition, the automorphism group size, and per-run
statistics.

Run:  python examples/quickstart.py
"""

from repro import CSRGraph, compile_pattern, count_subgraphs
from repro.patterns import catalog, decompose


def main() -> None:
    # --- the paper's Fig. 2 graph: a hub (vertex 0) with 7 neighbours,
    #     one triangle 0-1-2 ------------------------------------------
    graph = CSRGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]
    )
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # --- count the intro's patterns ----------------------------------
    for name, pattern in [
        ("triangle", catalog.triangle()),
        ("tailed triangle", catalog.tailed_triangle()),
        ("3-star", catalog.star(3)),
    ]:
        result = count_subgraphs(graph, pattern)
        print(f"{name:>16}: {result.count:>4}   (engine: {result.engine})")
    # paper: 1 triangle, 5 tailed triangles, 35 3-stars around vertex 0

    # --- inspect a decomposition -------------------------------------
    pattern = catalog.tailed_triangle()
    d = decompose(pattern)
    print(f"\ntailed triangle decomposition: {d}")
    print(f"  core vertices : {list(d.core_vertices)}")
    for ft in d.fringe_types:
        kind = {1: "tail", 2: "wedge", 3: "tri"}[ft.arity]
        print(f"  {ft.count} {kind} fringe(s) anchored at {sorted(ft.anchors)}")

    # --- a pattern no enumerator can touch ----------------------------
    big = catalog.fig4_pattern()  # 16 vertices, 25 edges (paper Fig. 4)
    result = count_subgraphs(graph, big)
    print(f"\nFig. 4 pattern (16 vertices) in this tiny graph: {result.count}")

    plan = compile_pattern(catalog.k_tailed_triangle(6))
    print(f"|Aut| of the 6-tailed triangle (structural, no enumeration): {plan.aut_size}")


if __name__ == "__main__":
    main()
