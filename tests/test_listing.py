"""Tests for subgraph-matching mode (core listing, §2)."""

from fractions import Fraction

import pytest

from repro import count_subgraphs
from repro.core.listing import iter_core_matches, per_vertex_counts, top_cores
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.decompose import decompose


@pytest.fixture(scope="module")
def graph():
    return gen.barabasi_albert(60, 3, seed=9)


class TestIterCoreMatches:
    @pytest.mark.parametrize(
        "pattern",
        [
            catalog.single_vertex(),
            catalog.edge(),
            catalog.triangle(),
            catalog.paw(),
            catalog.diamond(),
            catalog.star(3),
            catalog.four_clique(),
        ],
        ids=["vertex", "edge", "triangle", "paw", "diamond", "3-star", "4-clique"],
    )
    def test_masses_sum_to_count(self, graph, pattern):
        graphs = [
            graph,
            CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=6),  # 3 isolated
            CSRGraph.from_edges([], num_vertices=4),
        ]
        for g in graphs:
            total = sum((m.embeddings for m in iter_core_matches(g, pattern)), Fraction(0))
            assert total == count_subgraphs(g, pattern).count
        # a vertex is N copies, an edge E
        if pattern.n <= 2:
            assert [count_subgraphs(g, pattern).count for g in graphs] == [
                g.num_vertices if pattern.n == 1 else g.num_edges for g in graphs
            ]

    def test_only_productive_matches_yielded(self, graph):
        for m in iter_core_matches(graph, catalog.diamond()):
            assert m.raw_choices > 0
            assert m.embeddings > 0

    def test_matched_vertices_are_a_core(self, graph):
        d = decompose(catalog.paw())
        for m in iter_core_matches(graph, catalog.paw(), decomposition=d):
            assert len(set(m.vertices)) == len(m.vertices)
            # paw core is an edge: the two vertices must be adjacent
            assert graph.has_edge(m.vertices[0], m.vertices[1])

    def test_fig2_triangle_location(self, fig2_graph):
        # the single triangle 0-1-2 appears once per core placement (any
        # of its three edges), each carrying a 1/3 share — the documented
        # fractional semantics for copies with core-moving automorphisms
        matches = list(iter_core_matches(fig2_graph, catalog.triangle()))
        assert len(matches) == 3
        assert all(set(m.vertices) <= {0, 1, 2} for m in matches)
        assert all(m.embeddings == Fraction(1, 3) for m in matches)
        assert sum((m.embeddings for m in matches), Fraction(0)) == 1


class TestPerVertexCounts:
    def test_sums_to_p_times_count(self, graph):
        pattern = catalog.paw()
        counts = per_vertex_counts(graph, pattern)
        p = decompose(pattern).num_core
        total_count = count_subgraphs(graph, pattern).count
        assert sum(counts, Fraction(0)) == p * total_count

    def test_isolated_vertex_zero(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=5)
        counts = per_vertex_counts(g, catalog.triangle())
        assert counts[3] == 0 and counts[4] == 0
        assert counts[0] > 0


class TestTopCores:
    def test_ordering_and_k(self, graph):
        top = top_cores(graph, catalog.diamond(), k=5)
        assert len(top) <= 5
        masses = [m.embeddings for m in top]
        assert masses == sorted(masses, reverse=True)

    def test_top1_is_global_max(self, graph):
        everything = list(iter_core_matches(graph, catalog.diamond()))
        best = max(m.embeddings for m in everything)
        top = top_cores(graph, catalog.diamond(), k=1)
        assert top[0].embeddings == best
