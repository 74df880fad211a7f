"""Tests for the approximate (sampled) counter."""

import pytest

from repro import count_subgraphs
from repro.baselines import estimate_count
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog


@pytest.fixture(scope="module")
def graph():
    return gen.barabasi_albert(400, 4, seed=6)


class TestEstimator:
    def test_full_census_is_exact(self, graph):
        """samples >= n degenerates into the exact count."""
        pat = catalog.paw()
        est = estimate_count(graph, pat, samples=10**9, seed=0)
        assert est.estimate == pytest.approx(count_subgraphs(graph, pat).count)
        assert est.std_error == 0.0

    def test_unbiasedness_over_seeds(self, graph):
        """The mean over independent estimates approaches the truth."""
        pat = catalog.triangle()
        truth = count_subgraphs(graph, pat).count
        ests = [
            estimate_count(graph, pat, samples=120, seed=s).estimate for s in range(20)
        ]
        mean = sum(ests) / len(ests)
        assert abs(mean - truth) / truth < 0.25

    def test_confidence_interval_covers_often(self, graph):
        pat = catalog.paw()
        truth = count_subgraphs(graph, pat).count
        hits = 0
        trials = 20
        for s in range(trials):
            est = estimate_count(graph, pat, samples=150, seed=s)
            lo, hi = est.confidence_interval()
            if lo <= truth <= hi:
                hits += 1
        assert hits >= trials // 2  # normal CI, generous bound

    def test_error_shrinks_with_samples(self, graph):
        pat = catalog.diamond()
        small = estimate_count(graph, pat, samples=50, seed=3)
        large = estimate_count(graph, pat, samples=350, seed=3)
        assert large.std_error < small.std_error

    def test_trivial_patterns_exact(self, graph):
        """A vertex or an edge runs the compiled plan like any pattern:
        a full census gives N and E with no error."""
        graphs = [
            graph,
            CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=6),  # 3 isolated
            CSRGraph.from_edges([], num_vertices=4),
            CSRGraph.from_edges([], num_vertices=0),  # no roots to sample
        ]
        for g in graphs:
            vertex = estimate_count(g, catalog.single_vertex())
            edge = estimate_count(g, catalog.edge())
            assert (vertex.estimate, edge.estimate) == (g.num_vertices, g.num_edges)
            assert vertex.std_error == edge.std_error == 0.0
            assert vertex.samples == edge.samples == g.num_vertices

    def test_relative_error_helper(self, graph):
        pat = catalog.triangle()
        truth = count_subgraphs(graph, pat).count
        est = estimate_count(graph, pat, samples=200, seed=1)
        assert est.relative_error_vs(truth) >= 0.0
        assert est.relative_error_vs(0) in (0.0, float("inf"))

    def test_fringe_heavy_pattern_still_cheap(self, graph):
        """A 10-vertex fringe pattern estimates as fast as a small one —
        the per-root mass is a closed form, not an enumeration."""
        pat = catalog.core_with_fringes("edge", [((0, 1), 3), ((0,), 3), ((1,), 2)])
        est = estimate_count(graph, pat, samples=100, seed=2)
        assert est.estimate >= 0
