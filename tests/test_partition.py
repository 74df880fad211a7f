"""Tests for partitioned counting with ghost regions (§3.6 multi-GPU)."""

import numpy as np
import pytest

from repro import count_subgraphs
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.parallel import ghost_width, partition_graph, partitioned_count
from repro.parallel.partition import core_diameter
from repro.patterns import catalog
from repro.patterns.decompose import decompose, decomposition_from_core


@pytest.fixture(scope="module")
def graphs():
    return [
        gen.barabasi_albert(120, 3, seed=1),
        gen.erdos_renyi(100, 0.08, seed=2),
        gen.road_network(12, 12, seed=3),
        gen.kronecker(7, 8, seed=4),
    ]


PATTERNS = [
    catalog.triangle(),
    catalog.paw(),
    catalog.diamond(),
    catalog.star(3),
    catalog.four_clique(),
    catalog.four_cycle(),
    catalog.k_tailed_triangle(3),
]
IDS = ["triangle", "paw", "diamond", "3-star", "4-clique", "4-cycle", "3-tailed-tri"]


class TestGhostWidth:
    def test_core_diameter(self):
        assert core_diameter(decompose(catalog.triangle())) == 1  # edge core
        assert core_diameter(decompose(catalog.four_cycle())) == 2  # wedge core
        assert core_diameter(decompose(catalog.star(3))) == 0  # single vertex

    def test_ghost_width_bounded_by_pattern(self):
        for pat in PATTERNS:
            d = decompose(pat)
            assert ghost_width(d) <= pat.n


class TestPartitionGraph:
    def test_owned_sets_partition_vertices(self, graphs):
        g = graphs[0]
        parts = partition_graph(g, 3, halo=2)
        owned_global = np.concatenate(
            [p.local_to_global[p.owned_local] for p in parts]
        )
        assert sorted(owned_global.tolist()) == list(range(g.num_vertices))

    def test_halo_contains_neighbourhood(self, graphs):
        g = graphs[0]
        parts = partition_graph(g, 4, halo=1)
        for p in parts:
            present = set(p.local_to_global.tolist())
            for lv in p.owned_local.tolist():
                gv = int(p.local_to_global[lv])
                for w in g.neighbors(gv).tolist():
                    assert w in present

    def test_local_ids_order_preserving(self, graphs):
        """Symmetry-breaking correctness requires the local relabeling to
        preserve global id order."""
        g = graphs[1]
        for p in partition_graph(g, 3, halo=2):
            ids = p.local_to_global
            assert np.all(np.diff(ids) > 0)

    def test_owned_degrees_complete(self, graphs):
        g = graphs[0]
        for p in partition_graph(g, 3, halo=1):
            for lv in p.owned_local.tolist():
                gv = int(p.local_to_global[lv])
                assert p.graph.degree(lv) == g.degree(gv)

    def test_custom_assignment(self, graphs):
        g = graphs[1]
        rng = np.random.default_rng(0)
        assign = rng.integers(0, 3, size=g.num_vertices)
        parts = partition_graph(g, 3, halo=2, assignment=assign)
        owned = np.concatenate([p.local_to_global[p.owned_local] for p in parts])
        assert sorted(owned.tolist()) == list(range(g.num_vertices))

    def test_bad_assignment_rejected(self, graphs):
        with pytest.raises(ValueError):
            partition_graph(graphs[0], 2, halo=1, assignment=np.array([5]))


class TestPartitionedCount:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=IDS)
    @pytest.mark.parametrize("parts", [2, 3, 5])
    def test_exact_for_every_partitioning(self, graphs, pattern, parts):
        for g in graphs:
            expect = count_subgraphs(g, pattern).count
            got = partitioned_count(g, pattern, num_parts=parts)
            assert got.count == expect, (pattern.edges(), parts)

    def test_single_partition(self, graphs):
        g = graphs[0]
        pat = catalog.paw()
        assert partitioned_count(g, pat, num_parts=1).count == count_subgraphs(g, pat).count

    def test_trivial_patterns(self, graphs):
        isolated = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=9)
        edgeless = CSRGraph.from_edges([], num_vertices=6)
        vertex, edge = catalog.single_vertex(), catalog.edge()
        for g in (graphs[0], isolated, edgeless):
            assert partitioned_count(g, vertex, num_parts=4).count == g.num_vertices
            assert partitioned_count(g, edge, num_parts=4).count == g.num_edges
            # an explicit core: the edge itself, with no fringes
            both = decomposition_from_core(edge, [0, 1])
            res = partitioned_count(g, edge, num_parts=3, decomposition=both)
            assert res.count == g.num_edges and res.decomposition is both

    def test_engine_label(self, graphs):
        res = partitioned_count(graphs[0], catalog.paw(), num_parts=2)
        assert "partitioned(x2" in res.engine
