"""Tests for the counting engine and public API."""

import math

import pytest

from repro import EngineConfig, compile_pattern, count_subgraphs
from repro.baselines.vf2 import count_vf2
from repro.core.backends import FrontierBackend
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.decompose import decompose, decomposition_from_core
from repro.patterns.pattern import Pattern


class TestPaperExamples:
    def test_fig2_counts(self, fig2_graph):
        """§1: 'There is only one triangle in this graph ... but five
        unique tailed triangles'; §3: vertex 0 centres 35 3-stars."""
        assert count_subgraphs(fig2_graph, catalog.triangle()).count == 1
        assert count_subgraphs(fig2_graph, catalog.tailed_triangle()).count == 5
        assert count_subgraphs(fig2_graph, catalog.star(3)).count == 35

    def test_kstar_formula(self, small_graphs):
        """§3: every vertex is the centre of exactly C(d, k) k-stars."""
        for g in small_graphs:
            for k in (2, 3, 4):
                expected = sum(math.comb(int(d), k) for d in g.degrees)
                assert count_subgraphs(g, catalog.star(k)).count == expected

    def test_single_vertex_and_edge(self, small_graphs):
        for g in small_graphs:
            assert count_subgraphs(g, catalog.single_vertex()).count == g.num_vertices
            assert count_subgraphs(g, catalog.edge()).count == g.num_edges

    def test_pattern_in_itself_is_one(self):
        for pat in (
            catalog.fig4_pattern(),
            catalog.diamond(),
            catalog.k_tailed_triangle(4),
            catalog.four_cycle(),
        ):
            g = CSRGraph.from_edges(pat.edges(), num_vertices=pat.n)
            assert count_subgraphs(g, pat).count == 1


class TestEngines:
    @pytest.mark.parametrize(
        "engine,cfg",
        [
            # the oracle: per-match venn_merge + recursive fc (Listing 5)
            ("general", EngineConfig()),
            # the compiled fringe polynomial over frontier blocks
            ("frontier", EngineConfig()),
            ("frontier", EngineConfig(batch_size=2)),
            ("general", EngineConfig(symmetry_breaking=False)),
        ],
        ids=["rec-merge", "poly", "poly-b2", "no-sb"],
    )
    def test_all_configs_match_vf2(self, small_graphs, engine, cfg):
        pats = [catalog.paw(), catalog.diamond(), catalog.four_cycle(), catalog.star(3)]
        for pat in pats:
            for g in small_graphs[:4]:
                expect = count_vf2(g, pat)
                assert count_subgraphs(g, pat, engine=engine, config=cfg).count == expect

    def test_specialized_vs_general(self, small_graphs):
        pats = [
            catalog.star(4),
            catalog.diamond(),
            catalog.k_tailed_triangle(2),
        ]
        for pat in pats:
            for g in small_graphs:
                a = count_subgraphs(g, pat, engine="specialized").count
                b = count_subgraphs(g, pat, engine="general").count
                assert a == b
        # 3-vertex cores have no closed form any more
        for pat in (catalog.four_clique(), catalog.four_cycle()):
            with pytest.raises(ValueError, match="no specialized engine"):
                count_subgraphs(small_graphs[0], pat, engine="specialized")

    def test_specialized_unavailable_for_large_core(self):
        # K5 minus nothing: decomposes to a 4-vertex core
        pat = catalog.clique(5)
        assert decompose(pat).num_core == 4
        with pytest.raises(ValueError, match="no specialized engine"):
            count_subgraphs(gen.complete_graph(6), pat, engine="specialized")

    def test_unknown_engine_rejected(self, k5):
        with pytest.raises(ValueError):
            count_subgraphs(k5, catalog.triangle(), engine="warp-drive")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(max_frontier_rows=-1)
        for bad in ({"batch_size": 2.5}, {"batch_size": True},
                    {"max_frontier_rows": "8"}, {"symmetry_breaking": "no"},
                    {"symmetry_breaking": 1}):
            with pytest.raises(TypeError):
                EngineConfig(**bad)
        with pytest.raises(TypeError):
            EngineConfig(specialized=False)  # the route is picked by `engine`


class TestCoreInvariance:
    def test_any_valid_core_gives_same_count(self, small_graphs):
        """The core is not unique (§3); the count must not depend on it."""
        tri = catalog.triangle()
        paw = catalog.paw()
        for g in small_graphs[:4]:
            ref = count_vf2(g, tri)
            for core in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
                d = decomposition_from_core(tri, core)
                got = count_subgraphs(g, tri, engine="general", decomposition=d).count
                assert got == ref
            ref = count_vf2(g, paw)
            for core in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
                d = decomposition_from_core(paw, core)
                got = count_subgraphs(g, paw, engine="general", decomposition=d).count
                assert got == ref


class TestCompiledPlan:
    def test_reuse_across_graphs(self, small_graphs):
        plan = compile_pattern(catalog.diamond())
        backend = FrontierBackend()
        for g in small_graphs:
            assert plan.normalize(backend.run(plan, g).sigma) == count_vf2(g, catalog.diamond())

    def test_aut_size(self):
        assert compile_pattern(catalog.triangle()).aut_size == 6
        assert compile_pattern(catalog.edge()).aut_size == 2
        assert compile_pattern(catalog.single_vertex()).aut_size == 1

    def test_disconnected_pattern_rejected(self):
        with pytest.raises(ValueError):
            compile_pattern(Pattern.from_edges([(0, 1), (2, 3)]))


class TestCountResult:
    def test_fields(self, k5):
        res = count_subgraphs(k5, catalog.triangle(), engine="general")
        assert res.count == 10
        assert res.core_matches > 0
        assert res.elapsed_s >= 0
        assert res.engine == "fringe-general"
        assert res.decomposition is not None

    def test_throughput(self, k5):
        res = count_subgraphs(k5, catalog.triangle())
        assert res.throughput(k5.num_edges) > 0

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], num_vertices=10)
        assert count_subgraphs(g, catalog.triangle()).count == 0
        assert count_subgraphs(g, catalog.single_vertex()).count == 10
