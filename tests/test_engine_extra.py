"""Additional engine tests: work splitting, helpers, result metadata."""

import pytest

from repro import EngineConfig, compile_pattern, count_subgraphs, get_runtime
from repro.core.backends import FrontierBackend
from repro.core.engine import injective_core_sum
from repro.graph import generators as gen
from repro.patterns import catalog
from repro.patterns.decompose import decompose


@pytest.fixture(scope="module")
def graph():
    return gen.barabasi_albert(80, 3, seed=13)


class TestStartVertices:
    def test_partial_counts_recombine(self, graph):
        """Splitting the root space through `start_vertices` partitions
        the core-sum exactly (the parallel layer's foundation)."""
        plan = compile_pattern(catalog.paw())
        backend = FrontierBackend()
        whole = backend.run(plan, graph).sigma
        n = graph.num_vertices
        parts = [range(0, n // 3), range(n // 3, 2 * n // 3), range(2 * n // 3, n)]
        split = sum(backend.run(plan, graph, start_vertices=list(p)).sigma for p in parts)
        assert split == whole

    def test_empty_start_vertices(self, graph):
        plan = compile_pattern(catalog.paw())
        partial = FrontierBackend().run(plan, graph, start_vertices=[])
        assert partial.sigma == 0 and partial.matches == 0

    def test_count_with_start_vertices(self, graph):
        """count() with a root subset divides by the full normalizer —
        useful for per-root attribution."""
        star = catalog.star(3)
        res = get_runtime().count(graph, star, start_vertices=list(range(graph.num_vertices)))
        assert res.count == count_subgraphs(graph, star).count


class TestInjectiveCoreSum:
    def test_matches_counter_core_sum(self, graph):
        d = decompose(catalog.diamond())
        plan = compile_pattern(catalog.diamond(), decomposition=d)
        expected = FrontierBackend().run(plan, graph).sigma * plan.group_order
        assert injective_core_sum(graph, d) == expected

    def test_times_factorials_equals_inj(self, graph):
        """core_sum · Π k_t! = inj(P, G) (checked against brute force)."""
        from repro.baselines.vf2 import count_injective_maps

        for pat in (catalog.paw(), catalog.diamond(), catalog.star(3)):
            d = decompose(pat)
            lhs = injective_core_sum(graph, d) * d.fringe_permutation_factor()
            assert lhs == count_injective_maps(graph, pat)


class TestResultMetadata:
    def test_engine_labels(self, graph):
        assert "vertex-core" in count_subgraphs(graph, catalog.star(3)).engine
        assert "edge-core" in count_subgraphs(graph, catalog.diamond()).engine
        assert "frontier" in count_subgraphs(graph, catalog.four_clique()).engine
        assert "general" in count_subgraphs(graph, catalog.clique(5), engine="general").engine

    def test_elapsed_recorded(self, graph):
        res = count_subgraphs(graph, catalog.diamond())
        assert res.elapsed_s > 0

    def test_specialized_flag_off_uses_general(self, graph):
        # the closed form is switched off by the engine argument alone:
        # the vectorized general matcher (frontier) runs
        res = count_subgraphs(graph, catalog.diamond(), engine="frontier")
        assert "specialized" not in res.engine
        assert res.stats.backend == "frontier"
        assert res.count == count_subgraphs(graph, catalog.diamond()).count


class TestConfigHashabilityAndDefaults:
    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(Exception):
            cfg.batch_size = 1  # frozen dataclass

    def test_default_is_poly(self, graph):
        # the default route on a 3+-vertex core evaluates the compiled
        # fringe polynomial over frontier blocks
        res = count_subgraphs(graph, catalog.four_cycle())
        assert res.stats.backend == "frontier" and res.stats.batches_flushed >= 1

    def test_config_fields(self):
        from dataclasses import fields

        names = [f.name for f in fields(EngineConfig)]
        assert names == ["symmetry_breaking", "batch_size", "max_frontier_rows"]
