"""Additional engine tests: work splitting, helpers, result metadata."""

import pytest

from repro import EngineConfig, FringeCounter, count_subgraphs
from repro.core.engine import injective_core_sum
from repro.graph import generators as gen
from repro.patterns import catalog
from repro.patterns.automorphisms import aut_size_bruteforce, aut_size_structural
from repro.patterns.decompose import decompose


@pytest.fixture(scope="module")
def graph():
    return gen.barabasi_albert(80, 3, seed=13)


class TestStartVertices:
    def test_partial_counts_recombine(self, graph):
        """Splitting the root space through `start_vertices` partitions
        the core-sum exactly (the parallel layer's foundation)."""
        counter = FringeCounter(catalog.paw())
        whole, _ = counter._core_sum_with_stats(graph, None)
        n = graph.num_vertices
        parts = [range(0, n // 3), range(n // 3, 2 * n // 3), range(2 * n // 3, n)]
        split = sum(counter._core_sum_with_stats(graph, list(p))[0] for p in parts)
        assert split == whole

    def test_empty_start_vertices(self, graph):
        counter = FringeCounter(catalog.paw())
        sigma, matches = counter._core_sum_with_stats(graph, [])
        assert sigma == 0 and matches == 0

    def test_count_with_start_vertices(self, graph):
        """count() with a root subset divides by the full normalizer —
        useful for per-root attribution."""
        counter = FringeCounter(catalog.star(3))
        res = counter.count(graph, start_vertices=list(range(graph.num_vertices)))
        assert res.count == counter.count(graph).count


class TestInjectiveCoreSum:
    def test_matches_counter_core_sum(self, graph):
        d = decompose(catalog.diamond())
        a = injective_core_sum(graph, d)
        b = FringeCounter(catalog.diamond(), decomposition=d).core_sum(graph)
        assert a == b

    def test_times_factorials_equals_inj(self, graph):
        """core_sum · Π k_t! = inj(P, G) (checked against brute force)."""
        from repro.baselines.vf2 import count_injective_maps

        for pat in (catalog.paw(), catalog.diamond(), catalog.star(3)):
            d = decompose(pat)
            lhs = injective_core_sum(graph, d) * d.fringe_permutation_factor()
            assert lhs == count_injective_maps(graph, pat)


class TestAutSizeStructural:
    def test_helper_agrees_with_bruteforce(self):
        for pat in (catalog.paw(), catalog.diamond(), catalog.four_cycle()):
            d = decompose(pat)

            def core_sum(graph, decomp):
                return injective_core_sum(graph, decomp)

            assert aut_size_structural(d, core_sum) == aut_size_bruteforce(pat)


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
        cfg = EngineConfig(specialized=False)
        res = count_subgraphs(graph, catalog.diamond(), config=cfg)
        # no closed form: the vectorized general matcher (frontier) runs
        assert "specialized" not in res.engine
        assert res.stats.backend == "frontier"
        assert res.count == count_subgraphs(graph, catalog.diamond()).count


class TestConfigHashabilityAndDefaults:
    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(Exception):
            cfg.venn_impl = "hash"  # frozen dataclass

    def test_default_is_poly(self):
        assert EngineConfig().fc_impl == "poly"
