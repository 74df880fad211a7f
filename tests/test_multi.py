"""Tests for multi-pattern counting (shared core passes)."""

import pytest

from repro import count_subgraphs
from repro.core.multi import MultiPatternCounter, count_many
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog


@pytest.fixture(scope="module")
def graph():
    return gen.kronecker(7, 8, seed=8)


class TestGrouping:
    def test_same_core_family_shares_one_group(self):
        fam = {f"{k}tails": catalog.k_tailed_triangle(k) for k in (1, 2, 3, 4)}
        mpc = MultiPatternCounter(fam)
        assert mpc.num_groups == 1

    def test_different_cores_split_groups(self):
        mpc = MultiPatternCounter(
            {"star": catalog.star(3), "clique": catalog.four_clique(), "paw": catalog.paw()}
        )
        assert mpc.num_groups == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiPatternCounter({})

    def test_config_fields_are_kept(self, graph):
        from repro.core.engine import EngineConfig

        cfg = EngineConfig(batch_size=333, max_frontier_rows=4321)
        fam = {"4-cycle": catalog.four_cycle(), "fig4": catalog.fig4_pattern()}
        mpc = MultiPatternCounter(fam, config=cfg)
        assert mpc.config.batch_size == 333
        assert mpc.config.max_frontier_rows == 4321
        results = mpc.count_all(graph)
        for name, pat in fam.items():
            assert results[name].count == count_subgraphs(graph, pat).count


class TestCorrectness:
    def test_matches_individual_counts(self, graph):
        fam = {
            "triangle": catalog.triangle(),
            "paw": catalog.paw(),
            "2-tailed": catalog.k_tailed_triangle(2),
            "diamond": catalog.diamond(),
            "3-star": catalog.star(3),
            "4-clique": catalog.four_clique(),
        }
        got = count_many(graph, fam)
        for name, pattern in fam.items():
            assert got[name] == count_subgraphs(graph, pattern).count, name

    def test_mixed_degree_filters_in_one_group(self, graph):
        """Members with very different fringe loads (hence degree
        filters) must still count exactly under the shared weakest
        filter."""
        fam = {
            "light": catalog.k_tailed_triangle(1),
            "heavy": catalog.k_tailed_triangle(6),
        }
        mpc = MultiPatternCounter(fam)
        assert mpc.num_groups == 1
        got = mpc.count_all(graph)
        for name, pattern in fam.items():
            assert got[name].count == count_subgraphs(graph, pattern).count

    def test_trivial_patterns_included(self, graph):
        isolated = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=5)
        edgeless = CSRGraph.from_edges([], num_vertices=4)
        for g in (graph, isolated, edgeless):
            got = count_many(
                g, {"v": catalog.single_vertex(), "e": catalog.edge(), "t": catalog.triangle()}
            )
            assert got["v"] == g.num_vertices
            assert got["e"] == g.num_edges
            assert got["t"] == count_subgraphs(g, catalog.triangle()).count

    def test_fig14_series_shares_core(self, graph):
        # adding tri-fringes preserves the core's decoration symmetry, so
        # the whole series shares one plan (wedge additions on {0,1}
        # would break the 1<->2 swap and legitimately split the group)
        fam = {}
        base = catalog.fig4_pattern()
        fam["f0"] = base
        fam["f2"] = base.with_fringe((0, 1, 2), 2)
        mpc = MultiPatternCounter(fam)
        assert mpc.num_groups == 1
        got = mpc.count_all(graph)
        for name in fam:
            assert got[name].count == count_subgraphs(graph, fam[name], engine="frontier").count

    def test_symmetry_breaking_fringe_split_still_exact(self, graph):
        # wedge additions change the symmetry group: two groups, but the
        # counts must still be exact
        base = catalog.fig4_pattern()
        fam = {"f0": base, "f2w": base.with_fringe((0, 1), 2)}
        mpc = MultiPatternCounter(fam)
        assert mpc.num_groups == 2
        got = mpc.count_all(graph)
        for name in fam:
            assert got[name].count == count_subgraphs(graph, fam[name], engine="frontier").count


class TestSharedWorkEfficiency:
    def test_core_matches_counted_once(self, graph):
        fam = {f"{k}t": catalog.k_tailed_triangle(k) for k in (1, 2, 3)}
        results = MultiPatternCounter(fam).count_all(graph)
        matches = {res.core_matches for res in results.values()}
        assert len(matches) == 1  # one shared enumeration

    def test_family_cheaper_than_individual(self, graph):
        import time

        fam = {f"{k}t": catalog.k_tailed_triangle(k) for k in (1, 2, 3, 4, 5)}
        t0 = time.perf_counter()
        count_many(graph, fam)
        shared = time.perf_counter() - t0
        t0 = time.perf_counter()
        for pattern in fam.values():
            count_subgraphs(pattern=pattern, graph=graph, engine="general")
        individual = time.perf_counter() - t0
        assert shared < individual


class TestStats:
    def test_results_carry_frontier_execution_stats(self, graph):
        fam = {"paw": catalog.paw(), "4-clique": catalog.four_clique()}
        results = MultiPatternCounter(fam).count_all(graph)
        for res in results.values():
            assert res.stats is not None
            assert res.stats.backend == "frontier"
            assert res.stats.batches_flushed > 0
            assert res.stats.match_s + res.stats.venn_fc_s <= res.stats.execute_s
