"""Tests for multi-pattern counting (shared core passes).

``Runtime.count_many`` groups a family by what its members can share: a
closed-form row build per core kind, or one matcher pass per core,
matching order, anchored set and symmetry restriction. The groups are
observed through the results: the members of one shared pass report
that pass's ``core_matches`` and timings.
"""

import pytest

from repro import count_subgraphs
from repro.bench import workloads as W
from repro.core import specialized
from repro.core.engine import EngineConfig, count_many
from repro.core.plan import CountingPlan, compile_pattern
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.parallel.pool import ParallelConfig
from repro.patterns import catalog
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def graph():
    return gen.kronecker(7, 8, seed=8)


@pytest.fixture(scope="module")
def small():
    return gen.kronecker(6, edge_factor=8, seed=3)


def passes(results) -> int:
    """The number of shared passes behind ``results`` (name -> CountResult)."""
    return len(
        {(r.core_matches, r.stats.execute_s, r.stats.match_s) for r in results.values()}
    )


class TestGrouping:
    def test_same_core_family_shares_one_group(self, graph):
        fam = {f"{k}tails": catalog.k_tailed_triangle(k) for k in (1, 2, 3, 4)}
        for engine in ("auto", "frontier"):
            assert passes(Runtime().count_many(graph, fam, engine=engine)) == 1

    def test_different_cores_split_groups(self, graph):
        fam = {"star": catalog.star(3), "clique": catalog.four_clique(), "paw": catalog.paw()}
        results = Runtime().count_many(graph, fam)
        assert passes(results) == 3
        assert {name: r.engine.split("(")[1].rstrip(")") for name, r in results.items()} == {
            "star": "vertex-core",
            "clique": "max_rows=1048576",
            "paw": "edge-core",
        }

    def test_empty_rejected(self, graph):
        with pytest.raises(ValueError):
            count_many(graph, {})
        with pytest.raises(ValueError):
            Runtime().count_many(graph, {})

    def test_config_fields_are_kept(self, graph):
        cfg = EngineConfig(batch_size=333, max_frontier_rows=4321)
        fam = {"4-cycle": catalog.four_cycle(), "fig4": catalog.fig4_pattern()}
        results = Runtime().count_many(graph, fam, config=cfg)
        for name, pat in fam.items():
            assert results[name].engine == "fringe-frontier(max_rows=4321)"
            assert results[name].count == count_subgraphs(graph, pat).count
        assert count_many(graph, fam, config=cfg) == {n: r.count for n, r in results.items()}


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
        for engine in ("auto", "frontier", "general"):
            got = Runtime().count_many(graph, fam, engine=engine)
            assert passes(got) == 1
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
        # the whole series shares one pass (wedge additions on {0,1}
        # would break the 1<->2 swap and legitimately split the group)
        base = catalog.fig4_pattern()
        fam = {"f0": base, "f2": base.with_fringe((0, 1, 2), 2)}
        got = Runtime().count_many(graph, fam)
        assert passes(got) == 1
        for name in fam:
            assert got[name].count == count_subgraphs(graph, fam[name], engine="frontier").count

    def test_symmetry_breaking_fringe_split_still_exact(self, graph):
        # wedge additions change the symmetry group: two groups, but the
        # counts must still be exact
        base = catalog.fig4_pattern()
        fam = {"f0": base, "f2w": base.with_fringe((0, 1), 2)}
        got = Runtime().count_many(graph, fam)
        assert passes(got) == 2
        for name in fam:
            assert got[name].count == count_subgraphs(graph, fam[name], engine="frontier").count


class TestSharedWorkEfficiency:
    def test_core_matches_counted_once(self, graph):
        fam = {f"{k}t": catalog.k_tailed_triangle(k) for k in (1, 2, 3)}
        results = Runtime().count_many(graph, fam, engine="frontier")
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

    def test_edge_core_family_builds_rows_once_per_graph(self, graph, small, monkeypatch):
        """The Fig. 9 family spans both edge-core symmetry groups, yet one
        closed-form row build (one common-neighbour pass) serves it."""
        calls = []
        counts = specialized.common_neighbor_counts

        def counted(g, edges):
            calls.append(g)
            return counts(g, edges)

        monkeypatch.setattr(specialized, "common_neighbor_counts", counted)
        fam = W.fig09_patterns()
        assert {p.group_order for p in map(compile_pattern, fam.values())} == {1, 2}
        rt = Runtime()
        results = [rt.count_many(g, fam) for g in (graph, small)]
        assert calls == [graph, small]
        for g, res in zip((graph, small), results):
            assert passes(res) == 1
            assert {r.engine for r in res.values()} == {"fringe-specialized(edge-core)"}
            for name, pattern in fam.items():
                assert res[name].count == rt.count(g, pattern, engine="frontier").count, name


class TestStats:
    def test_results_carry_frontier_execution_stats(self, graph):
        fam = {"paw": catalog.paw(), "4-clique": catalog.four_clique()}
        results = Runtime().count_many(graph, fam, engine="frontier")
        for res in results.values():
            assert res.stats is not None
            assert res.stats.backend == "frontier"
            assert res.stats.batches_flushed > 0
            assert res.stats.match_s + res.stats.venn_fc_s <= res.stats.execute_s


# ----------------------------------------------------------------------
# count_many == per-pattern Runtime.count, on every engine and the pool
# ----------------------------------------------------------------------
CLOSED = {
    "vertex": catalog.single_vertex(),
    "edge": catalog.edge(),
    "wedge": catalog.wedge(),
    "triangle": catalog.triangle(),
    "tailed-triangle": catalog.tailed_triangle(),
    "paw": catalog.paw(),
    "diamond": catalog.diamond(),
    **W.fig08_patterns(),
    **W.fig09_patterns(),
}
MATCHED = {
    "4-cycle": catalog.four_cycle(),
    "4-clique": catalog.four_clique(),
    "5-cycle": catalog.cycle(5),
    **W.fig10_patterns(),
    **W.fig11_patterns(),
}
SERIES = {f"{fig}:{name}": p for fig, series in (
    ("fig12", W.fig12_series(2)), ("fig13", W.fig13_series(2)), ("fig14", W.fig14_series(2))
) for name, p in series.items()}
POOL = ParallelConfig(num_workers=2, chunk_size=16)
ENGINE_CASES = {
    "auto": ("auto", None, {**CLOSED, **MATCHED, **SERIES}),
    "frontier": ("frontier", None, {**CLOSED, **MATCHED, **SERIES}),
    # the serial oracle on the fig4 series is slow: its families stop at 3-cores
    "general": ("general", None, {**CLOSED, **MATCHED}),
    "specialized": ("specialized", None, CLOSED),
    "frontier-pool": ("frontier", POOL, {**CLOSED, **MATCHED, **SERIES}),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_count_many_equals_count(small, case):
    from repro.parallel.shm import shm_available
    from repro.parallel.workerpool import shutdown_default_pool

    engine, parallel, fam = ENGINE_CASES[case]
    if parallel is not None and not shm_available():
        pytest.skip("no shared memory")
    rt = Runtime()
    try:
        many = rt.count_many(small, fam, engine=engine, parallel=parallel)
        for name, pattern in fam.items():
            one = rt.count(small, pattern, engine=engine, parallel=parallel)
            assert many[name].count == one.count, name
            assert many[name].engine == one.engine, name
        if parallel is not None:
            assert {r.stats.backend for r in many.values()} == {"pool"}
            assert {r.engine for r in many.values()} == {"fringe-pool(x2)+frontier"}
    finally:
        if parallel is not None:
            shutdown_default_pool()


def test_specialized_refuses_a_family_before_any_member_runs(small, monkeypatch):
    ran = []
    engine = CountingPlan.specialized_engine

    def recorded(plan):
        ran.append(plan)
        return engine(plan)

    monkeypatch.setattr(CountingPlan, "specialized_engine", recorded)
    rt = Runtime()
    fam = {"3-star": catalog.star(3), "paw": catalog.paw(), "4-clique": catalog.four_clique()}
    with pytest.raises(ValueError, match="no specialized engine for a 3-vertex core"):
        rt.count_many(small, fam, engine="specialized")
    assert ran == []
    assert rt.stats_snapshot().counts_served == 0
