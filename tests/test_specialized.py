"""Tests for the specialized small-core engines (§3.4)."""

import math

import numpy as np
import pytest

from repro.baselines.vf2 import count_vf2
from repro.core.engine import EngineConfig, count_subgraphs
from repro.core import specialized
from repro.core import venn as venn_mod
from repro.core.fringe_poly import FringePolynomial
from repro.core.plan import compile_pattern
from repro.core.specialized import (
    CLOSED_FORMS,
    EdgeCoreEngine,
    VertexCoreEngine,
    common_neighbor_counts,
)
from repro.core import frontier as frontier_mod
from repro.core.venn import slot_common_neighbors
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.decompose import decompose, decomposition_from_core
from repro.patterns.pattern import all_connected_patterns
from tests.bound import bounded_rows


def closed_form(graph, pattern, config=None, decomposition=None):
    """The closed-form count, through the runtime's ``specialized`` route."""
    return count_subgraphs(
        graph, pattern, engine="specialized", config=config, decomposition=decomposition
    )


def two_hubs(leaves=100):
    """Two adjacent hubs with ``leaves`` private leaves each."""
    return CSRGraph.from_edges(
        [(0, 1)] + [(h, 2 + leaves * h + i) for h in (0, 1) for i in range(leaves)]
    )


def small_core_cases():
    """Every connected pattern with n <= 6 and a 1- or 2-vertex core, plus
    explicit edge cores with no anchored end (q = 0) and one (q = 1)."""
    cases = [
        (p, None)
        for n in range(1, 7)
        for p in all_connected_patterns(n)
        if decompose(p).num_core <= 2
    ]
    for pat in (catalog.edge(), catalog.path(3)):
        cases.append((pat, decomposition_from_core(pat, [0, 1])))
    return cases


class TestDispatch:
    def test_by_core_size(self):
        assert {p: kernel.kind for p, kernel in CLOSED_FORMS.items()} == {
            1: "vertex-core",
            2: "edge-core",
        }
        assert isinstance(compile_pattern(catalog.star(3)).specialized_engine(), VertexCoreEngine)
        assert isinstance(compile_pattern(catalog.diamond()).specialized_engine(), EdgeCoreEngine)
        # 3-vertex cores have no closed form: the frontier matcher counts them
        assert compile_pattern(catalog.four_clique()).specialized_engine() is None
        assert compile_pattern(catalog.clique(5)).specialized_engine() is None

    def test_engine_type_validation(self):
        with pytest.raises(ValueError):
            VertexCoreEngine(compile_pattern(catalog.diamond()))
        with pytest.raises(ValueError):
            EdgeCoreEngine(compile_pattern(catalog.star(3)))


class TestVertexCore:
    def test_kstars_match_formula(self, small_graphs):
        for g in small_graphs:
            for k in (2, 3, 5):
                expected = sum(math.comb(int(d), k) for d in g.degrees)
                assert closed_form(g, catalog.star(k)).count == expected

    def test_result_metadata(self, k5):
        res = closed_form(k5, catalog.star(2))
        assert res.engine == "fringe-specialized(vertex-core)"
        assert res.core_matches == 5  # all K5 vertices have degree >= 2


class TestEdgeCore:
    PATTERNS = [
        catalog.triangle(),
        catalog.tailed_triangle(),
        catalog.diamond(),
        catalog.k_tailed_triangle(2),
        catalog.path(4),  # 2-core with a tail on each side
        catalog.core_with_fringes("edge", [((0, 1), 2), ((0,), 1), ((1,), 1)]),
    ]
    # a == b: the core swap is a symmetry (group order 2, one orientation
    # per edge); a != b: it is not (both orientations)
    SYMMETRY = {
        "a=b": catalog.core_with_fringes("edge", [((0, 1), 1), ((0,), 2), ((1,), 2)]),
        "a!=b": catalog.core_with_fringes("edge", [((0, 1), 1), ((0,), 2), ((1,), 1)]),
    }

    @pytest.mark.parametrize("pat", PATTERNS, ids=lambda p: f"n{p.n}m{p.num_edges}")
    def test_matches_vf2(self, small_graphs, pat):
        for g in small_graphs:
            assert closed_form(g, pat).count == count_vf2(g, pat)

    @pytest.mark.parametrize("name", [*sorted(SYMMETRY), "small-cores"])
    def test_symmetric_and_asymmetric_cores(self, small_graphs, name):
        symmetric = EngineConfig()
        if name == "small-cores":
            cases = small_core_cases()
        else:
            cases = [(self.SYMMETRY[name], None)]
            assert compile_pattern(cases[0][0]).group_order == (2 if name == "a=b" else 1)
        graphs = [*small_graphs, two_hubs(), CSRGraph.from_edges([], num_vertices=4)]
        for pat, decomp in cases:
            for config in (symmetric, EngineConfig(symmetry_breaking=False)):
                for g in graphs:
                    expect = count_subgraphs(
                        g, pat, engine="general", config=config, decomposition=decomp
                    )
                    got = closed_form(g, pat, config, decomp)
                    assert got.count == expect.count, pat.edges()
                    # the oracle visits every core match, the closed form
                    # the ones that meet the support bound
                    core = compile_pattern(pat, config, decomposition=decomp).core_plan
                    assert got.core_matches == len(bounded_rows(g, core)), pat.edges()

    def test_core_matches_pass_the_matcher_degree_filter(self):
        """An orientation whose ends fall below the core's full-pattern
        degrees is no core embedding, and one whose edge has no common
        neighbour places no triangle: the closed form and the frontier
        report the same ``core_matches``, the oracle's degree-filtered
        matches less the unsupported ones."""
        g = gen.barabasi_albert(200, 2, seed=1)
        pat = catalog.k_tailed_triangle(2)
        got = {e: count_subgraphs(g, pat, engine=e) for e in ("auto", "frontier", "general")}
        assert got["auto"].engine == "fringe-specialized(edge-core)"
        kept = len(bounded_rows(g, compile_pattern(pat).core_plan))
        assert kept < 471
        assert {e: (r.count, r.core_matches) for e, r in got.items()} == {
            "auto": (6709, kept), "frontier": (6709, kept), "general": (6709, 471)
        }

    def test_large_graph_consistency(self):
        g = gen.kronecker(9, 8, seed=2)
        pat = catalog.k_tailed_triangle(3)
        a = closed_form(g, pat).count
        b = count_subgraphs(g, pat, engine="general").count
        assert a == b

    def test_exact_on_hub_graphs(self, monkeypatch):
        # big star: C(hub degree, k) terms blow past float precision
        g = gen.star_graph(300)
        pat = catalog.path(4)  # edge core, tails both sides
        a = closed_form(g, pat).count
        assert a == count_vf2(g, pat)
        # two adjacent hubs with 100 leaves each: C(100, 20) per edge takes
        # the exact (RNS) path, for one orientation (a == b) and for both
        rns_calls = []
        rns = FringePolynomial._evaluate_batch_rns

        def counted_rns(poly, *args, **kwargs):
            rns_calls.append(len(args[0]))
            return rns(poly, *args, **kwargs)

        monkeypatch.setattr(FringePolynomial, "_evaluate_batch_rns", counted_rns)
        hubs = two_hubs()
        for b, expect in ((20, math.comb(100, 20) ** 2), (1, 2 * math.comb(100, 20) * 100)):
            heavy = catalog.core_with_fringes("edge", [((0,), 20), ((1,), b)])
            rns_calls.clear()
            assert closed_form(hubs, heavy).count == expect
            assert rns_calls, "the closed form skipped the exact path"
            assert count_subgraphs(hubs, heavy, engine="general").count == expect


class TestCommonNeighborCounts:
    def test_small_path(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        edges = g.edge_array()
        c = common_neighbor_counts(g, edges)
        as_dict = {tuple(e): int(cc) for e, cc in zip(edges.tolist(), c)}
        assert as_dict[(0, 1)] == 1  # vertex 2
        assert as_dict[(2, 3)] == 0

    def test_sparse_and_merge_paths_agree(self):
        g = gen.barabasi_albert(120, 4, seed=8)
        edges = g.edge_array()
        via_matmul = common_neighbor_counts(g, edges)
        # against plain set intersection
        out = np.empty(len(edges), dtype=np.int64)
        for i, (u, v) in enumerate(edges.tolist()):
            au, av = set(g.neighbors(u).tolist()), set(g.neighbors(v).tolist())
            out[i] = len(au & av)
        assert via_matmul.tolist() == out.tolist()

    def test_empty_edges(self):
        g = gen.path_graph(3)
        assert len(common_neighbor_counts(g, np.empty((0, 2), dtype=np.int64))) == 0

    def test_over_budget_fallback_and_chunks_agree(self, monkeypatch):
        g = gen.barabasi_albert(150, 5, seed=9)
        edges = g.edge_array()
        via_index = common_neighbor_counts(g, edges)
        # reversed pairs and small chunks read the same entries
        monkeypatch.setattr(specialized, "_PAIR_CHUNK", 7)
        assert common_neighbor_counts(g, edges[:, ::-1]).tolist() == via_index.tolist()
        fresh = CSRGraph.from_edges(edges.tolist(), num_vertices=g.num_vertices)
        monkeypatch.setattr(venn_mod, "INDEX_BUDGET_BYTES", 0)
        assert common_neighbor_counts(fresh, edges).tolist() == via_index.tolist()


def upper_slots(graph):
    """Per-slot counts at the slots of the edges ``u < v``, in
    ``edge_array()`` order."""
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    return slot_common_neighbors(graph)[src < graph.colidx]


class TestEdgeCommonNeighbors:
    """The edge-core closed form reads the graph's per-slot counts."""

    def test_cached_per_graph_and_read_only(self, monkeypatch):
        g = gen.barabasi_albert(150, 5, seed=9)
        counts = slot_common_neighbors(g)
        assert upper_slots(g).tolist() == common_neighbor_counts(g, g.edge_array()).tolist()
        assert counts.dtype == np.int32 and not counts.flags.writeable
        builds = []
        monkeypatch.setattr(
            venn_mod, "build_slot_common_neighbors", lambda *a: builds.append(a) or None
        )
        for pat in (catalog.diamond(), catalog.k_tailed_triangle(2), catalog.path(4)):
            closed_form(g, pat)
        assert slot_common_neighbors(g) is counts and not builds

    def test_over_budget_graph_counts_the_same(self, monkeypatch):
        g = gen.barabasi_albert(150, 5, seed=9)
        fresh = CSRGraph.from_edges(g.edge_array().tolist(), num_vertices=g.num_vertices)
        monkeypatch.setattr(venn_mod, "INDEX_BUDGET_BYTES", 0)
        monkeypatch.setattr(frontier_mod, "BITMAP_BUDGET_BYTES", 0)
        assert venn_mod.pair_index(fresh) is None
        assert frontier_mod.adjacency_bitmap(fresh) is None
        assert slot_common_neighbors(fresh).tolist() == slot_common_neighbors(g).tolist()
        for pat in (catalog.diamond(), catalog.k_tailed_triangle(2), catalog.path(4)):
            expect = closed_form(g, pat)
            got = closed_form(fresh, pat)
            assert (got.count, got.core_matches) == (expect.count, expect.core_matches)
            assert got.count == count_subgraphs(g, pat, engine="general").count

    def test_edgeless_graph(self):
        g = CSRGraph.from_edges([], num_vertices=4)
        assert len(slot_common_neighbors(g)) == 0
        assert closed_form(g, catalog.diamond()).count == 0


class TestThreeCore:
    """3-vertex cores have no closed form; ``auto`` counts them on the
    frontier matcher, which must still match VF2."""

    TRIANGLE_PATTERNS = [
        catalog.four_clique(),
        catalog.tailed_four_clique(1),
        catalog.core_with_fringes("triangle", [((0, 1, 2), 2)]),
        catalog.core_with_fringes("triangle", [((0, 1, 2), 1), ((0, 1), 1), ((2,), 1)]),
    ]
    WEDGE_PATTERNS = [
        catalog.four_cycle(),
        catalog.core_with_fringes(catalog.wedge(), [((1, 2), 1), ((0,), 1)]),
        catalog.core_with_fringes(catalog.wedge(), [((1, 2), 2)]),
    ]

    @pytest.mark.parametrize(
        "pat", TRIANGLE_PATTERNS + WEDGE_PATTERNS, ids=lambda p: f"n{p.n}m{p.num_edges}"
    )
    def test_matches_vf2(self, small_graphs, pat):
        for g in small_graphs[:5]:
            res = count_subgraphs(g, pat)
            assert res.stats.backend == "frontier"
            assert res.count == count_vf2(g, pat)

    def test_core_kind_detection(self):
        for pat in (catalog.four_clique(), catalog.four_cycle()):
            plan = compile_pattern(pat)
            assert plan.decomp.num_core == 3
            assert plan.specialized_kind is None
            assert plan.specialized_engine() is None

    def test_fig4_in_itself(self):
        pat = catalog.fig4_pattern()
        g = CSRGraph.from_edges(pat.edges(), num_vertices=pat.n)
        assert count_subgraphs(g, pat).count == 1
