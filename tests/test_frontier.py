"""The vectorized frontier matcher (:mod:`repro.core.frontier`).

Three layers of evidence that the frontier backend is a drop-in
replacement for the serial engine:

* **Count agreement** — frontier counts equal general-engine counts on
  the full Fig. 1 pattern catalog (plus fringe-heavy tails and the
  Fig. 4 pattern) over a Kronecker graph, two built-in dataset
  stand-ins, and hypothesis-randomized graphs.
* **Matcher equivalence** — the set of frontier rows is exactly the set
  of tuples the per-match stack matcher yields that meet the support
  bound (every tuple, with the bound zeroed), so symmetry-breaking
  masks and injectivity filters agree constraint-for-constraint.
* **Budget invariance** — absurdly small ``max_frontier_rows`` values
  force recursive block splitting and change nothing but peak memory.
* **Orientation invariance** — scanning only a bounding pivot's larger
  neighbours yields the stack matcher's rows and the same frontier
  volume under any vertex labeling, budget and root slice.
"""

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import FrontierBackend, FrontierStats
from repro.core.engine import EngineConfig
import repro.core.frontier as frontier_mod
from repro.core.frontier import (
    frontier_match_matrix,
    has_edges_bulk,
    iter_frontier_blocks,
    upper_starts,
)
from repro.core.matcher import build_plan, match_cores
from repro.core.plan import compile_pattern
from repro.graph import datasets, generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.decompose import decompose
from repro.patterns.pattern import Pattern
from repro.runtime import Runtime
from tests.bound import bounded_rows, unbounded

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def rt() -> Runtime:
    return Runtime()


@pytest.fixture(scope="module")
def kron() -> CSRGraph:
    return gen.kronecker(6, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def dataset_graphs() -> dict[str, CSRGraph]:
    return {
        "amazon0601": datasets.make("amazon0601", "tiny"),
        "internet": datasets.make("internet", "tiny"),
    }


def catalog_patterns() -> dict[str, Pattern]:
    out = dict(catalog.fig1_patterns())
    out["2-tailed 4-clique"] = catalog.tailed_four_clique(2)
    out["3-tailed 4-clique"] = catalog.tailed_four_clique(3)
    out["fig4"] = catalog.fig4_pattern()
    return out


# ----------------------------------------------------------------------
# count agreement: frontier == general on every catalog pattern
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(catalog_patterns()))
def test_counts_agree_kron(rt, kron, name):
    pattern = catalog_patterns()[name]
    assert (
        rt.count(kron, pattern, engine="frontier").count
        == rt.count(kron, pattern, engine="general").count
    )


@pytest.mark.parametrize("dataset", ["amazon0601", "internet"])
@pytest.mark.parametrize("name", sorted(catalog_patterns()))
def test_counts_agree_datasets(rt, dataset_graphs, dataset, name):
    graph = dataset_graphs[dataset]
    pattern = catalog_patterns()[name]
    assert (
        rt.count(graph, pattern, engine="frontier").count
        == rt.count(graph, pattern, engine="general").count
    )


@st.composite
def graph_edges(draw, max_n=14):
    n = draw(st.integers(min_value=4, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, m in zip(pairs, mask) if m]


class TestRandomizedAgreement:
    @SETTINGS
    @given(graph_edges())
    def test_diamond_and_tailed_clique(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        rt = Runtime()
        for pattern in (catalog.diamond(), catalog.tailed_four_clique(2)):
            assert (
                rt.count(g, pattern, engine="frontier").count
                == rt.count(g, pattern, engine="general").count
            )

    @SETTINGS
    @given(graph_edges(max_n=10), st.integers(min_value=1, max_value=9))
    def test_tiny_budget_still_agrees(self, ne, max_rows):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        rt = Runtime()
        cfg = EngineConfig(max_frontier_rows=max_rows)
        pattern = catalog.four_cycle()
        assert (
            rt.count(g, pattern, engine="frontier", config=cfg).count
            == rt.count(g, pattern, engine="general").count
        )


# ----------------------------------------------------------------------
# matcher equivalence: frontier rows == stack-matcher tuples
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern",
    [catalog.triangle(), catalog.four_cycle(), catalog.diamond(), catalog.four_clique()],
    ids=["triangle", "4-cycle", "diamond", "4-clique"],
)
def test_rows_match_stack_matcher(kron, pattern):
    plan = build_plan(decompose(pattern))
    rows = frontier_match_matrix(kron, plan)
    frontier_set = {tuple(int(v) for v in row) for row in rows}
    assert frontier_set == bounded_rows(kron, plan)
    assert len(rows) == len(frontier_set)  # no duplicate embeddings
    # without the support bound: every stack-matcher tuple
    assert {tuple(map(int, r)) for r in frontier_match_matrix(kron, unbounded(plan))} == set(
        match_cores(kron, plan)
    )


def test_symmetry_breaking_masks_applied(kron):
    """With symmetry breaking off, the frontier sees the full
    group_order-fold set of ordered core embeddings, exactly like the
    stack matcher (each Aut_dec orbit expands to group_order tuples)."""
    decomp = decompose(catalog.four_clique())
    sym = unbounded(build_plan(decomp, symmetry_breaking=True))
    nosym = unbounded(build_plan(decomp, symmetry_breaking=False))
    n_sym = len(frontier_match_matrix(kron, sym))
    n_nosym = len(frontier_match_matrix(kron, nosym))
    assert sym.group_order > 1
    assert n_nosym == n_sym * sym.group_order
    assert {tuple(map(int, r)) for r in frontier_match_matrix(kron, nosym)} == set(
        match_cores(kron, nosym)
    )
    # under the support bound, each side keeps its bounded stack rows
    bounded = build_plan(decomp, symmetry_breaking=False)
    assert {tuple(map(int, r)) for r in frontier_match_matrix(kron, bounded)} == bounded_rows(
        kron, bounded
    )


def test_start_vertices_partition(kron):
    """Root slices partition the embedding set (the parallel layer's
    work-distribution contract)."""
    plan = build_plan(decompose(catalog.diamond()))
    total = len(frontier_match_matrix(kron, plan))
    mid = kron.num_vertices // 2
    lo = len(frontier_match_matrix(kron, plan, start_vertices=range(mid)))
    hi = len(
        frontier_match_matrix(kron, plan, start_vertices=range(mid, kron.num_vertices))
    )
    assert lo + hi == total


# ----------------------------------------------------------------------
# budget splitting and early exit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_rows", [1, 3, 17])
def test_budget_splitting_identical_counts(rt, kron, max_rows):
    pattern = catalog.tailed_four_clique(2)
    cfg = EngineConfig(max_frontier_rows=max_rows)
    stats = FrontierStats()
    plan = build_plan(decompose(pattern))
    blocks = list(iter_frontier_blocks(kron, plan, max_rows=max_rows, stats=stats))
    assert stats.spills > 0  # tiny budgets must actually split
    assert all(len(b) >= 1 for b in blocks)
    assert (
        rt.count(kron, pattern, engine="frontier", config=cfg).count
        == rt.count(kron, pattern, engine="general").count
    )


def test_peak_width_bounded_by_budget(kron):
    plan = build_plan(decompose(catalog.four_clique()))
    unbounded = FrontierStats()
    list(iter_frontier_blocks(kron, plan, stats=unbounded))
    budget = 8
    stats = FrontierStats()
    list(iter_frontier_blocks(kron, plan, max_rows=budget, stats=stats))
    assert stats.peak_width <= max(budget, unbounded.peak_width // 2)
    assert stats.rows == unbounded.rows  # same total work, smaller blocks


def test_empty_frontier_early_exit():
    """A star pattern's hub needs degree 5; a path graph has none, so the
    frontier dies at the root level and the backend reports zero."""
    g = gen.path_graph(12)
    pattern = catalog.star(6)  # 5-star: hub degree 5
    plan = compile_pattern(pattern, EngineConfig())
    partial = FrontierBackend().run(plan, g)
    assert partial.matches == 0
    assert partial.sigma == 0
    assert partial.batches == 0


def test_max_rows_validation(kron):
    plan = build_plan(decompose(catalog.triangle()))
    with pytest.raises(ValueError):
        list(iter_frontier_blocks(kron, plan, max_rows=0))
    with pytest.raises(ValueError):
        EngineConfig(max_frontier_rows=0)


# ----------------------------------------------------------------------
# has_edges_bulk: the vectorized binary search
# ----------------------------------------------------------------------
def test_has_edges_bulk_matches_scalar(kron):
    rng = np.random.default_rng(7)
    u = rng.integers(0, kron.num_vertices, size=500)
    v = rng.integers(0, kron.num_vertices, size=500)
    got = has_edges_bulk(kron.rowptr, kron.colidx, u, v)
    expect = np.array([kron.has_edge(int(a), int(b)) for a, b in zip(u, v)])
    assert np.array_equal(got, expect)


def test_has_edges_bulk_empty_inputs():
    g = CSRGraph.from_edges([], num_vertices=4)
    out = has_edges_bulk(
        g.rowptr, g.colidx, np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64)
    )
    assert not out.any()
    assert has_edges_bulk(g.rowptr, g.colidx, np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)


# ----------------------------------------------------------------------
# orientation: the scan starts above a bounding pivot
# ----------------------------------------------------------------------
def earliest_pivots(plan):
    """``plan`` with every pivot on its earliest back edge: a full scan
    at every level, the reference for the frontier's volume."""
    return dataclasses.replace(
        plan, pivot=tuple(be[0] if be else -1 for be in plan.back_edges)
    )


def frontier_rows(graph, plan, **kwargs):
    stats = FrontierStats()
    blocks = list(iter_frontier_blocks(graph, plan, stats=stats, **kwargs))
    rows = [tuple(int(v) for v in row) for b in blocks for row in b]
    return rows, stats.rows


def assert_orientation_invariant(graph, plan):
    """Frontier rows equal the stack matcher's rows that meet the support
    bound, and without the bound the frontier pushes the rows a full
    scan does, for every budget and both root halves."""
    expect = bounded_rows(graph, plan)
    free = unbounded(plan)  # the earliest pivots' bound would differ
    _, volume = frontier_rows(graph, earliest_pivots(free))
    for max_rows in (None, 1, 3, 17):
        kwargs = {} if max_rows is None else {"max_rows": max_rows}
        rows, _ = frontier_rows(graph, plan, **kwargs)
        assert set(rows) == expect and len(rows) == len(expect)
        _, rows_pushed = frontier_rows(graph, free, **kwargs)
        assert rows_pushed == volume, max_rows
    mid = graph.num_vertices // 2
    lo, _ = frontier_rows(graph, plan, start_vertices=range(mid))
    hi, _ = frontier_rows(graph, plan, start_vertices=range(mid, graph.num_vertices))
    assert set(lo) | set(hi) == expect and len(lo) + len(hi) == len(expect)
    _, lo_pushed = frontier_rows(graph, free, start_vertices=range(mid))
    _, hi_pushed = frontier_rows(graph, free, start_vertices=range(mid, graph.num_vertices))
    assert lo_pushed + hi_pushed == volume


@pytest.mark.parametrize("symmetry_breaking", [True, False], ids=["sym", "nosym"])
@pytest.mark.parametrize("descending", [True, False], ids=["desc", "asc"])
@pytest.mark.parametrize("name", sorted(catalog_patterns()))
def test_orientation_by_degree(kron, name, descending, symmetry_breaking):
    graph = kron.relabel_by_degree(descending=descending)
    decomp = decompose(catalog_patterns()[name])
    assert_orientation_invariant(graph, build_plan(decomp, symmetry_breaking=symmetry_breaking))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_orientation_under_random_labels(kron, data):
    perm = np.array(data.draw(st.permutations(range(kron.num_vertices))))
    graph = CSRGraph.from_edges(perm[kron.edge_array()], num_vertices=kron.num_vertices)
    name = data.draw(st.sampled_from(sorted(catalog_patterns())))
    symmetry_breaking = data.draw(st.booleans())
    decomp = decompose(catalog_patterns()[name])
    assert_orientation_invariant(graph, build_plan(decomp, symmetry_breaking=symmetry_breaking))


def test_pivot_is_the_tightest_bounding_back_edge():
    # 4-clique: a triangle core with 0 < 1 < 2; at level 2 both back
    # edges bound the match and position 1 is the larger
    clique = build_plan(decompose(catalog.four_clique()))
    assert clique.back_edges[2] == (0, 1) and set(clique.less_than[2]) >= {1}
    assert clique.pivot == (-1, 0, 1)
    # 4-cycle: level 2's bound (1) is no back edge, so the earliest stays
    cycle = build_plan(decompose(catalog.four_cycle()))
    assert cycle.back_edges[2] == (0,) and cycle.less_than[2] == (1,)
    assert cycle.pivot[2] == 0
    # no symmetry breaking: no bounds, earliest back edges everywhere
    free = build_plan(decompose(catalog.four_clique()), symmetry_breaking=False)
    assert free.pivot == earliest_pivots(free).pivot


# ----------------------------------------------------------------------
# upper_starts: the per-graph scan start above each vertex
# ----------------------------------------------------------------------
def reference_upper_starts(graph: CSRGraph) -> np.ndarray:
    return np.array(
        [
            graph.rowptr[v] + np.searchsorted(graph.neighbors(v), v)
            for v in range(graph.num_vertices)
        ],
        dtype=np.int64,
    )


def test_upper_starts_with_isolated_vertices():
    # vertices 0, 3 and 7 isolated
    g = CSRGraph.from_edges([(1, 2), (2, 4), (1, 4), (4, 5), (5, 6)], num_vertices=8)
    starts = upper_starts(g)
    assert starts.dtype == np.int64 and starts.shape == (8,)
    assert np.array_equal(starts, reference_upper_starts(g))
    for v in range(8):
        assert (g.colidx[starts[v] : g.rowptr[v + 1]] > v).all()


@pytest.mark.parametrize("n", [0, 1, 5])
def test_upper_starts_on_edgeless_graphs(n):
    g = CSRGraph.from_edges([], num_vertices=n)
    assert np.array_equal(upper_starts(g), np.zeros(n, dtype=np.int64))


def test_upper_starts_on_kron(kron):
    assert np.array_equal(upper_starts(kron), reference_upper_starts(kron))


def test_upper_starts_built_once_under_threads(monkeypatch):
    g = gen.kronecker(6, edge_factor=8, seed=5)
    builds = []
    real = frontier_mod._build_upper_starts

    def counting_build(graph):
        builds.append(graph)
        return real(graph)

    monkeypatch.setattr(frontier_mod, "_build_upper_starts", counting_build)
    barrier = threading.Barrier(8)
    got = [None] * 8

    def touch(i):
        barrier.wait(timeout=60)
        got[i] = upper_starts(g)

    threads = [threading.Thread(target=touch, args=(i,)) for i in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert all(s is got[0] for s in got)


def test_upper_starts_stay_out_of_pickled_graphs():
    g = gen.kronecker(6, edge_factor=8, seed=7)
    before = len(pickle.dumps(g))
    starts = upper_starts(g)
    assert len(pickle.dumps(g)) == before
    clone = pickle.loads(pickle.dumps(g))
    assert upper_starts(clone) is not starts
    assert np.array_equal(upper_starts(clone), starts)
