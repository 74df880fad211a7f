"""Algebraic Venn (:func:`repro.core.venn.venn_sets`) against the sort-reduce oracle.

``venn_sets(graph, sets)`` must equal ``venn_batch(graph, sets, sets)``
for any matrix of distinct-vertex rows: on the distinct anchor sets the
frontier path really produces, on random graphs and rows (sorted or not),
and on degenerate graphs. The pair index it reads (the strict upper
triangle of ``A·A``) must equal a brute-force product at any build block
size, be built once per graph even under concurrent first use, stay out
of pickled graphs, and give way to ``venn_batch`` when over budget.
"""

import functools
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Runtime
from repro.core import FrontierBackend, compile_pattern
from repro.core import backends
from repro.core import frontier as frontier_mod
from repro.core import venn as venn_mod
from repro.core.venn import build_pair_index, pair_index, venn_batch, venn_sets
from repro.graph import datasets, generators as gen
from repro.graph.csr import CSRGraph
from repro.obs import Observer
from repro.patterns import catalog
from repro.patterns.dsl import parse_pattern

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CATALOG = {
    **catalog.fig1_patterns(),
    "paw": catalog.paw(),
    "2-tailed 4-clique": catalog.tailed_four_clique(2),
    "fig4": catalog.fig4_pattern(),
    "q=4": parse_pattern("4-clique + 1x0 + 1x1 + 1x2 + 1x3"),
}


@functools.cache
def plan_of(name: str):
    return compile_pattern(CATALOG[name])


def dense_a2_upper(graph: CSRGraph) -> np.ndarray:
    n = graph.num_vertices
    a = np.zeros((n, n), dtype=np.int64)
    edges = graph.edge_array()
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1
    return np.triu(a @ a, 1)


def index_as_dense(index, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.int64)
    rows, cols = np.divmod(index.keys.astype(np.int64), max(n, 1))
    out[rows, cols] = index.vals
    return out


def assert_equal_oracle(graph: CSRGraph, sets: np.ndarray) -> None:
    np.testing.assert_array_equal(venn_sets(graph, sets), venn_batch(graph, sets, sets))


@pytest.fixture(scope="module")
def graphs() -> dict[str, CSRGraph]:
    return {
        "kron": gen.kronecker(6, edge_factor=8, seed=3),
        "amazon0601": datasets.make("amazon0601", "tiny"),
        "internet": datasets.make("internet", "tiny"),
    }


# ----------------------------------------------------------------------
# the distinct sets the frontier path hands to venn_sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", ["kron", "amazon0601", "internet"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_captured_distinct_sets_equal_venn_batch(graphs, graph_name, name, monkeypatch):
    graph, plan = graphs[graph_name], plan_of(name)
    calls = []

    def capture(g, sets, *known):
        # rows scored one by one also pass the pairs they already know
        venns = venn_sets(g, sets, *known)
        calls.append((sets.copy(), venns.copy()))
        return venns

    monkeypatch.setattr(backends, "venn_sets", capture)
    partial = FrontierBackend().run(plan, graph)
    assert calls or partial.matches == 0
    for sets, venns in calls:
        assert sets.shape[1] == plan.q
        assert_equal_oracle(graph, sets)
        np.testing.assert_array_equal(venns, venn_batch(graph, sets, sets))


# ----------------------------------------------------------------------
# random graphs, random rows
# ----------------------------------------------------------------------
@st.composite
def graph_and_rows(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    q = draw(st.integers(min_value=1, max_value=min(4, n)))
    rows = draw(
        st.lists(st.permutations(range(n)).map(lambda p: p[:q]), min_size=0, max_size=30)
    )
    edges = [p for p, m in zip(pairs, mask) if m]
    graph = CSRGraph.from_edges(edges, num_vertices=n)
    return graph, np.asarray(rows, dtype=np.int64).reshape(len(rows), q)


class TestRandom:
    @SETTINGS
    @given(graph_and_rows())
    def test_rows_equal_venn_batch(self, graph_rows):
        graph, sets = graph_rows
        assert_equal_oracle(graph, sets)
        # sorted rows too: the production shape
        assert_equal_oracle(graph, np.sort(sets, axis=1))

    @SETTINGS
    @given(graph_and_rows(), st.sampled_from([1, 7]))
    def test_index_equals_dense_product(self, graph_rows, block_paths):
        graph, _ = graph_rows
        index = build_pair_index(graph, block_paths)
        got = index_as_dense(index, graph.num_vertices)
        np.testing.assert_array_equal(got, dense_a2_upper(graph))


def test_every_row_order_of_a_clique_with_pendants():
    # K4 plus pendants on each vertex: every anchor pair adjacent, every
    # region populated; all 24 row orders of the 4 anchors
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, 4 + 2 * i) for i in range(4)] + [(i, 5 + 2 * i) for i in range(4)]
    edges += [(4, 1), (6, 2), (8, 3), (4, 2)]
    g = CSRGraph.from_edges(edges)
    rows = np.array(list(itertools.permutations(range(4))), dtype=np.int64)
    assert_equal_oracle(g, rows)
    for q in (2, 3):
        assert_equal_oracle(g, rows[:, :q])


@pytest.mark.parametrize("block_paths", [1, 7, venn_mod.INDEX_BLOCK_PATHS])
def test_index_block_sizes_on_kron(graphs, block_paths):
    graph = graphs["kron"]
    index = build_pair_index(graph, block_paths)
    assert index.keys.dtype == index.vals.dtype == np.int32
    assert (np.diff(index.keys) > 0).all()
    np.testing.assert_array_equal(
        index_as_dense(index, graph.num_vertices), dense_a2_upper(graph)
    )
    # the bound the budget checks is an upper bound on the nonzeros
    deg = graph.degrees
    assert len(index.keys) <= int((deg * (deg - 1) // 2).sum())


# ----------------------------------------------------------------------
# degenerate graphs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_edgeless_graph(q):
    g = CSRGraph.from_edges([], num_vertices=6)
    sets = np.array([[5, 0, 3, 1][:q], [2, 4, 1, 0][:q]], dtype=np.int64)
    assert_equal_oracle(g, sets)
    assert not venn_sets(g, sets).any()
    assert len(pair_index(g).keys) == 0


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_empty_graph_and_empty_rows(q):
    g = CSRGraph.from_edges([], num_vertices=0)
    empty = np.empty((0, q), dtype=np.int64)
    assert venn_sets(g, empty).shape == (0, 1 << q)
    assert_equal_oracle(g, empty)


def test_isolated_vertices():
    # vertices 5..7 isolated; 0..4 a path plus a chord
    g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], num_vertices=8)
    rows = [[5, 6], [1, 7], [7, 2, 0], [0, 2, 6, 3], [6, 5, 7], [2, 0]]
    for row in rows:
        assert_equal_oracle(g, np.array([row]))
    assert_equal_oracle(g, np.array([r for r in rows if len(r) == 2]))


# ----------------------------------------------------------------------
# cache, budget, pickling, observability
# ----------------------------------------------------------------------
def test_over_budget_falls_back_to_venn_batch(monkeypatch):
    g = gen.kronecker(5, edge_factor=6, seed=11)
    monkeypatch.setattr(venn_mod, "INDEX_BUDGET_BYTES", 0)
    assert pair_index(g) is None
    sets = np.array([[0, 1, 2], [3, 1, 4], [7, 5, 6]], dtype=np.int64)
    with Observer(trace=False) as ob:
        assert_equal_oracle(g, sets)
        assert_equal_oracle(g, sets[:, :1])  # q = 1 needs no index
    assert ob.metrics.counter("repro_venn_index_fallbacks_total").value == 1
    assert ob.metrics.counter("repro_venn_index_builds_total").value == 0
    # and a whole count over the fallback still matches the per-match oracle
    pattern = catalog.diamond()
    rt = Runtime()
    assert (
        rt.count(g, pattern, engine="frontier").count
        == rt.count(g, pattern, engine="general").count
    )


def test_concurrent_first_use_builds_one_index(monkeypatch):
    g = gen.kronecker(6, edge_factor=8, seed=5)
    builds = []
    real = venn_mod.build_pair_index

    def counting_build(graph, *args):
        builds.append(graph)
        return real(graph, *args)

    monkeypatch.setattr(venn_mod, "build_pair_index", counting_build)
    barrier = threading.Barrier(8)
    got = [None] * 8

    def touch(i):
        barrier.wait(timeout=60)
        got[i] = pair_index(g)

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
    assert all(index is got[0] for index in got) and got[0] is not None


def test_index_stays_out_of_pickled_graphs():
    g = gen.kronecker(6, edge_factor=8, seed=7)
    before = len(pickle.dumps(g))
    assert len(pair_index(g).keys) > 0
    assert len(pickle.dumps(g)) == before
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and pair_index(clone) is not pair_index(g)


def test_one_count_builds_one_index_and_the_next_none():
    g = gen.kronecker(6, edge_factor=8, seed=9)
    rt = Runtime()
    # the 4-cycle's anchors are no pivot edge: their pairs are looked up
    pattern = catalog.four_cycle()
    rt.plan_for(pattern)  # compiling may count on the pattern's own graph
    with Observer() as ob:
        first = rt.count(g, pattern, engine="frontier")
    m = ob.metrics
    assert m.counter("repro_venn_index_builds_total").value == 1
    assert m.gauge("repro_venn_index_bytes").value == pair_index(g).nbytes
    assert m.counter("repro_venn_index_fallbacks_total").value == 0
    (span,) = [s for s in ob.tracer.spans if s.name == "venn.index_build"]
    assert span.attrs == {
        "n": g.num_vertices,
        "nnz": len(pair_index(g).keys),
        "bytes": pair_index(g).nbytes,
    }
    with Observer() as ob2:
        second = rt.count(g, pattern, engine="frontier")
    assert ob2.metrics.counter("repro_venn_index_builds_total").value == 0
    assert not [s for s in ob2.tracer.spans if s.name == "venn.index_build"]
    oracle = rt.count(g, pattern, engine="general")
    assert first.count == second.count == oracle.count


# ----------------------------------------------------------------------
# popcount intersections, fallbacks and the pair keys
# ----------------------------------------------------------------------
@st.composite
def sparse_graph_and_rows(draw, max_n=70):
    """Random graphs with isolated vertices (edges drawn among a prefix
    of the ids, maybe none) and rows of q = 1..4 distinct vertices; up to
    70 vertices, so bitmap rows span two 64-bit words."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    touched = draw(st.integers(min_value=0, max_value=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, max(touched - 1, 0)), st.integers(0, max(touched - 1, 0))),
            max_size=6 * touched,
        )
    )
    graph = CSRGraph.from_edges([e for e in edges if e[0] != e[1]], num_vertices=n)
    q = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(st.permutations(range(n)).map(lambda p: p[:q]), min_size=1, max_size=20)
    )
    return graph, np.asarray(rows, dtype=np.int64)


@pytest.mark.parametrize("budget", ["none", "bitmap", "index"])
@SETTINGS
@given(graph_rows=sparse_graph_and_rows())
def test_sets_equal_venn_batch_under_every_budget(budget, graph_rows):
    graph, sets = graph_rows
    with pytest.MonkeyPatch.context() as mp:
        if budget == "bitmap":
            mp.setattr(frontier_mod, "BITMAP_BUDGET_BYTES", 0)
        elif budget == "index":
            mp.setattr(venn_mod, "INDEX_BUDGET_BYTES", -1)
        assert_equal_oracle(graph, sets)
        assert_equal_oracle(graph, np.sort(sets, axis=1))


def test_over_bitmap_budget_falls_back_to_venn_batch(monkeypatch):
    g = gen.kronecker(5, edge_factor=6, seed=11)
    monkeypatch.setattr(frontier_mod, "BITMAP_BUDGET_BYTES", 0)
    sets = np.array([[0, 1, 2], [3, 1, 4], [7, 5, 6]], dtype=np.int64)
    with Observer(trace=False) as ob:
        assert_equal_oracle(g, sets)
        assert_equal_oracle(g, sets[:, :2])  # q = 2 reads the index alone
    assert ob.metrics.counter("repro_venn_index_fallbacks_total").value == 1
    assert pair_index(g) is not None


def test_intersections_read_padded_bitmap_rows():
    # 130 vertices: three words per row, the last one mostly padding; a
    # hub 0 joined to everyone and a clique on the top ids cross the words
    n = 130
    edges = [(0, v) for v in range(1, n)]
    edges += [(u, v) for u in range(120, n) for v in range(u + 1, n)]
    edges += [(5, 70), (5, 127), (70, 127), (63, 64), (64, 65), (63, 65)]
    g = CSRGraph.from_edges(edges, num_vertices=n)
    rows = np.array([[121, 125, 129, 0], [5, 70, 127, 0], [63, 64, 65, 0], [0, 1, 2, 3]])
    for q in (3, 4):
        assert_equal_oracle(g, rows[:, :q])


@pytest.mark.parametrize("n", [300, 46_341])
def test_lookup_equals_dense_product_for_both_key_dtypes(n):
    rng = np.random.default_rng(n)
    # ~40 touched vertices spread over the id range; the rest isolated
    touched = np.sort(rng.choice(n, size=40, replace=False))
    pairs = rng.integers(0, 40, size=(160, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    g = CSRGraph.from_edges(touched[pairs].tolist(), num_vertices=n)
    index = build_pair_index(g, block_paths=17)
    assert index.keys.dtype == (np.int32 if n * n < 1 << 31 else np.int64)
    assert index.nbytes == (index.keys.itemsize + 4) * len(index.keys)
    sub = np.zeros((40, 40), dtype=np.int64)
    local = np.searchsorted(touched, g.edge_array())
    sub[local[:, 0], local[:, 1]] = sub[local[:, 1], local[:, 0]] = 1
    expect = sub @ sub
    iu, ju = np.triu_indices(40, 1)
    np.testing.assert_array_equal(index.lookup(touched[iu], touched[ju]), expect[iu, ju])
    # pairs with an isolated vertex share nothing
    lonely = np.setdiff1d(np.arange(min(n, 500)), touched)[:20]
    np.testing.assert_array_equal(index.lookup(lonely[:10], lonely[10:]), 0)
