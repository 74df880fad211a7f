"""The per-graph adjacency bitmap behind :func:`repro.core.frontier.has_edges`.

``has_edges`` is the one graph-level edge test of the frontier matcher and
the Venn pass. These tests hold it to :func:`has_edges_bulk` (the
bisection it replaced, kept as fallback and oracle) and to a dense
``np.packbits`` reference with rows padded to whole 64-bit words, on random and degenerate graphs, on the
over-budget fallback, under concurrent first use, and across a pickle
and a worker pool.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.frontier as frontier_mod
from repro.core.backends import FrontierBackend
from repro.core.engine import EngineConfig
from repro.core.frontier import (
    adjacency_bitmap,
    bitmap_stride,
    build_adjacency_bitmap,
    has_edges,
    has_edges_bulk,
)
from repro.core.plan import compile_pattern
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.obs import Observer
from repro.patterns import catalog
from repro.runtime import Runtime


def dense_bitmap(graph: CSRGraph) -> np.ndarray:
    """The adjacency matrix with each row padded to whole 64-bit words."""
    n = graph.num_vertices
    dense = np.zeros((n, bitmap_stride(n)), dtype=np.uint8)
    src = np.repeat(np.arange(n), graph.degrees)
    dense[src, graph.colidx] = 1
    return np.packbits(dense.ravel(), bitorder="little")


def all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    u, v = np.divmod(np.arange(n * n, dtype=np.int64), max(n, 1))
    return u, v


@st.composite
def graphs(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return CSRGraph.from_edges([], num_vertices=n)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=4 * n,
        )
    )
    return CSRGraph.from_edges(edges, num_vertices=n)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs())
def test_has_edges_equals_bisection_on_every_pair(graph):
    u, v = all_pairs(graph.num_vertices)
    expect = has_edges_bulk(graph.rowptr, graph.colidx, u, v)
    got = has_edges(graph, u, v)
    assert got.dtype == bool and np.array_equal(got, expect)
    if len(graph.colidx):
        assert np.array_equal(adjacency_bitmap(graph), dense_bitmap(graph))


def test_has_edges_on_random_queries():
    g = gen.kronecker(7, edge_factor=8, seed=21)
    rng = np.random.default_rng(3)
    u = rng.integers(0, g.num_vertices, size=20_000)
    v = rng.integers(0, g.num_vertices, size=20_000)
    # half the queries are real edges
    e = rng.integers(0, len(g.colidx), size=10_000)
    u[:10_000] = np.repeat(np.arange(g.num_vertices), g.degrees)[e]
    v[:10_000] = g.colidx[e]
    got = has_edges(g, u, v)
    assert got[:10_000].all()
    assert np.array_equal(got, has_edges_bulk(g.rowptr, g.colidx, u, v))


# ----------------------------------------------------------------------
# degenerate graphs and queries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 5])
def test_edgeless_graphs_get_no_bitmap(n):
    g = CSRGraph.from_edges([], num_vertices=n)
    assert adjacency_bitmap(g) is None
    u, v = all_pairs(n)
    with Observer(trace=False) as ob:
        assert not has_edges(g, u, v).any()
    # an edgeless graph is not a budget fallback
    assert ob.metrics.counter("repro_frontier_bitmap_fallbacks_total").value == 0
    assert len(build_adjacency_bitmap(g)) == n * bitmap_stride(n) // 8


def test_isolated_vertices():
    # vertices 5..7 isolated; 0..4 a path plus a chord
    g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], num_vertices=8)
    u, v = all_pairs(8)
    got = has_edges(g, u, v)
    assert np.array_equal(got, has_edges_bulk(g.rowptr, g.colidx, u, v))
    assert not got.reshape(8, 8)[5:].any() and not got.reshape(8, 8)[:, 5:].any()
    assert np.array_equal(adjacency_bitmap(g), dense_bitmap(g))


def test_empty_queries():
    g = gen.kronecker(5, edge_factor=4, seed=2)
    empty = np.empty(0, dtype=np.int64)
    out = has_edges(g, empty, empty)
    assert out.shape == (0,) and out.dtype == bool


# ----------------------------------------------------------------------
# budget, cache, pickling, observability
# ----------------------------------------------------------------------
def test_over_budget_falls_back_to_bisection(monkeypatch):
    g = gen.kronecker(6, edge_factor=8, seed=17)
    monkeypatch.setattr(frontier_mod, "BITMAP_BUDGET_BYTES", 0)
    assert adjacency_bitmap(g) is None
    u, v = all_pairs(g.num_vertices)
    with Observer(trace=False) as ob:
        got = has_edges(g, u, v)
    assert np.array_equal(got, has_edges_bulk(g.rowptr, g.colidx, u, v))
    assert ob.metrics.counter("repro_frontier_bitmap_fallbacks_total").value == 1
    assert ob.metrics.counter("repro_frontier_bitmap_builds_total").value == 0
    rt = Runtime()
    for pattern in (catalog.four_clique(), catalog.diamond(), catalog.fig4_pattern()):
        with Observer(trace=False) as ob:
            frontier = rt.count(g, pattern, engine="frontier").count
        assert ob.metrics.counter("repro_frontier_bitmap_fallbacks_total").value > 0
        assert frontier == rt.count(g, pattern, engine="general").count


def test_concurrent_first_use_builds_one_bitmap(monkeypatch):
    g = gen.kronecker(6, edge_factor=8, seed=5)
    builds = []
    real = frontier_mod.build_adjacency_bitmap

    def counting_build(graph):
        builds.append(graph)
        return real(graph)

    monkeypatch.setattr(frontier_mod, "build_adjacency_bitmap", counting_build)
    barrier = threading.Barrier(8)
    got = [None] * 8

    def touch(i):
        barrier.wait(timeout=60)
        got[i] = adjacency_bitmap(g)

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
    assert got[0] is not None and all(b is got[0] for b in got)


def test_bitmap_stays_out_of_pickled_graphs():
    g = gen.kronecker(6, edge_factor=8, seed=7)
    before = len(pickle.dumps(g))
    assert adjacency_bitmap(g) is not None
    assert len(pickle.dumps(g)) == before
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and adjacency_bitmap(clone) is not adjacency_bitmap(g)
    assert np.array_equal(adjacency_bitmap(clone), adjacency_bitmap(g))


def test_one_count_builds_one_bitmap_and_the_next_none():
    g = gen.kronecker(6, edge_factor=8, seed=9)
    rt = Runtime()
    pattern = catalog.four_clique()
    rt.plan_for(pattern)  # compiling may count on the pattern's own graph
    with Observer() as ob:
        first = rt.count(g, pattern, engine="frontier")
    m = ob.metrics
    nbytes = g.num_vertices * bitmap_stride(g.num_vertices) // 8
    assert m.counter("repro_frontier_bitmap_builds_total").value == 1
    assert m.gauge("repro_frontier_bitmap_bytes").value == nbytes
    assert m.counter("repro_frontier_bitmap_fallbacks_total").value == 0
    (span,) = [s for s in ob.tracer.spans if s.name == "frontier.bitmap_build"]
    assert span.attrs == {"n": g.num_vertices, "bytes": nbytes}
    with Observer() as ob2:
        second = rt.count(g, pattern, engine="frontier")
    assert ob2.metrics.counter("repro_frontier_bitmap_builds_total").value == 0
    assert first.count == second.count == rt.count(g, pattern, engine="general").count


def test_worker_pool_count_equals_in_process():
    from repro.parallel.shm import shm_available
    from repro.parallel.workerpool import WorkerPool

    if not shm_available():
        pytest.skip("no shared memory")
    graph = gen.barabasi_albert(300, 4, seed=13)
    pool = WorkerPool(2)
    try:
        builds: dict[int, int] = {}  # pid -> bitmap builds over both calls
        ran: set[int] = set()  # pids that ran at least one chunk
        for pattern in (catalog.four_clique(), catalog.diamond()):
            plan = compile_pattern(pattern, EngineConfig())
            expect = FrontierBackend().run(plan, graph).sigma
            with Observer(trace=False):
                got = pool.count(plan, graph, chunk_size=32)
            assert got.sigma == expect
            assert got.workers  # the workers really ran
            for w in got.workers:
                builds[w.pid] = builds.get(w.pid, 0) + sum(
                    entry["value"]
                    for entry in w.metrics
                    if entry["name"] == "repro_frontier_bitmap_builds_total"
                )
                if w.chunks:
                    ran.add(w.pid)
        # each worker builds its own bitmap once, on the graph it attached,
        # in whichever call first hands it a chunk
        assert ran and {pid: builds[pid] for pid in ran} == dict.fromkeys(ran, 1)
    finally:
        pool.close()
