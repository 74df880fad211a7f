"""One Venn per distinct anchor set (:func:`repro.core.backends.venn_poly_sums`).

The batched backends compute ``venn_batch`` once per distinct sorted
anchor set of a block and rebuild each row's diagram from it
(:func:`repro.core.venn.row_venns`). These tests capture the matrices
the helper hands to the polynomial and require them to equal the
undeduplicated ``venn_batch(graph, block[:, positions], block)`` row for
row, across graphs, anchor orders, non-anchor core vertices, frontier
spills and chunk sizes.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import FrontierBackend, compile_pattern
from repro.core.backends import venn_poly_sums
from repro.core.engine import EngineConfig
from repro.core.fringe_poly import compile_fringe_polynomial
from repro.core.frontier import iter_frontier_blocks
from repro.core.venn import unique_anchor_sets, venn_batch
from repro.graph import datasets, generators as gen
from repro.graph.csr import CSRGraph
from repro.obs import Observer
from repro.patterns import catalog
from repro.patterns.dsl import parse_pattern

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# the Fig. 1 catalog (every pattern has anchored fringes) plus the
# fringe-heavy tails and Fig. 4
CATALOG = {
    **catalog.fig1_patterns(),
    "paw": catalog.paw(),
    "2-tailed 4-clique": catalog.tailed_four_clique(2),
    "3-tailed 4-clique": catalog.tailed_four_clique(3),
    "fig4": catalog.fig4_pattern(),
}


class _Capture:
    """Stands in for a FringePolynomial and keeps every matrix it gets."""

    def __init__(self):
        self.chunks: list[np.ndarray] = []

    def evaluate_batch(self, venns: np.ndarray) -> int:
        self.chunks.append(venns.copy())
        return len(venns)


@functools.cache
def plan_of(name: str):
    """A catalog name or DSL expression, compiled once per session (some
    of these patterns take seconds to compile)."""
    return compile_pattern(CATALOG[name] if name in CATALOG else parse_pattern(name))


def assert_rows_equal_venn_batch(graph, plan, *, max_rows=1 << 20, batch_size=4096):
    """Every block's deduplicated rows equal the direct venn_batch rows."""
    positions = list(plan.anchored_positions)
    assert positions, "pattern must have anchored fringes"
    blocks = 0
    for block in iter_frontier_blocks(graph, plan.core_plan, max_rows=max_rows):
        cap = _Capture()
        (rows,), batches = venn_poly_sums(graph, block, positions, [cap], batch_size)
        assert rows == len(block)
        assert batches == len(cap.chunks) == -(-len(block) // batch_size)
        assert all(len(c) <= batch_size for c in cap.chunks)
        got = np.concatenate(cap.chunks)
        expect = venn_batch(graph, block[:, positions], block)
        np.testing.assert_array_equal(got, expect)
        blocks += 1
    return blocks


@pytest.fixture(scope="module")
def kron() -> CSRGraph:
    return gen.kronecker(6, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def graphs(kron) -> dict[str, CSRGraph]:
    return {
        "kron": kron,
        "amazon0601": datasets.make("amazon0601", "tiny"),
        "internet": datasets.make("internet", "tiny"),
    }


@pytest.mark.parametrize("graph_name", ["kron", "amazon0601", "internet"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_rows_equal_venn_batch(graphs, graph_name, name):
    assert_rows_equal_venn_batch(graphs[graph_name], plan_of(name))


@pytest.mark.parametrize(
    "expr",
    [
        "paw",
        "tailed-triangle",
        "triangle + 1x0 + 2x1 + 3x2",  # q = 3, every anchor permutation occurs
        "5-cycle + 1x0",  # q = 3 with a non-anchor core vertex
    ],
)
def test_anchor_order_differs_from_sorted_order(kron, expr):
    plan = plan_of(expr)
    positions = list(plan.anchored_positions)
    (block,) = list(iter_frontier_blocks(kron, plan.core_plan))
    _, _, rank = unique_anchor_sets(block[:, positions], kron.num_vertices)
    # the case under test really occurs: some rows are not in sorted order
    assert (rank != np.arange(len(positions))).any()
    assert_rows_equal_venn_batch(kron, plan, batch_size=97)


def test_non_anchor_core_vertex_adjacent_to_anchors(kron):
    # 4-cycle = wedge core + one wedge fringe: the wedge centre is a
    # non-anchor core vertex adjacent to both anchors
    plan = plan_of("4-cycle")
    assert len(plan.anchored_positions) < len(plan.core_plan.order)
    assert_rows_equal_venn_batch(kron, plan)


@pytest.mark.parametrize("max_rows", [1, 3, 17])
@pytest.mark.parametrize("batch_size", [1, 7])
@pytest.mark.parametrize(
    "expr", ["4-cycle", "paw", "triangle + 1x0 + 2x1 + 3x2", "5-cycle + 1x0"]
)
def test_forced_spills_and_small_chunks(expr, max_rows, batch_size):
    g = gen.kronecker(4, edge_factor=6, seed=1)
    blocks = assert_rows_equal_venn_batch(
        g, plan_of(expr), max_rows=max_rows, batch_size=batch_size
    )
    assert blocks > 1


@st.composite
def graph_edges(draw, max_n=14):
    n = draw(st.integers(min_value=4, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, m in zip(pairs, mask) if m]


class TestRandomGraphs:
    @SETTINGS
    @given(graph_edges(), st.sampled_from([1, 5, 4096]))
    def test_rows_equal_venn_batch(self, ne, batch_size):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        for expr in ("4-cycle", "paw", "diamond + 1x0", "triangle + 1x0 + 2x1 + 3x2"):
            assert_rows_equal_venn_batch(g, plan_of(expr), batch_size=batch_size)


def test_row_wise_fallback_when_keys_do_not_pack():
    # 2^21 vertices: n^3 overflows a 62-bit key, so the row-wise unique runs
    n = 1 << 21
    anchors = np.array([[5, n - 1, 9], [9, 5, n - 1], [1, 2, 3], [n - 1, 9, 5]])
    sets, inverse, rank = unique_anchor_sets(anchors, n)
    np.testing.assert_array_equal(sets, [[1, 2, 3], [5, 9, n - 1]])
    np.testing.assert_array_equal(inverse, [1, 1, 0, 1])
    np.testing.assert_array_equal(np.take_along_axis(sets[inverse], rank, axis=1), anchors)


def test_multipattern_sums_share_one_venn(kron):
    plan = plan_of("paw")
    positions = list(plan.anchored_positions)
    (block,) = list(iter_frontier_blocks(kron, plan.core_plan))
    other = compile_fringe_polynomial([0b01, 0b10], [1, 2], plan.q)
    sums, _ = venn_poly_sums(kron, block, positions, [plan.poly, other], 64)
    venns = venn_batch(kron, block[:, positions], block)
    assert sums == [plan.poly.evaluate_batch(venns), other.evaluate_batch(venns)]


def test_unique_anchor_counter_and_set_size_samples(kron):
    plan = compile_pattern(catalog.four_cycle(), EngineConfig(batch_size=128))
    with Observer(trace=False) as ob:
        partial = FrontierBackend().run(plan, kron)
    (block,) = list(iter_frontier_blocks(kron, plan.core_plan))
    sets, _, _ = unique_anchor_sets(block[:, list(plan.anchored_positions)], kron.num_vertices)
    m = ob.metrics
    assert m.counter("repro_venn_unique_anchor_rows_total").value == len(sets)
    assert len(sets) < partial.matches
    assert m.histogram("repro_venn_set_size").count == partial.matches
    assert m.counter("repro_core_matches_total").value == partial.matches
