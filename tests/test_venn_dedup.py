"""One grouping per frontier block (:func:`repro.core.backends.venn_poly_sums`).

The batched backends group a block's rows by anchor set, anchor order and
the free exclusion bits of the non-anchor core vertices
(:func:`repro.core.venn.group_anchor_rows`), compute one ``venn_sets``
diagram per distinct set, rebuild one diagram per group and hand every
polynomial one row per group with the group's size as its weight. These
tests capture what the polynomial receives and require it to equal the
undeduplicated ``venn_batch(graph, block[:, positions], block)`` rows as
a multiset, and the weighted sums to equal the per-row sums, across
graphs, anchor orders, non-anchor core vertices (with and without free
bits), frontier spills and chunk sizes.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime import _shared_plan
from repro.core import FrontierBackend, compile_pattern
from repro.core.backends import _exclusions, venn_poly_sums
from repro.core.engine import EngineConfig
from repro.core.fringe_poly import compile_fringe_polynomial
from repro.core.frontier import iter_frontier_blocks
from repro.core.venn import group_anchor_rows, venn_batch
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

# cores with a non-anchor vertex: the 4-cycle's is adjacent to both
# anchors (no free bits), the others are not adjacent to every anchor
FREE_BIT_PATTERNS = [
    "4-cycle",
    "5-cycle + 1x0",
    "6-cycle + 1x0 + 1x3",
    "edges:0-1,1-2,2-3,3-4,4-0,0-5",
]


class _Capture:
    """Stands in for a FringePolynomial and keeps every matrix it gets."""

    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []

    def evaluate_batch(self, venns: np.ndarray, counts: np.ndarray | None = None) -> int:
        counts = np.ones(len(venns), dtype=np.int64) if counts is None else counts
        self.chunks.append(venns.copy())
        self.counts.append(np.asarray(counts).copy())
        return int(np.sum(counts))


@functools.cache
def plan_of(name: str):
    """A catalog name or DSL expression, compiled once per session (some
    of these patterns take seconds to compile)."""
    return compile_pattern(CATALOG[name] if name in CATALOG else parse_pattern(name))


def sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])] if len(rows) else rows


def assert_rows_equal_venn_batch(graph, plan, *, max_rows=1 << 20, batch_size=4096):
    """Every block's grouped rows, expanded by their counts, equal the
    direct venn_batch rows as a multiset; the weighted polynomial sum
    equals the per-row one."""
    positions = list(plan.anchored_positions)
    assert positions, "pattern must have anchored fringes"
    blocks = 0
    for block in iter_frontier_blocks(graph, plan.core_plan, max_rows=max_rows):
        cap = _Capture()
        member = dataclasses.replace(plan, poly=cap)
        (rows,), batches = venn_poly_sums(graph, block, plan, [member], batch_size)
        assert rows == len(block)
        assert batches == len(cap.chunks)
        assert all(0 < len(c) <= batch_size for c in cap.chunks)
        got = np.repeat(np.concatenate(cap.chunks), np.concatenate(cap.counts), axis=0)
        expect = venn_batch(graph, block[:, positions], block)
        np.testing.assert_array_equal(sorted_rows(got), sorted_rows(expect))
        (weighted,), _ = venn_poly_sums(graph, block, plan, [plan], batch_size)
        assert weighted == plan.poly.evaluate_batch(expect)
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
    # the case under test really occurs: some rows are not in sorted order
    assert (np.diff(block[:, positions], axis=1) < 0).any()
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


def _groups(result) -> dict:
    """(anchor row, free bits) -> size, from a group_anchor_rows result."""
    sets, set_of, rank, free, counts = result
    rows = np.take_along_axis(sets[set_of], rank, axis=1)
    return {(tuple(r), f): c for r, f, c in zip(rows.tolist(), free.tolist(), counts.tolist())}


def test_row_wise_fallback_when_keys_do_not_pack():
    # 2^21 vertices: n^3 overflows a 62-bit key, so the row-wise unique runs
    n = 1 << 21
    anchors = np.array([[5, n - 1, 9], [9, 5, n - 1], [1, 2, 3], [n - 1, 9, 5], [9, 5, n - 1]])
    free = np.array([0, 1, 0, 0, 1])
    result = group_anchor_rows(anchors, free, 1, n)
    np.testing.assert_array_equal(result[0], [[1, 2, 3], [5, 9, n - 1]])
    expect = {((5, n - 1, 9), 0): 1, ((9, 5, n - 1), 1): 2, ((1, 2, 3), 0): 1, ((n - 1, 9, 5), 0): 1}
    assert _groups(result) == expect
    # the packed key groups the same rows the same way
    small = group_anchor_rows(np.where(anchors == n - 1, 63, anchors), free, 1, 64)
    np.testing.assert_array_equal(small[0], [[1, 2, 3], [5, 9, 63]])
    assert _groups(small) == {
        (tuple(63 if v == n - 1 else v for v in row), f): c for (row, f), c in expect.items()
    }


def test_multipattern_sums_share_one_venn(kron):
    plan = plan_of("paw")
    positions = list(plan.anchored_positions)
    (block,) = list(iter_frontier_blocks(kron, plan.core_plan))
    other = dataclasses.replace(plan, poly=compile_fringe_polynomial([0b01, 0b10], [1, 2], plan.q))
    sums, _ = venn_poly_sums(kron, block, plan, [plan, other], 64)
    venns = venn_batch(kron, block[:, positions], block)
    assert sums == [plan.poly.evaluate_batch(venns), other.poly.evaluate_batch(venns)]


def test_unique_anchor_counter_and_set_size_samples(kron):
    plan = compile_pattern(catalog.four_cycle(), EngineConfig(batch_size=128))
    with Observer(trace=False) as ob:
        partial = FrontierBackend().run(plan, kron)
    (block,) = list(iter_frontier_blocks(kron, plan.core_plan))
    anchors = block[:, list(plan.anchored_positions)]
    sets = np.unique(np.sort(anchors, axis=1), axis=0)
    m = ob.metrics
    assert m.counter("repro_venn_unique_anchor_rows_total").value == len(sets)
    assert len(sets) < partial.matches
    assert m.histogram("repro_venn_set_size").count == partial.matches
    assert m.counter("repro_core_matches_total").value == partial.matches


# ----------------------------------------------------------------------
# free exclusion bits
# ----------------------------------------------------------------------
def test_exclusion_bits_follow_the_core():
    # 4-cycle: the wedge centre is adjacent to both anchors, nothing free
    ((_, fixed, free),) = _exclusions(plan_of("4-cycle"))
    assert fixed == 0b11 and free == ()
    for expr in FREE_BIT_PATTERNS[1:]:
        assert any(free for _, _, free in _exclusions(plan_of(expr))), expr


@pytest.mark.parametrize("max_rows, batch_size", [(1 << 20, 4096), (400, 3)])
@pytest.mark.parametrize("expr", FREE_BIT_PATTERNS)
def test_free_bit_patterns_equal_per_row_scoring(expr, max_rows, batch_size):
    g = gen.kronecker(5, edge_factor=4, seed=1)
    assert_rows_equal_venn_batch(g, plan_of(expr), max_rows=max_rows, batch_size=batch_size)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_small_chunks_equal_per_row_scoring(name):
    g = gen.kronecker(4, edge_factor=6, seed=2)
    assert_rows_equal_venn_batch(g, plan_of(name), max_rows=25, batch_size=5)


# ----------------------------------------------------------------------
# one shared pass, each member under its own degree filter
# ----------------------------------------------------------------------
def test_members_score_only_rows_their_own_filter_keeps():
    from repro.bench import workloads as W

    graph = datasets.make("kron_g500-logn20", "tiny")
    series = dict(W.fig14_series(10))
    plans = [compile_pattern(p) for p in series.values()]
    assert len({p.core_plan.min_degree for p in plans}) > 1  # filters really differ
    shared = _shared_plan(plans)
    caps = [_Capture() for _ in plans]
    members = [dataclasses.replace(p, poly=c) for p, c in zip(plans, caps)]
    partial = FrontierBackend().run(shared, graph, members=members)
    for plan, cap, scored in zip(plans, caps, partial.sums):
        own = FrontierBackend().run(dataclasses.replace(plan, poly=_Capture()), graph).matches
        assert scored == own
        assert sum(int(c.sum()) for c in cap.counts) == own
    # the weakest filter is one member's own: that member scores every match
    assert partial.matches == max(partial.sums) > min(partial.sums)
