"""Pivot-edge slots and the per-row Venn path of the frontier backend.

The frontier matcher reads each candidate from a CSR slot of its pivot's
adjacency list; for the levels :func:`repro.core.backends.
pivot_slot_levels` names it carries that slot with the row, and
:func:`repro.core.backends.venn_poly_sums` reads the pivot edge's common
neighbours from the graph's per-slot counts
(:func:`repro.core.venn.slot_common_neighbors`) at that slot. These tests
require

* every carried slot to hold the vertex of its level and lie in the row
  of the level's pivot, with the blocks unchanged by carrying;
* the per-slot counts to equal the pair index on every slot, whatever
  the graph (isolated vertices, no edges) and edge-test path (bitmap or
  bisection);
* the fold rule to skip grouping only where every group would hold one
  row;
* the rows scored one by one to equal ``venn_batch`` row for row.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Runtime
from repro.core import FrontierBackend, compile_pattern
from repro.core import frontier as frontier_mod
from repro.core import venn as venn_mod
from repro.core.backends import groups_can_fold, pivot_slot_levels, venn_poly_sums
from repro.core.frontier import GraphCache, iter_frontier_blocks
from repro.core.venn import (
    build_pair_index,
    build_slot_common_neighbors,
    group_anchor_rows,
    slot_common_neighbors,
    venn_batch,
)
from repro.graph import datasets, generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.dsl import parse_pattern

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CATALOG = {
    **catalog.fig1_patterns(),
    "paw": catalog.paw(),
    "2-tailed 4-clique": catalog.tailed_four_clique(2),
    "fig4": catalog.fig4_pattern(),
    "5-clique": parse_pattern("5-clique"),
    "5-clique + 1x0": parse_pattern("5-clique + 1x0"),
}

# patterns whose rows the rule scores one by one, and ones it groups
PER_ROW = ["triangle", "diamond", "paw", "tailed triangle", "4-clique", "4-path", "wedge",
           "5-clique"]
GROUPED = ["4-cycle", "2-tailed 4-clique", "fig4", "4-clique + 1x0 + 2x1", "5-clique + 1x0",
           "edges:0-1,1-2,2-3,3-4,4-0,0-5"]


@functools.cache
def plan_of(name: str):
    return compile_pattern(CATALOG[name] if name in CATALOG else parse_pattern(name))


@pytest.fixture(scope="module")
def graphs() -> dict[str, CSRGraph]:
    return {
        "kron": gen.kronecker(6, edge_factor=8, seed=3),
        "amazon0601": datasets.make("amazon0601", "tiny"),
        "internet": datasets.make("internet", "tiny"),
    }


def pair_lookup(graph: CSRGraph) -> np.ndarray:
    """``PairIndex.lookup`` on every CSR slot, in slot order."""
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    index = build_pair_index(graph)
    return index.lookup(np.minimum(src, graph.colidx), np.maximum(src, graph.colidx))


def assert_slots_hold_their_levels(graph, plan, slot_levels, **kwargs) -> int:
    """Blocks with slots equal the blocks without; each slot holds its
    level's vertex, inside the pivot's adjacency list."""
    core = plan.core_plan
    plain = list(iter_frontier_blocks(graph, core, **kwargs))
    carried = list(iter_frontier_blocks(graph, core, slot_levels=slot_levels, **kwargs))
    assert len(plain) == len(carried)
    rowptr, colidx = graph.rowptr, graph.colidx
    for block, (same, slots) in zip(plain, carried):
        np.testing.assert_array_equal(block, same)
        assert slots.shape == (len(block), len(slot_levels))
        for k, level in enumerate(slot_levels):
            pivots = block[:, core.pivot[level]]
            np.testing.assert_array_equal(colidx[slots[:, k]], block[:, level])
            assert (rowptr[pivots] <= slots[:, k]).all()
            assert (slots[:, k] < rowptr[pivots + 1]).all()
    return len(plain)


# ----------------------------------------------------------------------
# carried slots
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", ["kron", "amazon0601", "internet"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_carried_slots_hold_their_levels(graphs, graph_name, name):
    plan = plan_of(name)
    every_level = tuple(range(1, len(plan.core_plan.order)))
    if every_level:
        assert_slots_hold_their_levels(graphs[graph_name], plan, every_level)
    if pivot_slot_levels(plan):
        assert_slots_hold_their_levels(graphs[graph_name], plan, pivot_slot_levels(plan))


@pytest.mark.parametrize("max_rows", [1, 7])
@pytest.mark.parametrize("name", ["4-clique", "5-clique", "4-cycle", "4-clique + 1x0 + 2x1"])
def test_carried_slots_follow_spilled_blocks(name, max_rows):
    g = gen.kronecker(5, edge_factor=6, seed=1)
    plan = plan_of(name)
    levels = tuple(range(1, len(plan.core_plan.order)))
    assert assert_slots_hold_their_levels(g, plan, levels, max_rows=max_rows) > 1


def test_pivot_slot_levels_name_anchor_pivot_edges():
    assert pivot_slot_levels(plan_of("triangle")) == (1,)
    assert pivot_slot_levels(plan_of("4-clique")) == (1, 2)
    # the 4-cycle's wedge centre is no anchor, and it groups
    assert pivot_slot_levels(plan_of("4-cycle")) == ()
    for name in GROUPED:
        assert pivot_slot_levels(plan_of(name)) == ()
    for name in PER_ROW:
        plan = plan_of(name)
        core, anchored = plan.core_plan, set(plan.anchored_positions)
        for level in pivot_slot_levels(plan):
            assert {level, core.pivot[level]} <= anchored


# ----------------------------------------------------------------------
# per-slot common-neighbour counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", ["kron", "amazon0601", "internet"])
def test_slot_counts_equal_pair_index(graphs, graph_name, monkeypatch):
    graph = graphs[graph_name]
    expect = pair_lookup(graph)
    np.testing.assert_array_equal(slot_common_neighbors(graph), expect)
    # bisection instead of the bitmap, and small build blocks
    monkeypatch.setattr(frontier_mod, "BITMAP_BUDGET_BYTES", 0)
    cold = CSRGraph.from_edges(graph.edge_array().tolist(), num_vertices=graph.num_vertices)
    assert frontier_mod.adjacency_bitmap(cold) is None
    np.testing.assert_array_equal(build_slot_common_neighbors(cold, block_tests=13), expect)


@st.composite
def sparse_graphs(draw, max_n=40):
    """Random graphs whose edges fall among a prefix of the vertices, so
    trailing vertices are often isolated; sometimes no edge at all."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CSRGraph.from_edges([p for p, m in zip(pairs, mask) if m], num_vertices=n)


class TestRandomSlotCounts:
    @SETTINGS
    @given(sparse_graphs(), st.sampled_from([1, 5, 1 << 16]), st.booleans())
    def test_equal_pair_index_on_every_slot(self, graph, block_tests, bitmap):
        saved = frontier_mod.BITMAP_BUDGET_BYTES
        frontier_mod.BITMAP_BUDGET_BYTES = saved if bitmap else 0
        try:
            got = build_slot_common_neighbors(graph, block_tests)
        finally:
            frontier_mod.BITMAP_BUDGET_BYTES = saved
        assert got.dtype == np.int32 and len(got) == len(graph.colidx)
        np.testing.assert_array_equal(got, pair_lookup(graph))

    @SETTINGS
    @given(sparse_graphs(max_n=14))
    def test_per_row_patterns_count_like_the_oracle(self, graph):
        rt = Runtime()
        for name in ("triangle", "diamond", "paw", "4-clique"):
            pattern = CATALOG[name]
            frontier = rt.count(graph, pattern, engine="frontier").count
            assert frontier == rt.count(graph, pattern, engine="general").count, name


def test_edgeless_graph_has_no_slots():
    g = CSRGraph.from_edges([], num_vertices=5)
    assert len(slot_common_neighbors(g)) == 0
    assert FrontierBackend().run(plan_of("triangle"), g).matches == 0


def test_slot_counts_never_read_the_pair_index(monkeypatch):
    """Pivot-pair-only plans and the edge-core closed form count on a
    cold graph without building the pair index."""
    builds = []
    monkeypatch.setattr(venn_mod, "build_pair_index", lambda *a: builds.append(a))
    monkeypatch.setattr(venn_mod, "_INDEXES", GraphCache())
    g = gen.barabasi_albert(200, 4, seed=5)
    rt = Runtime()
    for name in ("triangle", "diamond", "paw", "tailed triangle"):
        for engine in ("frontier", "specialized"):
            rt.count(g, CATALOG[name], engine=engine)
    assert not builds


# ----------------------------------------------------------------------
# the fold rule
# ----------------------------------------------------------------------
def test_fold_rule_classifies_the_catalog():
    for name in PER_ROW:
        assert not groups_can_fold(plan_of(name)), name
    for name in GROUPED:
        assert groups_can_fold(plan_of(name)), name


@pytest.mark.parametrize("graph_name", ["kron", "amazon0601", "internet"])
@pytest.mark.parametrize("name", PER_ROW)
def test_skipped_grouping_would_keep_every_row_alone(graphs, graph_name, name):
    graph, plan = graphs[graph_name], plan_of(name)
    assert not groups_can_fold(plan)
    positions = list(plan.anchored_positions)
    width = len(positions) * (len(plan.core_plan.order) - len(positions))
    for block in iter_frontier_blocks(graph, plan.core_plan):
        *_, counts = group_anchor_rows(
            block[:, positions].T, np.zeros(len(block), dtype=np.int64), width,
            graph.num_vertices,
        )
        assert (counts == 1).all()


# ----------------------------------------------------------------------
# per-row Venn rows
# ----------------------------------------------------------------------
class _Capture:
    """Stands in for a FringePolynomial and keeps every matrix it gets."""

    def __init__(self):
        self.chunks: list[np.ndarray] = []

    def evaluate_batch(self, venns, counts=None):
        assert counts is None
        self.chunks.append(np.array(venns))
        return len(venns)


def assert_per_row_equals_venn_batch(graph, plan, batch_size=4096, **kwargs):
    positions = list(plan.anchored_positions)
    levels = pivot_slot_levels(plan)
    for item in iter_frontier_blocks(graph, plan.core_plan, slot_levels=levels, **kwargs):
        block, slots = item if levels else (item, None)
        expect = venn_batch(graph, block[:, positions], block)
        for carried in (slots, None):
            cap = _Capture()
            member = dataclasses.replace(plan, poly=cap)
            (rows,), batches = venn_poly_sums(
                graph, block, plan, [member], batch_size, slots=carried
            )
            assert rows == len(block) and batches == len(cap.chunks)
            np.testing.assert_array_equal(np.concatenate(cap.chunks), expect)
        (total,), _ = venn_poly_sums(graph, block, plan, [plan], batch_size, slots=slots)
        assert total == plan.poly.evaluate_batch(expect)


@pytest.mark.parametrize("graph_name", ["kron", "amazon0601", "internet"])
@pytest.mark.parametrize("name", PER_ROW)
def test_per_row_rows_equal_venn_batch(graphs, graph_name, name):
    assert_per_row_equals_venn_batch(graphs[graph_name], plan_of(name))


@pytest.mark.parametrize("name", ["triangle", "paw", "4-clique", "5-clique"])
def test_per_row_rows_over_budget_and_in_small_chunks(name, monkeypatch):
    g = gen.kronecker(5, edge_factor=6, seed=4)
    monkeypatch.setattr(frontier_mod, "BITMAP_BUDGET_BYTES", 0)
    monkeypatch.setattr(venn_mod, "INDEX_BUDGET_BYTES", 0)
    cold = CSRGraph.from_edges(g.edge_array().tolist(), num_vertices=g.num_vertices)
    assert_per_row_equals_venn_batch(cold, plan_of(name), batch_size=7, max_rows=50)


class TestRandomPerRow:
    @SETTINGS
    @given(sparse_graphs(max_n=16), st.sampled_from([1, 3, 4096]))
    def test_rows_equal_venn_batch(self, graph, batch_size):
        for name in ("triangle", "paw", "4-clique", "5-clique"):
            assert_per_row_equals_venn_batch(graph, plan_of(name), batch_size)
