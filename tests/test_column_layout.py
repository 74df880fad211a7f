"""Column-major frontier blocks and the copy-free grouped Venn pass.

The frontier matcher builds every level as one C-contiguous ``(level +
1, rows)`` array and yields its transpose, so each column of a block
(and of its carried slots) is contiguous; the grouped Venn pass reads
the anchor columns in place. These tests require

* every block column and carried slot column to be contiguous after
  plain expansions, after spills and with carried slots, and the rows to
  equal the bounded ``match_cores`` rows under both degree orders;
* the grouped pass to count like the serial oracle on cores whose
  non-anchor vertices leave fixed regions (one constant per region
  column) and on cores with free bits, on fixed and random graphs, with
  and without the dense structures;
* a family member with a stricter degree filter to score only its own
  groups when the groups are the anchor sets themselves.
"""

import dataclasses
import functools
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Runtime
from repro.core import FrontierBackend, compile_pattern
from repro.core import frontier as frontier_mod
from repro.core import venn as venn_mod
from repro.core.backends import _exclusions, anchors_ordered, groups_can_fold, pivot_slot_levels
from repro.core.frontier import FrontierStats, iter_frontier_blocks
from repro.core.venn import group_anchor_rows
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.dsl import parse_pattern
from repro.runtime import _shared_plan
from tests.bound import bounded_rows

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CATALOG = {
    **dict(catalog.wedge_core_family()),
    "4-cycle": catalog.four_cycle(),
    "k23": catalog.complete_bipartite(2, 3),
    "k24": catalog.complete_bipartite(2, 4),
    "fig4": catalog.fig4_pattern(),
    "4-clique": catalog.four_clique(),
}

# grouped cores whose non-anchor vertices are pattern-adjacent to every
# anchor they touch (no free bits), and cores with free bits
FIXED_ONLY = ["4-cycle", "k23", "k24", "tailed 4-cycle", "2-tailed 4-cycle", "fig4",
              "5-clique + 1x0"]
FREE_BITS = ["5-cycle", "6-cycle"]


@functools.cache
def plan_of(name: str):
    return compile_pattern(CATALOG[name] if name in CATALOG else parse_pattern(name))


@contextmanager
def zero_budgets():
    """No adjacency bitmap and no pair index for graphs built inside."""
    saved = frontier_mod.BITMAP_BUDGET_BYTES, venn_mod.INDEX_BUDGET_BYTES
    frontier_mod.BITMAP_BUDGET_BYTES = venn_mod.INDEX_BUDGET_BYTES = 0
    try:
        yield
    finally:
        frontier_mod.BITMAP_BUDGET_BYTES, venn_mod.INDEX_BUDGET_BYTES = saved


@pytest.fixture(scope="module")
def kron() -> CSRGraph:
    return gen.kronecker(6, edge_factor=8, seed=3)


def assert_column_major(array: np.ndarray) -> None:
    """``array`` is ``(rows, k)``: the transpose of a C-contiguous array."""
    assert array.T.flags.c_contiguous
    assert all(array[:, j].flags.c_contiguous for j in range(array.shape[1]))


# ----------------------------------------------------------------------
# block layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("descending", [True, False], ids=["desc", "asc"])
@pytest.mark.parametrize("max_rows", [None, 1, 3, 17])
@pytest.mark.parametrize("name", ["4-cycle", "k23", "4-clique", "5-cycle", "tailed 4-cycle"])
def test_block_columns_are_contiguous(kron, name, max_rows, descending):
    graph = kron.relabel_by_degree(descending=descending)
    plan = plan_of(name)
    core = plan.core_plan
    kwargs = {} if max_rows is None else {"max_rows": max_rows}
    stats = FrontierStats()
    rows = set()
    for block in iter_frontier_blocks(graph, core, stats=stats, **kwargs):
        assert block.dtype == np.int64 and block.shape[1] == len(core.order)
        assert_column_major(block)
        rows.update(map(tuple, block.tolist()))
    assert rows == bounded_rows(graph, core)
    if max_rows in (1, 3):
        assert stats.spills > 0


@pytest.mark.parametrize("max_rows", [None, 1, 3, 17])
@pytest.mark.parametrize("name", ["4-clique", "triangle", "5-clique"])
def test_carried_slot_columns_are_contiguous(kron, name, max_rows):
    plan = compile_pattern(parse_pattern(name))
    levels = pivot_slot_levels(plan)
    assert levels
    kwargs = {} if max_rows is None else {"max_rows": max_rows}
    core = plan.core_plan
    for block, slots in iter_frontier_blocks(kron, core, slot_levels=levels, **kwargs):
        assert_column_major(block)
        assert_column_major(slots)
        assert slots.shape == (len(block), len(levels))
        for k, level in enumerate(levels):
            assert np.array_equal(kron.colidx[slots[:, k]], block[:, level])


def test_ordered_groups_without_free_bits_are_the_sets():
    rng = np.random.default_rng(4)
    anchors = np.sort(rng.integers(0, 50, size=(400, 2)), axis=1)
    anchors = anchors[anchors[:, 0] < anchors[:, 1]]
    sets, set_of, rank, free, counts = group_anchor_rows(anchors.T, None, 0, 50, ordered=True)
    assert set_of is None and free is None
    assert_column_major(sets)
    expect, expect_counts = np.unique(anchors, axis=0, return_counts=True)
    np.testing.assert_array_equal(sets, expect)
    np.testing.assert_array_equal(counts, expect_counts)
    assert (rank == np.arange(2)).all()


# ----------------------------------------------------------------------
# grouped pass against the serial oracle
# ----------------------------------------------------------------------
def test_pattern_lists_have_the_exclusions_they_claim():
    for name in FIXED_ONLY + FREE_BITS:
        assert groups_can_fold(plan_of(name)), name
    for name in FIXED_ONLY:
        assert not any(free for _, _, free in _exclusions(plan_of(name))), name
    for name in FREE_BITS:
        assert any(free for _, _, free in _exclusions(plan_of(name))), name
    # the no-gather path is reached: ordered anchors, nothing free
    assert anchors_ordered(plan_of("4-cycle")) and anchors_ordered(plan_of("k23"))


@pytest.mark.parametrize("graph_name", ["kron", "ba"])
@pytest.mark.parametrize("name", FIXED_ONLY + FREE_BITS)
def test_grouped_counts_equal_general(graph_name, name):
    graph = {
        "kron": gen.kronecker(5, edge_factor=6, seed=1),
        "ba": gen.barabasi_albert(60, 3, seed=2),
    }[graph_name]
    pattern = CATALOG[name] if name in CATALOG else parse_pattern(name)
    rt = Runtime()
    want = rt.count(graph, pattern, engine="general").count
    for engine in ("frontier", "auto"):
        assert rt.count(graph, pattern, engine=engine).count == want, engine


@st.composite
def graphs(draw, max_n=12):
    """Random graphs on a prefix of the vertices (the rest isolated)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    p = draw(st.sampled_from([0.4, 0.6, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    mask = np.random.default_rng(seed).random(len(pairs)) < p
    return CSRGraph.from_edges([e for e, m in zip(pairs, mask) if m], num_vertices=n)


@SETTINGS
@given(graphs(), st.sampled_from(FIXED_ONLY + FREE_BITS), st.booleans())
def test_random_graphs_count_like_general(graph, name, budgets):
    pattern = CATALOG[name] if name in CATALOG else parse_pattern(name)
    with nullcontext() if budgets else zero_budgets():
        graph = CSRGraph.from_edges(graph.edge_array(), num_vertices=graph.num_vertices)
        rt = Runtime()
        counts = {e: rt.count(graph, pattern, engine=e).count for e in ("frontier", "auto")}
    assert counts == dict.fromkeys(counts, rt.count(graph, pattern, engine="general").count)


# ----------------------------------------------------------------------
# family members on the no-gather path
# ----------------------------------------------------------------------
class _Capture:
    """Stands in for a FringePolynomial and keeps the row counts it gets."""

    def __init__(self):
        self.counts: list[np.ndarray] = []

    def evaluate_batch(self, venns: np.ndarray, counts: np.ndarray | None = None) -> int:
        counts = np.ones(len(venns), dtype=np.int64) if counts is None else counts
        self.counts.append(np.asarray(counts).copy())
        return int(np.sum(counts))


def test_stricter_members_score_only_their_own_groups(kron):
    plans = [plan_of("k23"), plan_of("k24")]
    shared = _shared_plan(plans)
    assert anchors_ordered(shared) and not any(free for _, _, free in _exclusions(shared))
    assert shared.core_plan.min_degree == plans[0].core_plan.min_degree
    assert plans[1].core_plan.min_degree != plans[0].core_plan.min_degree
    caps = [_Capture() for _ in plans]
    members = [dataclasses.replace(p, poly=c) for p, c in zip(plans, caps)]
    partial = FrontierBackend().run(shared, kron, members=members)
    for plan, cap, scored in zip(plans, caps, partial.sums):
        core = dataclasses.replace(plan.core_plan, min_common=shared.core_plan.min_common)
        own = FrontierBackend().run(dataclasses.replace(plan, core_plan=core), kron)
        assert scored == sum(int(c.sum()) for c in cap.counts) == own.matches
    assert partial.sums[0] == partial.matches > partial.sums[1] > 0
    rt = Runtime()
    got = rt.count_many(kron, {"k23": CATALOG["k23"], "k24": CATALOG["k24"]})
    for name in ("k23", "k24"):
        assert got[name].count == rt.count(kron, CATALOG[name], engine="general").count
