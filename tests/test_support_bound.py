"""The frontier's support bound and sibling scan start.

``CorePlan.min_common[i]`` counts the full-pattern vertices adjacent to
both position ``i``'s core vertex and its pivot's. A core embedding
whose pivot edge has fewer common graph neighbours places no full
pattern, so every fringe count on it is 0: the frontier matcher and the
edge-core closed form drop it, while the serial oracle (``match_cores``
+ ``venn_merge`` + ``fc_recursive``) still visits it. These tests check
that the bound drops only rows that score 0, that every kept row is a
stack-matcher row, and that counts agree with the oracle on random
graphs and patterns, pattern families and budgets of 0 bytes.

A level whose pivot also supplied an earlier level it must exceed (the
4-cycle's two anchors, both read from the centre's list) starts its scan
right after that sibling's slot; the rows stay the stack matcher's.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.frontier as frontier_mod
import repro.core.venn as venn_mod
from repro import Observer
from repro.core.backends import anchors_ordered
from repro.core.fringe_count import fc_recursive
from repro.core.frontier import FrontierStats, _sibling_bounds, iter_frontier_blocks
from repro.core.matcher import build_plan, match_cores
from repro.core.plan import compile_pattern
from repro.core.venn import group_anchor_rows, venn_merge
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.patterns import catalog
from repro.patterns.decompose import decompose
from repro.patterns.dsl import parse_pattern
from repro.runtime import Runtime, _shared_plan
from tests.bound import bounded_rows, unbounded

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def kron_tiny() -> CSRGraph:
    return datasets.make("kron_g500-logn20", "tiny")


@contextmanager
def zero_budgets():
    """No adjacency bitmap and no pair index for graphs built inside."""
    saved = frontier_mod.BITMAP_BUDGET_BYTES, venn_mod.INDEX_BUDGET_BYTES
    frontier_mod.BITMAP_BUDGET_BYTES = venn_mod.INDEX_BUDGET_BYTES = 0
    try:
        yield
    finally:
        frontier_mod.BITMAP_BUDGET_BYTES, venn_mod.INDEX_BUDGET_BYTES = saved


def frontier_set(graph, core, **kwargs) -> set[tuple[int, ...]]:
    rows = [tuple(map(int, r)) for b in iter_frontier_blocks(graph, core, **kwargs) for r in b]
    assert len(rows) == len(set(rows))  # no duplicate embeddings
    return set(rows)


def score(graph, plan, row) -> int:
    """The oracle's fringe count of one core embedding."""
    anchors = [row[i] for i in plan.anchored_positions]
    return fc_recursive(venn_merge(graph, anchors, row), plan.anch, plan.k, plan.q)


def assert_drops_only_zero_rows(graph, pattern):
    plan = compile_pattern(pattern)
    core = plan.core_plan
    stack = set(match_cores(graph, core))
    kept = frontier_set(graph, core)
    assert kept <= stack
    assert kept == bounded_rows(graph, core)
    for row in stack - kept:
        assert score(graph, plan, row) == 0, row
    return len(stack - kept)


# ----------------------------------------------------------------------
# the bound itself
# ----------------------------------------------------------------------
BOUNDED = {
    "triangle": catalog.triangle(),
    "diamond": catalog.diamond(),
    "4-clique": catalog.four_clique(),
    "tailed 4-clique": catalog.tailed_four_clique(1),
    "5-clique-minus": catalog.triangle_core_family()["5-clique-minus"],
    "wedged 4-clique": catalog.triangle_core_family()["wedged 4-clique"],
    "3-trifringe triangle": catalog.triangle_core_family()["3-trifringe triangle"],
    "triangle + 3x0&1": catalog.core_with_fringes("triangle", [((0, 1), 3)]),
    "fig4": catalog.fig4_pattern(),
}


@pytest.mark.parametrize(
    "name, expect",
    [
        ("triangle", (0, 1)),
        ("diamond", (0, 2)),
        ("4-clique", (0, 2, 2)),
        ("5-clique-minus", (0, 3, 3)),
        ("3-trifringe triangle", (0, 4, 4)),
        ("triangle + 3x0&1", (0, 4)),
    ],
)
def test_min_common_counts_pattern_vertices_on_the_pivot_edge(name, expect):
    assert build_plan(decompose(BOUNDED[name])).min_common == expect


@pytest.mark.parametrize(
    "pattern", [catalog.four_cycle(), catalog.wedge_core_family()["tailed k23"], catalog.star(3)]
)
def test_no_shared_pattern_neighbour_no_bound(pattern):
    assert not any(build_plan(decompose(pattern)).min_common)


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_dropped_rows_score_zero_on_kron_tiny(kron_tiny, name):
    assert_drops_only_zero_rows(kron_tiny, BOUNDED[name])


def test_the_bound_drops_rows_on_kron_tiny(kron_tiny):
    # the rows above are not vacuous: the clique cores lose rows here
    for name in ("4-clique", "3-trifringe triangle", "triangle + 3x0&1"):
        assert assert_drops_only_zero_rows(kron_tiny, BOUNDED[name]) > 0, name


@st.composite
def graphs(draw, max_n=13):
    """Random graphs on a prefix of the vertices (the rest isolated)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    p = draw(st.sampled_from([0.4, 0.6, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    mask = np.random.default_rng(seed).random(len(pairs)) < p
    return CSRGraph.from_edges([e for e, m in zip(pairs, mask) if m], num_vertices=n)


BASES = {"edge": 2, "triangle": 3, "wedge": 3, "4-cycle": 4, "diamond": 4}


@st.composite
def dsl_patterns(draw):
    """A base pattern plus one to three fringe clauses on 1-3 anchors."""
    base = draw(st.sampled_from(sorted(BASES)))
    n = BASES[base]
    clauses = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        anchors = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        count = draw(st.integers(min_value=1, max_value=3 if size > 1 else 2))
        clauses.append(f"{count}x{'&'.join(map(str, sorted(anchors)))}")
    return " + ".join([base, *clauses])


class TestRandomAgreement:
    @SETTINGS
    @given(graphs(), dsl_patterns(), st.booleans())
    def test_frontier_equals_auto_equals_general(self, graph, expr, budgets):
        pattern = parse_pattern(expr)
        with nullcontext() if budgets else zero_budgets():
            graph = CSRGraph.from_edges(graph.edge_array(), num_vertices=graph.num_vertices)
            rt = Runtime()
            counts = {e: rt.count(graph, pattern, engine=e).count for e in ("frontier", "auto")}
        assert counts == dict.fromkeys(counts, rt.count(graph, pattern, engine="general").count)

    @SETTINGS
    @given(graphs(), st.sampled_from(sorted(BOUNDED)))
    def test_dropped_rows_score_zero(self, graph, name):
        assert_drops_only_zero_rows(graph, BOUNDED[name])

    def test_patterns_reach_a_bound_of_three(self):
        for expr in ("triangle + 2x0&1", "edge + 3x0&1", "diamond + 1x0&1&2"):
            assert max(compile_pattern(parse_pattern(expr)).core_plan.min_common) >= 3, expr


FAMILIES = {
    "edge core": ("triangle", "diamond", "triangle + 3x0&1"),
    "triangle core": ("4-clique", "triangle + 2x0&1&2", "triangle + 1x0&1&2 + 2x0&1"),
}


@pytest.mark.parametrize("engine", ["auto", "frontier"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_mixing_bounds_count_each_member_exactly(kron_tiny, family, engine):
    patterns = {expr: parse_pattern(expr) for expr in FAMILIES[family]}
    plans = [compile_pattern(p) for p in patterns.values()]
    assert len({p.core_plan.min_common for p in plans}) > 1  # the bounds really differ
    rt = Runtime()
    for graph in (kron_tiny, datasets.make("internet", "tiny")):
        got = rt.count_many(graph, patterns, engine=engine)
        for expr, pattern in patterns.items():
            assert got[expr].count == rt.count(graph, pattern, engine="general").count, expr


def test_shared_plan_takes_the_weakest_bound():
    plans = [compile_pattern(parse_pattern(e)) for e in FAMILIES["edge core"]]
    shared = _shared_plan(plans)
    assert shared.core_plan.min_common == (0, 1)
    assert shared.core_plan.min_degree == tuple(
        map(min, zip(*(p.core_plan.min_degree for p in plans)))
    )


# ----------------------------------------------------------------------
# statistics and metrics
# ----------------------------------------------------------------------
def test_pruned_candidates_are_counted(kron_tiny):
    # an edge core: a candidate the bound drops would pass every other
    # test, so the pruned count is exactly the rows the bound removes
    core = compile_pattern(catalog.triangle()).core_plan
    free = unbounded(core)
    stats = FrontierStats()
    with Observer(trace=False) as ob:
        kept = frontier_set(kron_tiny, core, stats=stats)
    every = frontier_set(kron_tiny, free)
    assert stats.support_pruned == len(every) - len(kept) > 0
    pruned = ob.metrics.counter("repro_frontier_support_pruned_total").value
    assert pruned == stats.support_pruned
    # a plan without a bound prunes nothing and reports nothing
    stats = FrontierStats()
    with Observer(trace=False) as ob:
        frontier_set(kron_tiny, compile_pattern(catalog.four_cycle()).core_plan, stats=stats)
    assert stats.support_pruned == 0
    assert "repro_frontier_support_pruned_total" not in {name for name, _, _ in ob.metrics.collect()}


# ----------------------------------------------------------------------
# the sibling scan start
# ----------------------------------------------------------------------
SIBLING = {"4-cycle": catalog.four_cycle(), "tailed k23": catalog.wedge_core_family()["tailed k23"]}


@pytest.mark.parametrize("name", sorted(SIBLING))
def test_sibling_levels(name):
    core = build_plan(decompose(SIBLING[name]))
    assert _sibling_bounds(core) == ((), (), (1,))
    assert core.pivot[1] == core.pivot[2] and 1 in core.less_than[2]


@pytest.mark.parametrize("descending", [True, False], ids=["desc", "asc"])
@pytest.mark.parametrize("max_rows", [None, 1, 3, 17])
@pytest.mark.parametrize("name", sorted(SIBLING))
def test_sibling_start_keeps_the_stack_rows(kron_tiny, name, max_rows, descending):
    graph = kron_tiny.relabel_by_degree(descending=descending)
    core = build_plan(decompose(SIBLING[name]))
    kwargs = {} if max_rows is None else {"max_rows": max_rows}
    assert frontier_set(graph, core, **kwargs) == set(match_cores(graph, core))
    # carried sibling slots never leak into the caller's slot columns
    for block, slots in iter_frontier_blocks(graph, core, slot_levels=(2,), **kwargs):
        pivots = block[:, core.pivot[2]]
        assert np.array_equal(graph.colidx[slots[:, 0]], block[:, 2])
        assert ((graph.rowptr[pivots] <= slots[:, 0]) & (slots[:, 0] < graph.rowptr[pivots + 1])).all()


# ----------------------------------------------------------------------
# grouping when the anchor order is fixed
# ----------------------------------------------------------------------
def test_anchors_ordered_follows_the_restriction():
    assert anchors_ordered(compile_pattern(catalog.four_cycle()))  # two ends, one bound
    assert anchors_ordered(compile_pattern(catalog.four_clique()))
    assert not anchors_ordered(compile_pattern(catalog.wedge_core_family()["tailed 4-cycle"]))


@pytest.mark.parametrize("num_vertices", [60, 1 << 21])  # packed key, row-wise unique
@pytest.mark.parametrize("q", [2, 3])
def test_ordered_grouping_equals_sorted_grouping(num_vertices, q):
    rng = np.random.default_rng(q)
    anchors = np.sort(rng.choice(num_vertices, size=(400, q)), axis=1)
    anchors = anchors[(np.diff(anchors, axis=1) > 0).all(axis=1)]
    anchors = np.concatenate([anchors, anchors[:50]])  # repeated rows
    free = rng.integers(0, 4, size=len(anchors))
    got = group_anchor_rows(anchors, free, 2, num_vertices, ordered=True)
    ref = group_anchor_rows(anchors, free, 2, num_vertices)
    sets, set_of, rank, groups_free, counts = got
    assert (rank == np.arange(q)).all()

    def groups(sets, set_of, rank, free, counts):
        rows = np.take_along_axis(sets[set_of], rank, axis=1)
        return sorted(zip(map(tuple, rows.tolist()), free.tolist(), counts.tolist()))

    assert groups(*got) == groups(*ref)
    assert len(np.unique(sets, axis=0)) == len(sets)
