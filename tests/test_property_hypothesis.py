"""Property-based tests (hypothesis) on the core data structures and the
counting invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import count_subgraphs
from repro.baselines.vf2 import count_vf2
from repro.core.fringe_count import count_fringe_choices, fc_recursive
from repro.core.fringe_poly import compile_fringe_polynomial
from repro.core.venn import venn_hash, venn_merge, venn_sorted
from repro.graph.csr import CSRGraph
from repro.patterns.pattern import Pattern

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def graph_edges(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, m in zip(pairs, mask) if m]
    return n, edges


@st.composite
def connected_pattern(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    # random spanning tree + random extra edges ensures connectivity
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    for p in pairs:
        if draw(st.booleans()):
            edges.add(p)
    return Pattern.from_edges(sorted(edges), n=n)


# ----------------------------------------------------------------------
# CSR invariants
# ----------------------------------------------------------------------
class TestCSRProperties:
    @SETTINGS
    @given(graph_edges())
    def test_csr_invariants(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        assert g.rowptr[0] == 0 and g.rowptr[-1] == len(g.colidx)
        assert int(g.degrees.sum()) == 2 * g.num_edges
        for v in range(n):
            adj = g.neighbors(v)
            assert np.all(np.diff(adj) > 0)
            for w in adj.tolist():
                assert g.has_edge(w, v)  # symmetry

    @SETTINGS
    @given(graph_edges())
    def test_edge_array_round_trip(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        g2 = CSRGraph.from_edges(g.edge_array(), num_vertices=n)
        assert g == g2


# ----------------------------------------------------------------------
# Venn invariants
# ----------------------------------------------------------------------
class TestVennProperties:
    @SETTINGS
    @given(graph_edges(max_n=10), st.data())
    def test_impls_agree_and_total_is_union(self, ne, data):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        q = data.draw(st.integers(min_value=1, max_value=min(3, n)))
        anchors = data.draw(
            st.lists(st.integers(0, n - 1), min_size=q, max_size=q, unique=True)
        )
        a = venn_hash(g, anchors, anchors)
        assert venn_sorted(g, anchors, anchors) == a
        assert venn_merge(g, anchors, anchors) == a
        union = set()
        for v in anchors:
            union.update(g.neighbors(v).tolist())
        union -= set(anchors)
        assert sum(a) == len(union)


# ----------------------------------------------------------------------
# fc / polynomial invariants
# ----------------------------------------------------------------------
class TestFringeCountProperties:
    @SETTINGS
    @given(st.data())
    def test_fc_and_polynomial_agree(self, data):
        q = data.draw(st.integers(min_value=1, max_value=3))
        full = (1 << q) - 1
        s = data.draw(st.integers(min_value=1, max_value=min(3, full)))
        anch = sorted(
            data.draw(
                st.lists(st.integers(1, full), min_size=s, max_size=s, unique=True)
            )
        )
        k = data.draw(st.lists(st.integers(1, 3), min_size=s, max_size=s))
        venn = [0] + data.draw(
            st.lists(st.integers(0, 7), min_size=full, max_size=full)
        )
        a = fc_recursive(list(venn), anch, k, q)
        b = count_fringe_choices(venn, anch, k, q)
        poly = compile_fringe_polynomial(anch, k, q)
        c = poly.evaluate(venn)
        d = poly.evaluate_batch(np.asarray([venn], dtype=np.int64))
        assert a == b == c == d
        assert a >= 0

    @SETTINGS
    @given(st.data())
    def test_fc_monotone_in_venn(self, data):
        """Adding vertices to any region cannot decrease the count."""
        q = data.draw(st.integers(min_value=1, max_value=2))
        full = (1 << q) - 1
        anch = [data.draw(st.integers(1, full))]
        k = [data.draw(st.integers(1, 3))]
        venn = [0] + data.draw(st.lists(st.integers(0, 5), min_size=full, max_size=full))
        base = fc_recursive(list(venn), anch, k, q)
        bumped = list(venn)
        idx = data.draw(st.integers(1, full))
        bumped[idx] += 1
        assert fc_recursive(bumped, anch, k, q) >= base


# ----------------------------------------------------------------------
# end-to-end counting invariants
# ----------------------------------------------------------------------
class TestCountingProperties:
    @SETTINGS
    @given(graph_edges(max_n=9), connected_pattern(max_n=4))
    def test_matches_brute_force(self, ne, pat):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        assert count_subgraphs(g, pat).count == count_vf2(g, pat)

    @SETTINGS
    @given(graph_edges(max_n=8), connected_pattern(max_n=4))
    def test_count_invariant_under_graph_relabeling(self, ne, pat):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        relabeled = g.relabel_by_degree()
        assert count_subgraphs(g, pat).count == count_subgraphs(relabeled, pat).count

    @SETTINGS
    @given(connected_pattern(max_n=5))
    def test_pattern_in_itself(self, pat):
        g = CSRGraph.from_edges(pat.edges(), num_vertices=pat.n)
        assert count_subgraphs(g, pat).count == 1

    @SETTINGS
    @given(graph_edges(max_n=9))
    def test_star_closed_form(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(edges, num_vertices=n)
        from repro.patterns import catalog

        for k in (2, 3):
            expect = sum(math.comb(int(d), k) for d in g.degrees)
            assert count_subgraphs(g, catalog.star(k)).count == expect
