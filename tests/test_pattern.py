"""Tests for the Pattern type and small-pattern enumeration."""

import pytest

from repro.patterns import catalog
from repro.patterns.pattern import Pattern, all_connected_patterns


class TestConstruction:
    def test_from_edges(self):
        p = Pattern.from_edges([(0, 1), (1, 2)])
        assert p.n == 3 and p.num_edges == 2
        assert p.degree(1) == 2 and p.degree(0) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Pattern.from_edges([(0, 0)])

    def test_declared_n(self):
        p = Pattern.from_edges([(0, 1)], n=4)
        assert p.n == 4
        with pytest.raises(ValueError):
            Pattern.from_edges([(0, 5)], n=3)

    def test_single_vertex(self):
        p = Pattern.single_vertex()
        assert p.n == 1 and p.num_edges == 0 and p.is_connected

    def test_networkx_round_trip(self):
        p = catalog.diamond()
        q = Pattern.from_networkx(p.to_networkx())
        assert p.is_isomorphic(q)


class TestQueries:
    def test_connectivity(self):
        assert catalog.triangle().is_connected
        assert not Pattern.from_edges([(0, 1), (2, 3)]).is_connected

    def test_edges_sorted_pairs(self):
        p = catalog.wedge()
        assert p.edges() == [(0, 1), (0, 2)]

    def test_hash_and_eq(self):
        assert catalog.triangle() == catalog.cycle(3)
        assert hash(catalog.triangle()) == hash(catalog.cycle(3))
        assert catalog.triangle() != catalog.wedge()


class TestTransforms:
    def test_relabel(self):
        p = catalog.wedge().relabel([2, 0, 1])
        assert p.degree(2) == 2  # old hub 0 -> new 2

    def test_relabel_bad_mapping(self):
        with pytest.raises(ValueError):
            catalog.wedge().relabel([0, 0, 1])

    def test_induced(self):
        p = catalog.four_clique().induced([0, 2, 3])
        assert p.n == 3 and p.num_edges == 3

    def test_with_fringe_tail(self):
        p = catalog.triangle().with_fringe([0])
        assert p.is_isomorphic(catalog.tailed_triangle())

    def test_with_fringe_count(self):
        p = catalog.triangle().with_fringe([0, 1, 2], 2)
        assert p.n == 5 and p.num_edges == 9

    def test_with_fringe_invalid(self):
        with pytest.raises(ValueError):
            catalog.triangle().with_fringe([])
        with pytest.raises(ValueError):
            catalog.triangle().with_fringe([7])


class TestCanonical:
    def test_isomorphic_relabelings_same_key(self):
        p = catalog.tailed_triangle()
        q = p.relabel([3, 2, 1, 0])
        assert p.canonical_key() == q.canonical_key()

    def test_different_patterns_different_key(self):
        assert catalog.four_cycle().canonical_key() != catalog.diamond().canonical_key()

    def test_star10_keys_equal_under_relabeling(self):
        # n = 11: beyond the old brute-force limit, the certificate is exact
        p = catalog.star(10)
        q = p.relabel([10, *range(10)])  # the centre becomes vertex 10
        assert q != p and q.canonical_key() == p.canonical_key()


class TestAllConnectedPatterns:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
    def test_known_counts(self, n, count):
        # OEIS A001349: connected graphs on n nodes
        assert len(all_connected_patterns(n)) == count

    def test_all_connected_and_distinct(self):
        pats = all_connected_patterns(4)
        assert all(p.is_connected for p in pats)
        keys = {p.canonical_key() for p in pats}
        assert len(keys) == len(pats)
