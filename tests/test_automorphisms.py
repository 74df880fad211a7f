"""Tests for automorphism handling and symmetry breaking."""

import math

import pytest

from repro.core.plan import compile_pattern
from repro.patterns import catalog
from repro.patterns.automorphisms import (
    aut_size_bruteforce,
    decorated_core_automorphisms,
    symmetry_restrictions,
)
from repro.patterns.decompose import decompose, decomposition_from_core
from repro.patterns.pattern import all_connected_patterns


KNOWN_AUT_SIZES = {
    "triangle": 6,
    "wedge": 2,
    "4-clique": 24,
    "4-cycle": 8,
    "diamond": 4,
    "tailed triangle": 2,
    "4-path": 2,
    "3-star": 6,
}


class TestBruteForce:
    @pytest.mark.parametrize("name,expected", sorted(KNOWN_AUT_SIZES.items()))
    def test_known_groups(self, name, expected):
        assert aut_size_bruteforce(catalog.fig1_patterns()[name]) == expected

    def test_star_factorial(self):
        for k in range(2, 6):
            assert aut_size_bruteforce(catalog.star(k)) == math.factorial(k)

    def test_cycle(self):
        for n in (3, 4, 5, 6):
            assert aut_size_bruteforce(catalog.cycle(n)) == 2 * n


class TestStructuralAutSize:
    """|Aut(P)| via inj(P, P) must match brute force on all small patterns."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_bruteforce(self, n):
        for pat in all_connected_patterns(n):
            assert compile_pattern(pat).aut_size == aut_size_bruteforce(pat), pat.edges()

    def test_fringe_heavy_pattern(self):
        # 6 identical tails on a triangle vertex: Aut = 6! * 2 (tails
        # permute, the two other triangle vertices swap)
        pat = catalog.k_tailed_triangle(6)
        assert compile_pattern(pat).aut_size == math.factorial(6) * 2

    def test_fig4_aut_size(self):
        # fig4: tails 2!^3, wedges 2!·2!·1, tri-fringes 2!; the asymmetric
        # decoration (1 wedge on {1,2} vs 2 elsewhere) leaves a single core
        # swap symmetry (0 fixed, 1<->2)
        expected = (2 * 2 * 2) * (2 * 2) * 2 * 2
        assert compile_pattern(catalog.fig4_pattern()).aut_size == expected


class TestDecoratedCoreAutomorphisms:
    def test_symmetric_edge_core(self):
        d = decompose(catalog.diamond())  # two wedge fringes: swap allowed
        assert len(decorated_core_automorphisms(d)) == 2

    def test_asymmetric_edge_core(self):
        d = decompose(catalog.tailed_triangle())  # tail breaks the swap
        assert len(decorated_core_automorphisms(d)) == 1

    def test_triangle_core_full_symmetry(self):
        d = decompose(catalog.four_clique())  # one tri-fringe: all 6 perms
        assert len(decorated_core_automorphisms(d)) == 6

    def test_whole_pattern_core(self):
        d = decomposition_from_core(catalog.four_cycle(), range(4))
        assert len(decorated_core_automorphisms(d)) == 8  # = Aut(C4)


class TestSymmetryRestrictions:
    def test_group_order_matches(self):
        for pat in (catalog.diamond(), catalog.four_clique(), catalog.fig4_pattern()):
            d = decompose(pat)
            restrictions, order = symmetry_restrictions(d)
            assert order == len(decorated_core_automorphisms(d))

    def test_trivial_group_no_restrictions(self):
        d = decompose(catalog.tailed_triangle())
        restrictions, order = symmetry_restrictions(d)
        assert restrictions == [] and order == 1

    def test_restrictions_reference_later_positions(self):
        for n in (3, 4, 5):
            for pat in all_connected_patterns(n):
                d = decompose(pat)
                restrictions, _ = symmetry_restrictions(d)
                for i, j in restrictions:
                    assert i < j  # matcher checks them when j is placed

    def test_counts_invariant_under_symmetry_toggle(self, small_graphs):
        from repro.core.engine import EngineConfig, count_subgraphs

        for pat in (catalog.diamond(), catalog.four_clique(), catalog.four_cycle()):
            for g in small_graphs[:3]:
                on = count_subgraphs(
                    g, pat, engine="general", config=EngineConfig(symmetry_breaking=True)
                ).count
                off = count_subgraphs(
                    g, pat, engine="general", config=EngineConfig(symmetry_breaking=False)
                ).count
                assert on == off
