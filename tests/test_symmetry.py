"""The partition-refinement symmetry search against the brute-force oracles.

``repro.patterns.symmetry`` replaces enumeration on every production path
(canonical key, plan key, Aut_dec restrictions, orbits); the exponential
``repro.patterns.isomorphism`` matchers stay as the oracles it is checked
against here.
"""

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import EngineConfig
from repro.core.plan import compile_pattern, plan_key
from repro.graph import generators as gen
from repro.patterns import catalog
from repro.patterns.automorphisms import (
    aut_size_bruteforce,
    decorated_core_automorphisms,
    symmetry_restrictions,
)
from repro.patterns.decompose import decompose
from repro.patterns.dsl import parse_pattern
from repro.patterns.isomorphism import automorphisms_of, isomorphisms
from repro.patterns.orbits import edge_orbits, vertex_orbits
from repro.patterns.pattern import Pattern, all_connected_patterns
from repro.patterns.symmetry import search, stabilizer_chain
from repro.runtime import Runtime


def catalog_patterns() -> dict[str, Pattern]:
    """Every named catalog pattern with a core matcher (n >= 3), plus the
    perfbench mix patterns that are not catalog entries."""
    pats: dict[str, Pattern] = dict(catalog.fig1_patterns())
    for family in (
        catalog.vertex_core_family(),
        catalog.edge_core_family(),
        catalog.wedge_core_family(),
        catalog.triangle_core_family(),
    ):
        pats.update(family)
    pats["fig4"] = catalog.fig4_pattern()
    pats["5-clique"] = catalog.clique(5)
    pats["6-cycle"] = catalog.cycle(6)
    pats["K2,3"] = catalog.complete_bipartite(2, 3)
    pats["3-book"] = catalog.book(3)
    pats["2-friendship"] = catalog.friendship(2)
    pats["2-tailed 4-clique"] = catalog.tailed_four_clique(2)
    for expr in ("paw", "3-tailed-triangle", "triangle + 2x0 + 3x0&1"):
        pats[expr] = parse_pattern(expr)
    return {name: p for name, p in pats.items() if p.n >= 3}


CATALOG = catalog_patterns()


def chain_order(generators, n: int) -> int:
    return math.prod(len(level) for level in stabilizer_chain(generators, range(n), n))


def oracle_restrictions(decomp) -> tuple[list[tuple[int, int]], int]:
    """The enumeration construction: list Aut_dec by brute force, then walk
    the matching order pinning each vertex to the minimum of its orbit
    under the stabilizer of the earlier ones."""
    decoration = decomp.decoration()
    autos = [
        perm
        for perm in isomorphisms(decomp.core_pattern, decomp.core_pattern)
        if {frozenset(perm[c] for c in a): k for a, k in decoration.items()} == decoration
    ]
    order = decomp.matching_order
    pos_of = {c: i for i, c in enumerate(order)}
    restrictions = []
    group = autos
    for c in order:
        orbit = {a[c] for a in group}
        restrictions.extend((pos_of[c], pos_of[o]) for o in sorted(orbit - {c}))
        group = [a for a in group if a[c] == c]
    return restrictions, len(autos)


@st.composite
def relabeled_pattern(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = list(combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    edges.update(extra)
    perm = draw(st.permutations(range(n)))
    pat = Pattern.from_edges(sorted(edges), n=n)
    return pat, pat.relabel(perm)


class TestCanonicalKey:
    @given(relabeled_pattern())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_relabelings_share_one_key(self, pair):
        p, q = pair
        assert p.canonical_key() == q.canonical_key()
        assert plan_key(p, EngineConfig()) == plan_key(q, EngineConfig())

    @pytest.mark.parametrize(
        "a,b",
        [
            # K3,3 vs the triangular prism: both 3-regular on 6 vertices
            (catalog.complete_bipartite(3, 3),
             Pattern.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                 (0, 3), (1, 4), (2, 5)])),
            # the cube Q3 vs the Wagner graph: both 3-regular on 8 vertices
            (Pattern.from_edges([(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                                 if u < u ^ (1 << b)]),
             Pattern.from_edges([(i, (i + 1) % 8) for i in range(8)]
                                + [(i, i + 4) for i in range(4)])),
        ],
        ids=["K33-vs-prism", "cube-vs-wagner"],
    )
    def test_equal_degree_sequences_different_keys(self, a, b):
        assert sorted(a.degrees()) == sorted(b.degrees())
        assert a.num_edges == b.num_edges
        assert a.canonical_key() != b.canonical_key()
        assert not a.is_isomorphic(b)

    def test_key_is_cached_on_the_pattern(self):
        p = catalog.star(6)
        assert p.symmetry is p.symmetry
        assert p.canonical_key() is p.canonical_key()

    def test_pickle_drops_the_cache(self):
        import pickle

        p = catalog.fig4_pattern()
        p.canonical_key()
        q = pickle.loads(pickle.dumps(p))
        assert q == p and "symmetry" not in q.__dict__
        assert q.canonical_key() == p.canonical_key()

    def test_empty_pattern(self):
        assert Pattern(0, ()).canonical_key() == (0, ())


class TestGroup:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generators_generate_the_whole_group(self, n):
        for pat in all_connected_patterns(n):
            sym = pat.symmetry
            autos = set(automorphisms_of(pat))
            assert set(sym.generators) <= autos
            assert chain_order(sym.generators, n) == len(autos), pat.edges()

    def test_catalog_group_orders(self):
        for name, pat in CATALOG.items():
            if pat.n > 9:
                continue  # the oracle is exponential; fig4 is checked below
            assert chain_order(pat.symmetry.generators, pat.n) == aut_size_bruteforce(pat), name

    @pytest.mark.parametrize(
        "pat,order",
        [
            (Pattern.from_edges([(i, (i + 1) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]), 120),
            (Pattern.from_edges([(u, u ^ (1 << b)) for u in range(32) for b in range(5)
                                 if u < u ^ (1 << b)]), 2**5 * math.factorial(5)),
            (catalog.complete_bipartite(15, 15), 2 * math.factorial(15) ** 2),
            (catalog.star(30), math.factorial(30)),
            (catalog.cycle(30), 60),
        ],
        ids=["petersen", "Q5", "K15,15", "30-star", "30-cycle"],
    )
    def test_group_orders_beyond_brute_force(self, pat, order):
        assert chain_order(pat.symmetry.generators, pat.n) == order

    def test_fig4_group_order(self):
        # 2!^3 tails · 2!·2! wedges · 2! tri-fringes · the 1<->2 core swap
        pat = catalog.fig4_pattern()
        assert chain_order(pat.symmetry.generators, pat.n) == 2**3 * 2 * 2 * 2 * 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_orbits_match_brute_force(self, n):
        for pat in all_connected_patterns(n):
            autos = automorphisms_of(pat)
            expected = sorted({frozenset(a[v] for a in autos) for v in range(n)}, key=min)
            assert vertex_orbits(pat) == expected
            edge_expected = {
                frozenset((min(a[u], a[v]), max(a[u], a[v])) for a in autos)
                for u, v in pat.edges()
            }
            assert set(edge_orbits(pat)) == edge_expected

    def test_colours_split_twin_classes(self):
        # star leaves 1, 2 and 3, 4 are twins only within their colour
        sym = search(catalog.star(4).adj, colors=[0, 0, 0, 1, 1])
        assert chain_order(sym.generators, 5) == 4
        assert sym.orbits == (frozenset({0}), frozenset({1, 2}), frozenset({3, 4}))

    @pytest.mark.parametrize(
        "pat",
        [catalog.star(200), catalog.complete_bipartite(3, 40), catalog.k_tailed_triangle(50)],
        ids=["200-star", "K3,40", "50-tailed-triangle"],
    )
    def test_fringe_heavy_relabelings_share_one_key(self, pat):
        perm = list(range(pat.n))
        random.Random(pat.n).shuffle(perm)
        assert pat.relabel(perm).canonical_key() == pat.canonical_key()

    def test_colours_restrict_the_group(self):
        # a 4-cycle with one vertex coloured apart keeps only the mirror
        # through it
        sym = search(catalog.four_cycle().adj, colors=[1, 0, 0, 0])
        assert chain_order(sym.generators, 4) == 2
        assert sym.orbits == (frozenset({0}), frozenset({1, 3}), frozenset({2}))

    def test_stabilizer_chain_of_the_symmetric_group(self):
        transposition, cycle = (1, 0, 2, 3, 4), (1, 2, 3, 4, 0)
        levels = stabilizer_chain([transposition, cycle], [0, 1, 2, 3, 4], 5)
        assert [len(level) for level in levels] == [5, 4, 3, 2, 1]
        for base_point, level in zip(range(5), levels):
            assert all(u[base_point] == point for point, u in level.items())

    def test_stabilizer_chain_rejects_a_partial_base(self):
        with pytest.raises(ValueError):  # a generator fixes the base
            stabilizer_chain([(0, 1, 3, 2)], [0], 4)
        with pytest.raises(ValueError):  # a Schreier generator does: (2 3)
            stabilizer_chain([(1, 0, 3, 2), (1, 0, 2, 3)], [0], 4)
        assert len(stabilizer_chain([(1, 0, 3, 2)], [0], 4)[0]) == 2  # a base


class TestSymmetryRestrictions:
    def test_small_patterns_equal_the_enumeration(self):
        for n in range(3, 7):
            for pat in all_connected_patterns(n):
                d = decompose(pat)
                assert symmetry_restrictions(d) == oracle_restrictions(d), pat.edges()

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_equals_the_enumeration(self, name):
        d = decompose(CATALOG[name])
        restrictions, order = symmetry_restrictions(d)
        assert (restrictions, order) == oracle_restrictions(d)
        assert order == len(decorated_core_automorphisms(d))

    def test_decorated_elements_are_decorated_automorphisms(self):
        d = decompose(catalog.fig4_pattern())
        decoration = d.decoration()
        elements = decorated_core_automorphisms(d)
        assert len(set(elements)) == len(elements) == 2
        for perm in elements:
            assert {frozenset(perm[c] for c in a): k for a, k in decoration.items()} == decoration


class TestPlansUnchanged:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_aut_size_and_frontier_counts(self, name):
        pat = CATALOG[name]
        plan = compile_pattern(pat)
        if pat.n <= 9:
            assert plan.aut_size == aut_size_bruteforce(pat)
        graph = gen.erdos_renyi(14, 0.45, seed=7)
        runtime = Runtime()
        frontier = runtime.count(graph, pat, engine="frontier").count
        # the oracle without symmetry breaking enumerates every ordered
        # core embedding, so it does not use the restrictions at all
        unrestricted = runtime.count(
            graph, pat, engine="general", config=EngineConfig(symmetry_breaking=False)
        ).count
        assert frontier == unrestricted

    def test_clique12_compiles_fast(self):
        pat = catalog.clique(12)
        t0 = time.perf_counter()
        plan = compile_pattern(pat)
        elapsed = time.perf_counter() - t0
        assert plan.aut_size == math.factorial(12)
        assert plan.group_order == math.factorial(11)  # the K11 core; one fringe
        assert elapsed < 1.0, elapsed

    @pytest.mark.parametrize("pat", [catalog.star(10), catalog.fig4_pattern()], ids=str)
    def test_relabelings_share_a_plan_beyond_nine_vertices(self, pat):
        runtime = Runtime()
        perm = list(range(pat.n))
        random.Random(3).shuffle(perm)
        relabeled = pat.relabel(perm)
        assert relabeled != pat
        first, _, _ = runtime.plan_for(pat)
        second, hit, _ = runtime.plan_for(relabeled)
        assert hit and second is first
