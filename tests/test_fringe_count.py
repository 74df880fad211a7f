"""Tests for the fc function (Listing 5) and the compiled polynomial."""

import math
import random

import pytest

from repro.core.fringe_count import count_fringe_choices, fc_recursive
from repro.core.fringe_poly import compile_fringe_polynomial


def brute_force_fringe_choices(venn, anch, k, q):
    """Independent reference: materialize the regions as vertex sets and
    count disjoint per-type set choices by brute force."""
    from itertools import combinations

    # build disjoint pools of distinct tokens per region
    pools = {}
    token = 0
    for idx in range(1, 1 << q):
        pools[idx] = list(range(token, token + venn[idx]))
        token += venn[idx]

    def rec(t, used):
        if t == len(anch):
            return 1
        eligible = [
            x
            for idx in range(1, 1 << q)
            if (idx & anch[t]) == anch[t]
            for x in pools[idx]
            if x not in used
        ]
        total = 0
        for chosen in combinations(eligible, k[t]):
            total += rec(t + 1, used | set(chosen))
        return total

    return rec(0, frozenset())


class TestAgainstBruteForce:
    @pytest.mark.parametrize("impl", ["recursive", "poly"])
    def test_random_small_cases(self, impl):
        rng = random.Random(7)
        for _ in range(40):
            q = rng.randint(1, 3)
            full = (1 << q) - 1
            s = rng.randint(1, min(2, full))
            anch = sorted(rng.sample(range(1, full + 1), s))
            k = [rng.randint(1, 2) for _ in range(s)]
            venn = [0] + [rng.randint(0, 3) for _ in range(full)]
            expect = brute_force_fringe_choices(venn, anch, k, q)
            if impl == "recursive":
                got = count_fringe_choices(venn, anch, k, q)
            else:
                got = compile_fringe_polynomial(anch, k, q).evaluate(venn)
            assert got == expect, (anch, k, venn)


class TestKnownValues:
    def test_single_tail_type(self):
        # one type anchored at vertex 0 with k tails: C(total coverage, k)
        venn = [0, 5, 3, 2]  # q=2: s_u=5, s_v=3, s_uv=2
        # tails of u draw from s_u and s_uvw: C(5+2, 3)
        assert fc_recursive(list(venn), [0b01], [3], 2) == math.comb(7, 3)

    def test_wedge_type_only_top_region(self):
        venn = [0, 5, 3, 2]
        # anchored at both: only s_uv qualifies
        assert fc_recursive(list(venn), [0b11], [2], 2) == math.comb(2, 2)

    def test_tailed_triangle_formula(self):
        # paper §3.1: F = C(n_u,1) C(n_uv,1) + C(n_uv,1) C(n_uv - 1, 1)
        for n_u, n_v, n_uv in [(3, 2, 4), (0, 1, 2), (5, 5, 0)]:
            venn = [0, n_u, n_v, n_uv]
            expect = n_u * n_uv + n_uv * (n_uv - 1)
            got = fc_recursive(list(venn), [0b01, 0b11], [1, 1], 2)
            assert got == expect

    def test_insufficient_supply_zero(self):
        venn = [0, 1, 0, 0]
        assert fc_recursive(list(venn), [0b11], [1], 2) == 0

    def test_no_fringe_types(self):
        assert fc_recursive([0, 3], (), (), 1) == 1


class TestVennRestoration:
    @pytest.mark.parametrize("impl", [fc_recursive, count_fringe_choices])
    def test_venn_unchanged_after_call(self, impl):
        venn = [0, 4, 2, 3, 1, 2, 0, 5]
        snapshot = list(venn)
        impl(venn, [0b001, 0b011, 0b111], [2, 1, 1], 3)
        assert venn == snapshot

    def test_wrapper_copies(self):
        venn = (0, 3, 3, 3)
        assert count_fringe_choices(venn, [1], [2], 2) > 0  # tuple accepted

