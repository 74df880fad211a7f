"""Tests for the compiled fringe polynomial (closed form of fc)."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import fringe_poly
from repro.core.fringe_count import fc_recursive
from repro.core.fringe_poly import _crt, _RNS_PRIMES, compile_fringe_polynomial


class TestEquivalenceWithFc:
    def test_random_configs(self):
        rng = random.Random(21)
        for _ in range(120):
            q = rng.randint(1, 3)
            full = (1 << q) - 1
            s = rng.randint(1, min(3, full))
            anch = sorted(rng.sample(range(1, full + 1), s))
            k = [rng.randint(1, 3) for _ in range(s)]
            poly = compile_fringe_polynomial(anch, k, q)
            for _ in range(4):
                venn = [0] + [rng.randint(0, 8) for _ in range(full)]
                assert poly.evaluate(venn) == fc_recursive(list(venn), anch, k, q)

    def test_no_types(self):
        poly = compile_fringe_polynomial((), (), 2)
        assert poly.evaluate([0, 5, 5, 5]) == 1
        assert poly.evaluate_batch(np.zeros((3, 4), dtype=np.int64)) == 3


class TestBatchEvaluation:
    def test_batch_equals_scalar_sum_small(self):
        poly = compile_fringe_polynomial([0b01, 0b11], [2, 1], 2)
        venns = np.random.default_rng(0).integers(0, 10, size=(500, 4))
        expect = sum(poly.evaluate([int(x) for x in row]) for row in venns)
        assert poly.evaluate_batch(venns) == expect

    def test_batch_equals_scalar_sum_huge_values(self):
        """Values far beyond float64 exactness must take the RNS path."""
        poly = compile_fringe_polynomial([0b001, 0b011, 0b111], [4, 3, 3], 3)
        venns = np.random.default_rng(1).integers(50, 400, size=(40, 8))
        expect = sum(poly.evaluate([int(x) for x in row]) for row in venns)
        got = poly.evaluate_batch(venns)
        assert got == expect
        assert got > 2**53  # confirms this exercised the exact path

    def test_empty_batch(self):
        poly = compile_fringe_polynomial([1], [1], 1)
        assert poly.evaluate_batch(np.zeros((0, 2), dtype=np.int64)) == 0

    def test_zero_venn(self):
        poly = compile_fringe_polynomial([1], [2], 1)
        assert poly.evaluate_batch(np.zeros((5, 2), dtype=np.int64)) == 0


class TestProfileDeduplication:
    """``evaluate_batch`` evaluates each distinct ``regions`` profile once."""

    @staticmethod
    def scalar_sum(poly, venns):
        return sum(poly.evaluate([int(x) for x in row]) for row in venns)

    @pytest.fixture
    def unique_calls(self, monkeypatch):
        """Records, per grouping call, whether it was row-wise: ``False``
        for the packed key's :func:`group_keys`, ``True`` for a row-wise
        ``np.unique``."""
        calls: list[bool] = []
        real_group, real_unique = fringe_poly.group_keys, np.unique

        def group_spy(key):
            calls.append(False)
            return real_group(key)

        def unique_spy(ar, *args, **kwargs):
            calls.append(kwargs.get("axis") is not None)
            return real_unique(ar, *args, **kwargs)

        monkeypatch.setattr(fringe_poly, "group_keys", group_spy)
        monkeypatch.setattr(np, "unique", unique_spy)
        return calls

    def test_rows_differing_outside_regions_share_one_value(self):
        poly = compile_fringe_polynomial([0b01], [2], 2)
        assert poly.regions == (1, 3)  # column 2 is never read
        rng = np.random.default_rng(2)
        venns = np.zeros((300, 4), dtype=np.int64)
        venns[:, 1] = rng.integers(0, 3, size=300)
        venns[:, 3] = rng.integers(0, 2, size=300)
        venns[:, 2] = rng.integers(0, 1000, size=300)
        venns[:, 0] = rng.integers(0, 1000, size=300)
        rows, counts = poly._distinct_profiles(venns)
        assert len(rows) == len({(a, b) for a, b in venns[:, [1, 3]].tolist()}) <= 6
        assert counts.sum() == 300
        assert poly.evaluate_batch(venns) == self.scalar_sum(poly, venns)

    def test_packed_key_path(self, unique_calls):
        poly = compile_fringe_polynomial([0b001, 0b011, 0b110], [2, 1, 2], 3)
        venns = np.random.default_rng(3).integers(0, 40, size=(2000, 8))
        assert poly.evaluate_batch(venns) == self.scalar_sum(poly, venns)
        assert unique_calls == [False]

    @pytest.mark.parametrize(
        "anch, k, q, low",
        [
            ([0b01, 0b10], [1, 2], 2, 1 << 21),  # 3 regions x 22 bits > 62
            ([0b001, 0b010, 0b100], [1, 1, 2], 3, 512),  # 7 regions x 10 bits
        ],
    )
    def test_row_wise_fallback_path(self, unique_calls, anch, k, q, low):
        poly = compile_fringe_polynomial(anch, k, q)
        rng = np.random.default_rng(4)
        distinct = rng.integers(low, low + 40, size=(50, 1 << q))
        venns = distinct[rng.integers(0, 50, size=400)]  # repeated rows
        assert poly.evaluate_batch(venns) == self.scalar_sum(poly, venns)
        assert unique_calls[0] is True
        assert len(poly._distinct_profiles(venns)[0]) == len(np.unique(venns, axis=0))

    def test_rns_rows_are_deduplicated_exactly(self):
        from repro.core.plan import compile_pattern
        from repro.patterns.dsl import parse_pattern

        poly = compile_pattern(parse_pattern("triangle + 6x0&1")).poly
        rng = np.random.default_rng(5)
        distinct = rng.integers(3000, 9000, size=(30, 1 << poly.q))
        venns = distinct[rng.integers(0, 30, size=200)]
        got = poly.evaluate_batch(venns)
        assert got == self.scalar_sum(poly, venns)
        assert got > 2**53  # beyond float64: the RNS path produced it

    def test_negative_values_are_never_packed(self, unique_calls):
        poly = compile_fringe_polynomial([0b01, 0b10], [1, 1], 2)
        # -1 packed with a 1-bit width would alias another profile
        venns = np.array([[0, -1, 1, 1], [0, 1, 1, 1], [0, 1, -1, 1], [0, 1, 1, 1]])
        assert poly.evaluate_batch(venns) == self.scalar_sum(poly, venns)
        assert unique_calls == [True]
        assert len(poly._distinct_profiles(venns)[0]) == 3


class TestStructure:
    def test_single_type_single_region(self):
        poly = compile_fringe_polynomial([0b11], [3], 2)
        # only the top region covers {u, v}: one term, weight 1
        assert poly.num_terms == 1
        assert poly.weights == (1,)

    def test_tail_type_region_count(self):
        poly = compile_fringe_polynomial([0b01], [1], 2)
        # one tail from either {u} or {u, v} region: two terms
        assert poly.num_terms == 2

    def test_weights_positive(self):
        poly = compile_fringe_polynomial([0b01, 0b10, 0b11], [2, 2, 2], 2)
        assert all(w > 0 for w in poly.weights)


class TestRNSInternals:
    def test_primes_are_prime_and_distinct(self):
        assert len(set(_RNS_PRIMES)) == len(_RNS_PRIMES) == 24
        for p in _RNS_PRIMES[:5]:
            assert all(p % d for d in range(2, int(p**0.5) + 1))
            assert p < 1 << 30

    def test_primes_are_the_24_largest_below_2_30(self):
        # the literal tuple must equal what a trial-division search finds
        expect, p = [], (1 << 30) - 1
        while len(expect) < 24:
            if all(p % d for d in range(3, int(p**0.5) + 1, 2)):
                expect.append(p)
            p -= 2
        assert _RNS_PRIMES == tuple(expect)

    def test_crt_round_trip(self):
        rng = random.Random(5)
        primes = list(_RNS_PRIMES[:6])
        modulus = 1
        for p in primes:
            modulus *= p
        for _ in range(20):
            x = rng.randrange(modulus)
            residues = [x % p for p in primes]
            assert _crt(residues, primes) == x


def flat(poly):
    """The same polynomial walked term by term: no prefix is shared."""
    return replace(poly, lcp=np.zeros_like(poly.lcp))


class TestHornerEvaluation:
    """The compiled shared-prefix order against the flat order."""

    def test_matches_flat_random(self):
        rng = random.Random(31)
        for _ in range(40):
            q = rng.randint(1, 3)
            full = (1 << q) - 1
            s = rng.randint(1, min(3, full))
            anch = sorted(rng.sample(range(1, full + 1), s))
            k = [rng.randint(1, 3) for _ in range(s)]
            poly = compile_fringe_polynomial(anch, k, q)
            venns = np.random.default_rng(1).integers(0, 10, size=(32, 1 << q))
            per_row, exact = poly._per_row_float(venns)
            flat_row, flat_exact = flat(poly)._per_row_float(venns)
            assert exact.all() and flat_exact.all()
            # small rows are exact in either order
            np.testing.assert_array_equal(per_row, flat_row)
            assert per_row.tolist() == [poly.evaluate(row) for row in venns.tolist()]

    def test_plan_covers_all_terms(self):
        poly = compile_fringe_polynomial([0b01, 0b10, 0b11], [3, 2, 2], 2)
        rows = poly.draws.tolist()
        assert poly.lcp.shape == (poly.num_terms,)
        assert poly.lcp[0] == 0  # first term has no prefix to share
        assert rows == sorted(rows)
        for t in range(1, poly.num_terms):
            shared = int(poly.lcp[t])
            assert rows[t][:shared] == rows[t - 1][:shared]
            assert shared == len(rows[t]) or rows[t][shared] != rows[t - 1][shared]
        assert poly.lcp.sum() > 0

    def test_no_regions(self):
        poly = compile_fringe_polynomial((), (), 1)
        per_row, exact = poly._per_row_float(np.zeros((4, 2), dtype=np.int64))
        assert per_row.tolist() == [1.0] * 4
        assert exact.all()

    def test_rns_flat_order_agrees(self):
        poly = compile_fringe_polynomial([0b01, 0b10, 0b11], [5, 4, 4], 2)
        venns = np.random.default_rng(6).integers(10**5, 10**6, size=(50, 4))
        counts = np.arange(1, 51, dtype=np.int64)
        expect = sum(c * poly.evaluate(row) for c, row in zip(counts.tolist(), venns.tolist()))
        bound = expect.bit_length() + 1.0
        assert expect > 2**200
        assert poly._evaluate_batch_rns(venns, bound, counts) == expect
        assert flat(poly)._evaluate_batch_rns(venns, bound, counts) == expect


# Venn entries from three scales: small, around the 2^52 float limit for
# a few draws, and large enough that rows need many primes
VENN_ENTRY = st.one_of(
    st.integers(0, 12), st.integers(50, 5_000), st.integers(10**5, 10**7)
)


@st.composite
def polys_and_rows(draw):
    q = draw(st.integers(1, 3))
    full = (1 << q) - 1
    anch = sorted(draw(st.sets(st.integers(1, full), min_size=1, max_size=min(3, full))))
    k = draw(st.lists(st.integers(1, 8 if q < 3 else 3), min_size=len(anch), max_size=len(anch)))
    rows = draw(st.lists(st.lists(VENN_ENTRY, min_size=full + 1, max_size=full + 1),
                         min_size=1, max_size=6))
    counts = draw(st.lists(st.integers(1, 1000), min_size=len(rows), max_size=len(rows)))
    return anch, k, q, np.array(rows, dtype=np.int64), np.array(counts, dtype=np.int64)


class TestOneWalk:
    """The float pass and the stacked RNS pass walk the one compiled
    order; both must equal the scalar flat ``evaluate`` and ``fc``."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(polys_and_rows())
    def test_passes_equal_evaluate_and_fc(self, case):
        anch, k, q, rows, counts = case
        poly = compile_fringe_polynomial(anch, k, q)
        values = [poly.evaluate(row) for row in rows.tolist()]
        assert values == [fc_recursive(row, anch, k, q) for row in rows.tolist()]
        expect = sum(c * v for c, v in zip(counts.tolist(), values))
        # float pass: every row flagged exact and below 2^52 is exact
        per_row, exact = poly._per_row_float(rows)
        for value, got, ok in zip(values, per_row.tolist(), exact.tolist()):
            if ok and got < 2**52:
                assert got == value
            elif value:
                assert math.isclose(got, value, rel_tol=1e-9)
        # stacked RNS pass, under the production hard bound
        bound = poly._total_log2_bound(rows) + math.log2(int(counts.max()))
        assert bound + 2.0 >= math.log2(max(expect, 1))  # the prime pick's slack
        assert poly._evaluate_batch_rns(rows, bound, counts) == expect
        assert poly.evaluate_batch(np.repeat(rows, counts, axis=0)) == expect

    def test_many_primes(self):
        poly = compile_fringe_polynomial([0b01, 0b10], [8, 8], 2)
        rows = np.array([[0, 10**7, 10**7, 10**6], [0, 10**6, 3, 10**7]], dtype=np.int64)
        expect = sum(poly.evaluate(row) for row in rows.tolist())
        assert expect > 2**300
        assert poly.evaluate_batch(rows) == expect

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_rows_straddling_the_float_limit(self, k):
        poly = compile_fringe_polynomial([0b1], [k], 1)
        v = int((2**52 * math.factorial(k)) ** (1 / k))  # C(v, k) ≈ v^k / k!
        while math.comb(v, k) < 2**52:
            v += 1
        while math.comb(v - 1, k) >= 2**52:
            v -= 1
        rows = np.array([[0, v + dv] for dv in range(-3, 4)], dtype=np.int64)
        per_row, exact = poly._per_row_float(rows)
        assert (per_row < 2**52).any() and (per_row >= 2**52).any()
        for row in rows.tolist():
            assert poly.evaluate_batch(np.array([row])) == math.comb(row[1], k)
        assert poly.evaluate_batch(rows) == sum(math.comb(v + dv, k) for dv in range(-3, 4))


class TestFloatExactness:
    """Float binomial tables drift once an intermediate product passes
    2^53, even when the row's value is below 2^52."""

    def test_single_type_sweep(self):
        bad = []
        for k in range(20, 64):
            poly = compile_fringe_polynomial([0b1], [k], 1)
            for v in range(k, 80):
                if poly.evaluate_batch(np.array([[0, v]])) != math.comb(v, k):
                    bad.append((k, v))
        assert bad == []

    @pytest.mark.parametrize("engine", ["auto", "frontier", "general"])
    def test_star_count(self, engine):
        from repro import count_subgraphs
        from repro.graph import generators as gen
        from repro.patterns import catalog

        res = count_subgraphs(gen.star_graph(60), catalog.star(20), engine=engine)
        assert res.count == math.comb(60, 20)
