"""Tests for the compiled fringe polynomial (closed form of fc)."""

import random

import numpy as np
import pytest

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


class TestHornerEvaluation:
    def test_matches_flat_random(self):
        import numpy as np

        rng = random.Random(31)
        for _ in range(40):
            q = rng.randint(1, 3)
            full = (1 << q) - 1
            s = rng.randint(1, min(3, full))
            anch = sorted(rng.sample(range(1, full + 1), s))
            k = [rng.randint(1, 3) for _ in range(s)]
            poly = compile_fringe_polynomial(anch, k, q)
            venns = np.random.default_rng(1).integers(0, 10, size=(32, 1 << q))
            assert np.allclose(
                poly._per_row_float(venns), poly.per_row_float_horner(venns)
            )

    def test_plan_covers_all_terms(self):
        poly = compile_fringe_polynomial([0b01, 0b11], [3, 2], 2)
        plan = poly.horner_plan()
        assert sorted(t for _, t in plan) == list(range(poly.num_terms))
        assert plan[0][0] == 0  # first term has no prefix to share

    def test_no_regions(self):
        import numpy as np

        poly = compile_fringe_polynomial((), (), 1)
        out = poly.per_row_float_horner(np.zeros((4, 2), dtype=np.int64))
        assert out.tolist() == [1.0] * 4
