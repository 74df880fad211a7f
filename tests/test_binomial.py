"""Tests for binomial coefficient helpers."""

import math

from repro.core.binomial import DEFAULT_TABLE_SIZE, PascalTable, nCk


class TestNck:
    def test_matches_math_comb_in_table(self):
        for n in range(0, DEFAULT_TABLE_SIZE):
            for k in range(0, n + 1):
                assert nCk(n, k) == math.comb(n, k)

    def test_out_of_range_zero(self):
        assert nCk(5, 6) == 0
        assert nCk(5, -1) == 0

    def test_beyond_table_exact(self):
        assert nCk(200, 17) == math.comb(200, 17)
        assert nCk(100_000, 5) == math.comb(100_000, 5)

    def test_custom_table_size(self):
        t = PascalTable(4)
        assert t.nck(3, 2) == 3
        assert t.nck(10, 4) == 210  # falls back to math.comb

