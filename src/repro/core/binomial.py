"""Binomial coefficients for the fringe formula.

The fc function evaluates ``nCk`` in its innermost loop, so we precompute a
Pascal triangle once and index it; entries above the table fall back to
:func:`math.comb` (exact big ints — counts overflow 64 bits quickly: the
paper's 2-tailed-triangle count alone is 2.1e7 on a 194k-edge graph, and
Fig. 4-scale patterns produce far larger values).

Batched evaluation does not come through here:
:meth:`~repro.core.fringe_poly.FringePolynomial.evaluate_batch` builds
its own per-column tables by ``C(v, d) = C(v, d-1) (v-d+1) / d`` — in
float64 with a per-row flag that marks where an entry may have rounded,
and as residues stacked over every RNS prime of a pass.
"""

from __future__ import annotations

import math

__all__ = ["PascalTable", "nCk", "DEFAULT_TABLE_SIZE"]

DEFAULT_TABLE_SIZE = 64


class PascalTable:
    """Dense (n+1, k+1) table of binomial coefficients.

    ``table[n][k] == C(n, k)``; lookups outside the table use math.comb.
    """

    __slots__ = ("rows", "size")

    def __init__(self, size: int = DEFAULT_TABLE_SIZE):
        rows: list[list[int]] = [[1]]
        for n in range(1, size):
            prev = rows[-1]
            row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
            rows.append(row)
        self.rows = rows
        self.size = size

    def nck(self, n: int, k: int) -> int:
        if k < 0 or k > n:
            return 0
        if n < self.size:
            return self.rows[n][k]
        return math.comb(n, k)


_PASCAL = PascalTable()


def nCk(n: int, k: int) -> int:
    """Exact ``C(n, k)``; 0 for k < 0 or k > n (the fc convention)."""
    return _PASCAL.nck(n, k)
