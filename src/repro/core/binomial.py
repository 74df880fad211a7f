"""Binomial coefficients for the fringe formula.

The fc function evaluates ``nCk`` in its innermost loop, so we precompute a
Pascal triangle once and index it; entries above the table fall back to
:func:`math.comb` (exact big ints — counts overflow 64 bits quickly: the
paper's 2-tailed-triangle count alone is 2.1e7 on a 194k-edge graph, and
Fig. 4-scale patterns produce far larger values).

A vectorized variant serves the NumPy specialized engines. It returns
``float64`` (exact up to 2^53) or ``object`` arrays on demand.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PascalTable", "nCk", "nck_array", "DEFAULT_TABLE_SIZE"]

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


def nck_array(n: np.ndarray, k: int) -> np.ndarray:
    """Vectorized exact ``C(n[i], k)`` as float64.

    Exact for results below 2^53, which covers every per-vertex/per-edge
    term in the specialized engines (n is a vertex degree; k <= ~10).
    Aggregation into final counts is done in Python ints by the callers.
    """
    n = np.asarray(n, dtype=np.float64)
    if k < 0:
        return np.zeros_like(n)
    out = np.ones_like(n)
    for i in range(k):
        out *= n - i
        out /= i + 1
    return np.where(n >= k, np.rint(out), 0.0)
