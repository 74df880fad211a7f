"""The fringe-counting function ``fc`` (paper Listing 5).

Given the Venn diagram of a matched core, ``fc`` computes the number of
ways to choose all fringe vertices: for each fringe type it sums over
every Venn region covering the type's anchor set, drawing ``i`` fringes
from the region (``nCk(region, i)`` ways), decrementing the region, and
recursing. Region iteration uses the paper's bitset trick
``idx = (idx + 1) | anch`` which enumerates exactly the supersets of the
anchor bitset in increasing order.

:func:`fc_recursive` is a line-for-line port of Listing 5: the serial
oracle's per-match count and the reference the compiled fringe
polynomial (:mod:`repro.core.fringe_poly`) is tested against.

All of Listing 5's optimizations are present: early exit when a type is
exhausted (line 6), zero-return when the last region is too small (line 9),
and the ``min(rem, vc)`` summation bound (line 16).
"""

from __future__ import annotations

from typing import Sequence

from .binomial import nCk

__all__ = ["fc_recursive", "count_fringe_choices"]


def fc_recursive(venn: list[int], anch: Sequence[int], k: Sequence[int], q: int) -> int:
    """Number of ways to place all fringes, reference recursion.

    Parameters mirror the paper: ``venn`` is the mutable 2^q array of
    disjoint region sizes (entry 0 unused), ``anch[t]``/``k[t]`` the anchor
    bitset and fringe count of type ``t``, ``q`` the anchored-vertex count.
    ``venn`` is restored before returning.
    """
    s = len(anch)
    if s == 0:
        return 1
    last = (1 << q) - 1

    def fc(pos: int, rem: int, idx: int) -> int:
        if pos == s:
            return 1  # end of recursion
        if rem == 0:  # next fringe type
            nxt = pos + 1
            return fc(nxt, k[nxt] if nxt < s else 0, anch[nxt] if nxt < s else 0)
        vc = venn[idx]
        if idx == last:  # last entry of the array
            if rem > vc:
                return 0  # no solution
            venn[idx] -= rem
            nxt = pos + 1
            cnt = nCk(vc, rem) * fc(nxt, k[nxt] if nxt < s else 0, anch[nxt] if nxt < s else 0)
            venn[idx] += rem
            return cnt
        cnt = 0
        top = min(rem, vc)
        for i in range(top + 1):  # summation loop
            venn[idx] -= i
            cnt += nCk(vc, i) * fc(pos, rem - i, (idx + 1) | anch[pos])
            venn[idx] += i
        return cnt

    return fc(0, k[0], anch[0])


def count_fringe_choices(
    venn: Sequence[int], anch: Sequence[int], k: Sequence[int], q: int
) -> int:
    """Public wrapper: copies ``venn`` so callers keep theirs immutable."""
    return fc_recursive(list(venn), anch, k, q)
