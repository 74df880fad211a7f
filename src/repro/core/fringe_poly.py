"""Compiled fringe polynomial: a closed form equivalent to fc.

``fc`` (Listing 5) evaluates, per matched core, a nest of summations whose
*shape* depends only on the pattern. Expanding the nest symbolically shows
the fringe-set count is a fixed polynomial in the Venn entries:

```
F(venn) = Σ_D  W_D · Π_r C(venn[r], D_r)
```

where ``D`` ranges over the pattern's feasible *draw vectors* (how many
fringe vertices are taken from each Venn region in total) and the integer
weight collects the multinomial interleavings of fringe types within each
region:

```
W_D = Σ_{d_{t,r} : Σ_r d_{t,r} = k_t, Σ_t d_{t,r} = D_r, d_{t,r} = 0
        unless region r covers type t's anchor set}
      Π_r  D_r! / Π_t d_{t,r}!
```

Compiling ``(D, W_D)`` once per pattern turns per-match fringe counting
into a short dot product — and, crucially, one that vectorizes across
*batches* of matches with NumPy (the role the CUDA kernel's per-thread fc
loop plays on a GPU). Equivalence with ``fc_recursive`` is property-tested.

Batches are evaluated in one term order, fixed at compile time: the draw
vectors sorted lexicographically, each term recording how many leading
columns it shares with the one before (``lcp``). One walk visits the terms
in that order and multiplies each shared prefix of binomial factors once
(a multivariate Horner scheme). It runs once on float64 tables, whose
rows are exact while the row's value stays below 2^52 and no table
product reached 2^53 (a per-row flag records the tables' part), and once
per magnitude bucket of the remaining rows, on residue tables stacked
over all the primes that bucket needs, recombined by CRT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .binomial import nCk
from .venn import group_keys

__all__ = ["FringePolynomial", "compile_fringe_polynomial"]

_EXACT_LIMIT = float(1 << 52)

# 30-bit primes for the residue-number-system path: residue products stay
# below 2^60 in int64, and 24 primes give ~2^720 of exact range. They are
# the 24 largest primes below 2^30, in descending order, written out
# because finding them by trial division cost ~40 ms of every import;
# tests/test_fringe_poly.py regenerates the list and compares.
_RNS_PRIMES: tuple[int, ...] = (
    1073741789, 1073741783, 1073741741, 1073741723, 1073741719, 1073741717,
    1073741689, 1073741671, 1073741663, 1073741651, 1073741621, 1073741567,
    1073741561, 1073741527, 1073741503, 1073741477, 1073741467, 1073741441,
    1073741419, 1073741399, 1073741387, 1073741381, 1073741371, 1073741329,
)


def _crt(residues: list[int], primes: list[int]) -> int:
    """Chinese-remainder reconstruction (all moduli coprime)."""
    total, modulus = 0, 1
    for r, p in zip(residues, primes):
        # solve total' ≡ total (mod modulus), total' ≡ r (mod p)
        inv = pow(modulus % p, -1, p)
        t = ((r - total) * inv) % p
        total += modulus * t
        modulus *= p
    return total


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@dataclass(frozen=True)
class FringePolynomial:
    """``F(venn) = Σ_i weights[i] · Π_j C(venn[regions[j]], draws[i, j])``.

    ``regions`` lists the Venn indices that ever receive a draw;
    ``draws`` is an ``(n_terms, n_regions)`` int array in lexicographic
    order; ``weights`` holds exact integer coefficients (kept as a list
    of Python ints — they can exceed 64 bits for very fringe-heavy
    patterns). ``lcp[i]`` is the number of leading columns term ``i``
    shares with term ``i - 1`` (0 for the first term): the batched walk
    reuses that prefix's product instead of recomputing it.
    """

    q: int
    regions: tuple[int, ...]
    draws: np.ndarray
    weights: tuple[int, ...]
    max_draw: tuple[int, ...]  # per region column, max draw over terms
    lcp: np.ndarray

    # ------------------------------------------------------------------
    def evaluate(self, venn: Sequence[int]) -> int:
        """Exact scalar evaluation (big ints), term by term."""
        total = 0
        for w, row in zip(self.weights, self.draws.tolist()):
            term = w
            for j, r in enumerate(self.regions):
                d = row[j]
                if d:
                    term *= nCk(venn[r], d)
                    if term == 0:
                        break
            total += term
        return total

    def evaluate_batch(self, venn_matrix: np.ndarray, counts: np.ndarray | None = None) -> int:
        """Σ over rows of ``counts[i] · F(venn_row)``, vectorized and **exact**.

        ``venn_matrix`` is ``(n_matches, 2^q)``; ``counts`` (default: all
        ones) gives each row's multiplicity, so a caller that grouped
        equal rows passes one row per group. A float64 pass computes
        every row; rows whose binomial tables are exact and whose
        weighted value (and hence every intermediate — all terms are
        non-negative) stays below 2^52 are summed directly. The
        remaining rows are re-evaluated in a residue number system —
        vectorized int64 arithmetic modulo several 30-bit primes,
        recombined by CRT. This keeps fringe-heavy patterns (whose counts
        dwarf 2^64) both exact and data-parallel, exactly the multi-word
        strategy GPU big-integer kernels use.
        """
        if len(venn_matrix) == 0:
            return 0
        # Identical region profiles are common on skewed graphs (low-degree
        # matches repeat the same small profiles); evaluating each
        # distinct profile once and weighting by multiplicity shrinks both
        # the float and the RNS passes.
        venn_matrix, counts = self._distinct_profiles(venn_matrix, counts)
        per_row, exact = self._per_row_float(venn_matrix)
        total = 0
        nan = np.isnan(per_row)
        if nan.any():
            # a zero factor times an overflowed one (inf · 0): such rare
            # rows are counted one by one, exactly
            total = sum(self.evaluate(row) * c for row, c in zip(
                venn_matrix[nan].tolist(), counts[nan].tolist()))
            per_row[nan] = 0.0
        # a float 0 is exact whatever the tables (a non-zero factor is at
        # least 1); otherwise a row is exact if its tables are and its
        # weighted value < 2^52: terms are non-negative, so every partial
        # sum and product is bounded by it
        safe = per_row == 0
        if all(0 <= w < _EXACT_LIMIT for w in self.weights):
            safe |= exact & (per_row * counts < _EXACT_LIMIT)
        total += int(
            (np.rint(per_row[safe]).astype(np.int64) * counts[safe]).sum(dtype=np.object_)
        )
        if np.all(safe):
            return total
        # Bucket the risky rows by estimated magnitude so small-but-risky
        # rows pay for 2 primes, not for the worst row's 6+: the float
        # pass already gives a log2 estimate wherever it stayed finite.
        risky_idx = np.nonzero(~safe)[0]
        est = per_row[risky_idx] * counts[risky_idx]
        finite = np.isfinite(est) & (est > 0)
        log2_est = np.full(len(risky_idx), np.inf)
        log2_est[finite] = np.log2(est[finite])
        buckets: dict[int, list[int]] = {}
        for j, le in enumerate(log2_est):
            if math.isinf(le):
                buckets.setdefault(-1, []).append(j)  # needs the hard bound
            else:
                # +8 bits of slack for float error in the estimate
                primes_needed = max(2, int((le + 8) // 29) + 1)
                buckets.setdefault(primes_needed, []).append(j)
        for n_primes, local in sorted(buckets.items()):
            rows = venn_matrix[risky_idx[local]]
            cnts = counts[risky_idx[local]]
            if n_primes == -1:
                bound = self._total_log2_bound(rows) + math.log2(float(cnts.max()))
            else:
                # per-row values < 2^(29 n); the bucket *sum* needs the
                # extra log2(len) headroom
                bound = n_primes * 29.0 + math.log2(len(local))
            total += self._evaluate_batch_rns(rows, bound, cnts)
        return total

    def _distinct_profiles(
        self, venn_matrix: np.ndarray, counts: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One representative row per distinct ``regions`` profile, and
        each profile's multiplicity: its number of rows, or the sum of
        its rows' ``counts``.

        F reads only the ``regions`` columns, so rows that differ
        elsewhere share one value, and any row of a group represents it.
        Non-negative profiles whose columns fit side by side in 62 bits
        are packed into one int64 key and grouped by
        :func:`~repro.core.venn.group_keys`; anything else (wide values,
        many regions, or a negative entry) takes the row-wise
        ``np.unique`` on the projected columns.
        """
        cols = venn_matrix[:, list(self.regions)]
        if cols.shape[1] == 0:
            total = len(venn_matrix) if counts is None else counts.sum()
            return venn_matrix[:1], np.array([total], dtype=np.int64)
        lo, hi = int(cols.min()), int(cols.max())
        width = hi.bit_length()
        if lo >= 0 and width * cols.shape[1] <= 62:
            key = np.zeros(len(cols), dtype=np.int64)
            for j in range(cols.shape[1]):
                key = (key << width) | cols[:, j]
            first, inverse, sizes = group_keys(key)
        else:
            _, first, inverse, sizes = np.unique(
                cols, axis=0, return_index=True, return_inverse=True, return_counts=True
            )
        if counts is not None:
            sizes = np.zeros(len(first), dtype=np.int64)
            np.add.at(sizes, inverse.reshape(-1), counts)
        return venn_matrix[first], sizes

    # -- the one term walk ----------------------------------------------
    def _walk(
        self,
        tables: list[list[np.ndarray]],
        mul: Callable[[np.ndarray, np.ndarray], np.ndarray],
        add: Callable[[int, np.ndarray | None], None],
    ) -> None:
        """Visit every term in compiled order with its product of factors.

        ``tables[j][d]`` is the factor of drawing ``d`` from column ``j``
        and ``mul`` multiplies two factors. ``add(t, product)`` receives
        term ``t``'s product, ``None`` when all its draws are 0. Term
        ``t`` starts from the stored product of its first ``lcp[t]``
        columns and stores each longer prefix it builds for its
        successors.
        """
        prefix: list[np.ndarray | None] = [None] * len(self.regions)
        for t, (shared, row) in enumerate(zip(self.lcp.tolist(), self.draws.tolist())):
            running = prefix[shared - 1] if shared else None
            for j in range(shared, len(row)):
                d = row[j]
                if d:
                    running = tables[j][d] if running is None else mul(running, tables[j][d])
                prefix[j] = running
            add(t, running)

    # -- float64 fast path ---------------------------------------------
    def _float_tables(self, venn_matrix: np.ndarray) -> tuple[list[list[np.ndarray]], np.ndarray]:
        """Per-column float64 tables ``C(v, d)`` and a per-row flag, False
        where some entry may have rounded.

        Each entry is ``C(v, d - 1) · (v - d + 1) / d``. The product is
        exact while its rounded value stays below 2^53 (rounding is
        monotone and 2^53 is representable), and dividing an exact
        multiple of ``d`` by ``d`` is exact too.
        """
        exact = np.ones(len(venn_matrix), dtype=bool)
        tables: list[list[np.ndarray]] = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j, r in enumerate(self.regions):
                # C(v, d) = 0 for every d >= 1 and v <= 0, negative v included
                col = np.maximum(venn_matrix[:, r], 0).astype(np.float64)
                tbl = [np.ones(len(col))]
                for d in range(1, self.max_draw[j] + 1):
                    step = tbl[d - 1] * (col - (d - 1))
                    exact &= step < 2.0 * _EXACT_LIMIT
                    tbl.append(step / d)
                tables.append(tbl)
        return tables, exact

    def _per_row_float(self, venn_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float64 value of every row and the exact-tables flag of
        :meth:`_float_tables`."""
        tables, exact = self._float_tables(venn_matrix)
        weights = [float(w) for w in self.weights]
        per_row = np.zeros(len(venn_matrix))

        def add(t: int, product: np.ndarray | None) -> None:
            nonlocal per_row
            per_row += weights[t] if product is None else weights[t] * product

        with np.errstate(over="ignore", invalid="ignore"):
            self._walk(tables, np.multiply, add)
        return per_row, exact

    # -- residue-number-system exact path ------------------------------
    def _residue_tables(self, venn_matrix: np.ndarray, primes: np.ndarray) -> list[list[np.ndarray]]:
        """Per-column tables of ``C(v, d)`` modulo every prime of the
        ``(P, 1)`` column ``primes``; each entry is ``(P, n)``."""
        tables: list[list[np.ndarray]] = []
        for j, r in enumerate(self.regions):
            col = np.maximum(venn_matrix[:, r], 0).astype(np.int64)
            tbl = [np.ones((len(primes), len(col)), dtype=np.int64)]
            for d in range(1, self.max_draw[j] + 1):
                inv_d = np.array([[pow(d, -1, p)] for p in primes[:, 0].tolist()], dtype=np.int64)
                step = tbl[d - 1] * ((col - (d - 1)) % primes) % primes
                tbl.append(step * inv_d % primes)
            tables.append(tbl)
        return tables

    def _evaluate_batch_rns(
        self, venn_matrix: np.ndarray, bound_log2: float, counts: np.ndarray
    ) -> int:
        """Σ over rows of ``counts · F(row)``, exact when the total is below
        ``2^bound_log2``: one walk over residues stacked over the primes
        the bound needs, recombined by CRT."""
        chosen: list[int] = []
        acc_log2 = 0.0
        for p in _RNS_PRIMES:
            chosen.append(p)
            acc_log2 += math.log2(p)
            if acc_log2 > bound_log2 + 2.0:
                break
        else:  # pragma: no cover - 24 primes cover ~10^217
            raise OverflowError("count exceeds the RNS prime pool capacity")
        primes = np.array(chosen, dtype=np.int64)[:, None]
        weights = np.array(self.weights, dtype=object)[:, None, None] % primes.astype(object)
        weights = weights.astype(np.int64)
        acc = np.zeros((len(chosen), len(venn_matrix)), dtype=np.int64)

        def add(t: int, product: np.ndarray | None) -> None:
            # each addend is below 2^30: int64 holds 2^33 of them
            nonlocal acc
            acc += weights[t] if product is None else weights[t] * product % primes

        self._walk(self._residue_tables(venn_matrix, primes), lambda a, b: a * b % primes, add)
        acc = acc % primes * (counts % primes) % primes
        return _crt([int(s) % p for s, p in zip(acc.sum(axis=1).tolist(), chosen)], chosen)

    def _total_log2_bound(self, venn_matrix: np.ndarray) -> float:
        """Cheap upper bound on log2 of the batch total."""
        log2e = math.log2(math.e)
        # per term, the sum over columns of the max log2 C(v, d) over the batch
        worst = np.array([math.log2(w) if w > 0 else 0.0 for w in self.weights])
        for j, r in enumerate(self.regions):
            vmax = float(venn_matrix[:, r].max(initial=0))
            logs = np.zeros(self.max_draw[j] + 1)
            for d in range(1, min(self.max_draw[j], int(vmax)) + 1):
                logs[d] = log2e * (
                    math.lgamma(vmax + 1) - math.lgamma(d + 1) - math.lgamma(vmax - d + 1)
                )
            worst += logs[self.draws[:, j]]
        n = len(venn_matrix)
        return float(worst.max()) + math.log2(max(len(self.weights), 1)) + math.log2(max(n, 1))

    @property
    def num_terms(self) -> int:
        return len(self.weights)


def compile_fringe_polynomial(
    anch: Sequence[int], k: Sequence[int], q: int
) -> FringePolynomial:
    """Expand the fc nest for ``(anch, k, q)`` into (draws, weights).

    For each fringe type ``t``, its draws may come from any Venn region
    whose bitset is a superset of ``anch[t]``. Enumerate per-type
    compositions, merge region totals, and accumulate the multinomial
    weight ``Π_r D_r! / Π_t d_{t,r}!``. The terms are sorted and each
    records its shared prefix with the previous one, the evaluation
    order of every batched pass.
    """
    s = len(anch)
    if s == 0:
        empty = np.zeros((1, 0), dtype=np.int64)
        return FringePolynomial(
            q=q, regions=(), draws=empty, weights=(1,), max_draw=(), lcp=np.zeros(1, np.int64)
        )

    full = (1 << q) - 1
    covering: list[list[int]] = []
    for t in range(s):
        regs = [r for r in range(1, full + 1) if (r & anch[t]) == anch[t]]
        covering.append(regs)

    region_set = sorted({r for regs in covering for r in regs})
    col_of = {r: j for j, r in enumerate(region_set)}
    n_regions = len(region_set)

    # Convolve one fringe type at a time over the running draw-vector
    # table. Adding d items of a new type to a region already holding D
    # multiplies the interleaving weight by C(D + d, d); telescoping these
    # factors yields exactly Π_r D_r! / Π_t d_{t,r}! at the end, without
    # ever materializing the cartesian product of per-type compositions.
    acc: dict[tuple[int, ...], int] = {(0,) * n_regions: 1}
    for t in range(s):
        comps = list(_compositions(k[t], len(covering[t])))
        cols = [col_of[r] for r in covering[t]]
        new: dict[tuple[int, ...], int] = {}
        for totals, w in acc.items():
            for comp in comps:
                d2 = list(totals)
                w2 = w
                for j, d in zip(cols, comp):
                    if d:
                        w2 *= math.comb(d2[j] + d, d)
                        d2[j] += d
                key = tuple(d2)
                new[key] = new.get(key, 0) + w2
        acc = new

    keys = sorted(acc)
    draws = np.asarray(keys, dtype=np.int64).reshape(len(keys), n_regions)
    weights = tuple(acc[kk] for kk in keys)
    max_draw = tuple(int(draws[:, j].max(initial=0)) for j in range(n_regions))
    # leading columns equal to the previous term's: a running AND along each row
    lcp = np.concatenate(([0], np.cumprod(draws[1:] == draws[:-1], axis=1).sum(axis=1)))
    return FringePolynomial(
        q=q, regions=tuple(region_set), draws=draws, weights=weights, max_draw=max_draw, lcp=lcp
    )
