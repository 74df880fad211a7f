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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    ``draws`` is an ``(n_terms, n_regions)`` int array; ``weights`` holds
    exact integer coefficients (kept as a list of Python ints — they can
    exceed 64 bits for very fringe-heavy patterns).
    """

    q: int
    regions: tuple[int, ...]
    draws: np.ndarray
    weights: tuple[int, ...]
    max_draw: tuple[int, ...]  # per region column, max draw over terms

    # ------------------------------------------------------------------
    def evaluate(self, venn: Sequence[int]) -> int:
        """Exact scalar evaluation (big ints)."""
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

    def evaluate_batch(self, venn_matrix: np.ndarray) -> int:
        """Σ over rows of F(venn_row), vectorized and **exact**.

        ``venn_matrix`` is ``(n_matches, 2^q)``. A float64 pass computes
        every row; rows whose value (and hence every intermediate — all
        terms are non-negative) stays below 2^52 are exact and summed
        directly. The remaining rows are re-evaluated in a residue number
        system — vectorized int64 arithmetic modulo several 30-bit primes,
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
        venn_matrix, counts = self._distinct_profiles(venn_matrix)
        n = len(venn_matrix)
        per_row = self._per_row_float(venn_matrix)
        # a row is exact iff its weighted value < 2^52: terms are
        # non-negative, so every partial sum and factor is bounded by it
        weight_ok = all(0 <= w < _EXACT_LIMIT for w in self.weights)
        if weight_ok:
            safe = per_row * counts < _EXACT_LIMIT
        else:
            safe = np.zeros(n, dtype=bool)
        total = int(
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

    def _distinct_profiles(self, venn_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One representative row per distinct ``regions`` profile, and
        each profile's multiplicity.

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
            return venn_matrix[:1], np.array([len(venn_matrix)], dtype=np.int64)
        lo, hi = int(cols.min()), int(cols.max())
        width = hi.bit_length()
        if lo >= 0 and width * cols.shape[1] <= 62:
            key = np.zeros(len(cols), dtype=np.int64)
            for j in range(cols.shape[1]):
                key = (key << width) | cols[:, j]
            first, _, counts = group_keys(key)
        else:
            _, first, counts = np.unique(cols, axis=0, return_index=True, return_counts=True)
        return venn_matrix[first], counts

    # -- Horner-factorized evaluation -----------------------------------
    def horner_plan(self) -> list[tuple[int, int]]:
        """Shared-prefix evaluation plan over the lex-sorted terms.

        Entry ``(lcp, weight_index)`` says: keep the first ``lcp`` columns
        of the running prefix product, extend with the remaining columns
        of term ``weight_index``, then add ``weight · prefix`` to the
        accumulator. Because terms are sorted, consecutive terms share
        long prefixes and each shared factor is multiplied once — the
        classic multivariate Horner scheme.
        """
        plan: list[tuple[int, int]] = []
        prev: list[int] | None = None
        for t, row in enumerate(self.draws.tolist()):
            if prev is None:
                lcp = 0
            else:
                lcp = 0
                while lcp < len(row) and row[lcp] == prev[lcp]:
                    lcp += 1
            plan.append((lcp, t))
            prev = row
        return plan

    def per_row_float_horner(self, venn_matrix: np.ndarray) -> np.ndarray:
        """Float64 per-row values via the shared-prefix plan.

        Semantically identical to the flat pass; does fewer vector
        multiplies when terms share prefixes (ablation A7 measures it).
        """
        n = len(venn_matrix)
        if not self.regions:
            return np.full(n, float(sum(self.weights)))
        tables = self._float_tables(venn_matrix)
        n_regions = len(self.regions)
        ones = np.ones(n)
        # prefix[j] = product of the first j+1 column factors of the
        # current term (with d = 0 factors skipped as multiplies by one)
        prefix: list[np.ndarray] = [ones] * n_regions
        per_row = np.zeros(n)
        rows = self.draws.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            for lcp, t in self.horner_plan():
                row = rows[t]
                running = prefix[lcp - 1] if lcp > 0 else ones
                for j in range(lcp, n_regions):
                    d = row[j]
                    if d:
                        running = running * tables[j][d]
                    prefix[j] = running
                per_row += float(self.weights[t]) * running
        return per_row

    def _float_tables(self, venn_matrix: np.ndarray) -> list[np.ndarray]:
        n = len(venn_matrix)
        tables: list[np.ndarray] = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j, r in enumerate(self.regions):
                col = venn_matrix[:, r].astype(np.float64)
                tbl = np.empty((self.max_draw[j] + 1, n))
                tbl[0] = 1.0
                for d in range(1, self.max_draw[j] + 1):
                    tbl[d] = tbl[d - 1] * (col - (d - 1)) / d
                for d in range(1, self.max_draw[j] + 1):
                    tbl[d] = np.where(col >= d, np.rint(tbl[d]), 0.0)
                tables.append(tbl)
        return tables

    # -- float64 fast path ---------------------------------------------
    def _per_row_float(self, venn_matrix: np.ndarray) -> np.ndarray:
        n = len(venn_matrix)
        if not self.regions:  # no fringe types: F = Σ weights (= 1)
            return np.full(n, float(sum(self.weights)))
        tables = self._float_tables(venn_matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            per_row = np.zeros(n)
            for w, row in zip(self.weights, self.draws.tolist()):
                term = None
                for j, d in enumerate(row):
                    if d:
                        term = tables[j][d] if term is None else term * tables[j][d]
                contrib = float(w) if term is None else float(w) * term
                per_row += contrib
        return per_row

    # -- residue-number-system exact path ------------------------------
    def _evaluate_batch_rns(
        self, venn_matrix: np.ndarray, bound_log2: float, counts: np.ndarray | None = None
    ) -> int:
        residues: list[int] = []
        primes: list[int] = []
        acc_log2 = 0.0
        for p in _RNS_PRIMES:
            primes.append(p)
            residues.append(self._total_mod(venn_matrix, p, counts))
            acc_log2 += math.log2(p)
            if acc_log2 > bound_log2 + 2.0:
                break
        else:  # pragma: no cover - 24 primes cover ~10^217
            raise OverflowError("count exceeds the RNS prime pool capacity")
        return _crt(residues, primes)

    def _total_mod(self, venn_matrix: np.ndarray, p: int, counts: np.ndarray | None = None) -> int:
        n = len(venn_matrix)
        if not self.regions:
            mult = int(counts.sum()) if counts is not None else n
            return (sum(self.weights) * mult) % p
        tables: list[np.ndarray] = []
        for j, r in enumerate(self.regions):
            col = venn_matrix[:, r].astype(np.int64)
            tbl = np.empty((self.max_draw[j] + 1, n), dtype=np.int64)
            tbl[0] = 1
            for d in range(1, self.max_draw[j] + 1):
                inv_d = pow(d, -1, p)
                tbl[d] = (tbl[d - 1] * ((col - (d - 1)) % p)) % p
                tbl[d] = (tbl[d] * inv_d) % p
            for d in range(1, self.max_draw[j] + 1):
                tbl[d] = np.where(col >= d, tbl[d], 0)
            tables.append(tbl)
        per_row = np.zeros(n, dtype=np.int64)
        flush = 0
        for w, row in zip(self.weights, self.draws.tolist()):
            term = None
            for j, d in enumerate(row):
                if d:
                    term = tables[j][d] if term is None else (term * tables[j][d]) % p
            wp = w % p
            per_row += wp if term is None else (term * wp) % p
            flush += 1
            if flush >= 8:  # residues < 2^31: 8 additions stay under 2^34
                per_row %= p
                flush = 0
        per_row %= p
        if counts is not None:
            per_row = (per_row * (counts % p)) % p
        return int(per_row.sum(dtype=np.object_)) % p

    def _total_log2_bound(self, venn_matrix: np.ndarray) -> float:
        """Cheap upper bound on log2 of the batch total."""
        from scipy.special import gammaln

        n = len(venn_matrix)
        log2e = math.log2(math.e)
        # per-region, per-draw max log2 C(v, d) over the batch
        max_logs: list[np.ndarray] = []
        for j, r in enumerate(self.regions):
            col = venn_matrix[:, r].astype(np.float64)
            vmax = float(col.max(initial=0.0))
            logs = np.zeros(self.max_draw[j] + 1)
            for d in range(1, self.max_draw[j] + 1):
                if vmax >= d:
                    logs[d] = log2e * float(
                        gammaln(vmax + 1) - gammaln(d + 1) - gammaln(vmax - d + 1)
                    )
            max_logs.append(logs)
        worst_term = 0.0
        for w, row in zip(self.weights, self.draws):
            t = math.log2(w) if w > 0 else 0.0
            for j in range(len(self.regions)):
                d = int(row[j])
                if d:
                    t += float(max_logs[j][d])
            worst_term = max(worst_term, t)
        return worst_term + math.log2(max(len(self.weights), 1)) + math.log2(max(n, 1))

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
    weight ``Π_r D_r! / Π_t d_{t,r}!``.
    """
    s = len(anch)
    if s == 0:
        empty = np.zeros((1, 0), dtype=np.int64)
        return FringePolynomial(q=q, regions=(), draws=empty, weights=(1,), max_draw=())

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
    return FringePolynomial(
        q=q, regions=tuple(region_set), draws=draws, weights=weights, max_draw=max_draw
    )
