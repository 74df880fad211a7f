"""Ablation A7: flat vs Horner-factorized polynomial evaluation.

The compiled fringe polynomial walks its lex-sorted terms once, reusing
the product of the leading columns each term shares with the one before
(``lcp``, a multivariate Horner scheme). Zeroing ``lcp`` makes the very
same walk flat: every term multiplies all its factors afresh. Both orders
produce identical per-row values; this ablation measures the float-pass
cost on a fringe-heavy pattern where the polynomial has thousands of
terms. With ``--benchmark-disable`` every case runs once as a
correctness check and nothing is written to ``ablation_horner.json``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.fringe_poly import compile_fringe_polynomial
from repro.patterns import catalog
from repro.patterns.decompose import decompose


@pytest.fixture(scope="module")
def workload():
    pat = catalog.fig4_pattern().with_fringe((0,), 4)  # tail-heavy: many terms
    dec = decompose(pat)
    anch, k = dec.anchor_bitsets()
    poly = compile_fringe_polynomial(anch, k, dec.q)
    venns = np.random.default_rng(3).integers(0, 40, size=(20_000, 1 << dec.q)).astype(np.int64)
    return poly, venns


def flat(poly):
    return replace(poly, lcp=np.zeros_like(poly.lcp))


def test_flat_eval(benchmark, workload, results_dir):
    poly, venns = workload
    flat_poly = flat(poly)
    benchmark(lambda: flat_poly._per_row_float(venns))
    _record(results_dir, "flat", benchmark, poly.num_terms)


def test_horner_eval(benchmark, workload, results_dir):
    poly, venns = workload
    benchmark(lambda: poly._per_row_float(venns))
    _record(results_dir, "horner", benchmark, poly.num_terms)


def test_identical_values(workload):
    poly, venns = workload
    flat_rows, flat_exact = flat(poly)._per_row_float(venns)
    horner_rows, horner_exact = poly._per_row_float(venns)
    np.testing.assert_array_equal(flat_exact, horner_exact)
    assert np.allclose(flat_rows, horner_rows, rtol=1e-12)
    # exact totals through both passes: float and stacked RNS
    rows = venns[:40]
    expect = sum(poly.evaluate(row) for row in rows.tolist())
    assert flat(poly).evaluate_batch(rows) == poly.evaluate_batch(rows) == expect


def test_plan_shares_prefixes(workload):
    poly, _ = workload
    assert poly.lcp.sum() > 0  # lex-sorted terms must share some prefixes


def _record(results_dir, key, benchmark, terms):
    if benchmark.stats is None:  # --benchmark-disable: a correctness run only
        return
    path = results_dir / "ablation_horner.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = {"mean_seconds": benchmark.stats.stats.mean, "terms": terms}
    path.write_text(json.dumps(data, indent=1))
