"""Pattern-side symmetry cost: the canonical key against the compile and a
cold count.

``plan_key`` runs on every ``Runtime.count`` and twice per serve request
(result-cache key, plan lookup), so its cost sits on the request path
even when the plan cache hits. For the perfbench CLI and HTTP mix
patterns, fig4 and the 8..12-cliques this records, per pattern:

* the median and IQR of ``KEY_REPEATS`` calls of :func:`plan_key` on a
  fresh pattern object each (the key is cached per object, so a reused
  object would time a dict lookup);
* the median and IQR of ``COMPILE_REPEATS`` calls of
  :func:`compile_pattern`;
* the median and IQR of ``COUNT_REPEATS`` cold ``Runtime.count``
  calls (``engine="auto"``, an empty plan cache, a fresh pattern object;
  the graph's pair index and adjacency bitmap are built beforehand, as a
  served graph has them), and the key's share of that cold count.

Counts run on the kron tiny input. Counting an 8..12-clique there takes
minutes, so the cliques count on a scale-7 Kronecker graph instead
(their compile dominates the cold count either way); each row names its
graph. Rows append to ``benchmarks/results/BENCH_plan_key.json``
stamped with :func:`repro.bench.harness.provenance`. Every pattern's key
is also compared with the keys of random relabelings, and a difference
fails the run.

    PYTHONPATH=src python -m pytest benchmarks/bench_plan_key.py -q -s
"""

import random
import time

import numpy as np
import pytest

from repro.bench.harness import RecordAppender, _bench_record_path, provenance
from repro.core.engine import EngineConfig
from repro.core.frontier import adjacency_bitmap
from repro.core.plan import compile_pattern, plan_key
from repro.core.venn import pair_index
from repro.graph import datasets, generators as gen
from repro.patterns.dsl import parse_pattern
from repro.patterns.pattern import Pattern
from repro.runtime import Runtime

KEY_REPEATS = 50
COMPILE_REPEATS = 20
COUNT_REPEATS = 3
RELABELINGS = 8

# the perfbench HTTP mix (M) and CLI mix patterns, then the cliques
MIX_PATTERNS = (
    "wedge", "triangle", "diamond", "tailed-triangle", "paw", "4-star",
    "3-tailed-triangle", "6-star", "4-cycle", "4-clique",
    "triangle + 2x0 + 3x0&1", "fig4",
)
CLIQUES = tuple(f"{k}-clique" for k in range(8, 13))


def _ms_stats(samples: list[float]) -> tuple[float, float]:
    """(median, IQR) of seconds samples, in milliseconds."""
    q25, q50, q75 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return float(q50), float(q75 - q25)


def _timed(fn, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _fresh(pattern: Pattern) -> Pattern:
    return Pattern(pattern.n, pattern.adj)  # no cached symmetry


@pytest.fixture(scope="module")
def graphs():
    kron_tiny = datasets.make("kron_g500-logn20", "tiny")
    kron7 = gen.kronecker(7, edge_factor=4, seed=1)
    for graph in (kron_tiny, kron7):
        pair_index(graph)
        adjacency_bitmap(graph)
    return {"kron_g500-logn20/tiny": kron_tiny, "kronecker(7,4)": kron7}


@pytest.fixture(scope="module")
def records(graphs, results_dir):
    cfg = EngineConfig()
    rows = []
    appender = RecordAppender(_bench_record_path("plan_key", results_dir))
    try:
        for expr in MIX_PATTERNS + CLIQUES:
            pattern = parse_pattern(expr)
            graph_name = "kronecker(7,4)" if expr in CLIQUES else "kron_g500-logn20/tiny"
            graph = graphs[graph_name]
            key_ms, key_iqr = _ms_stats(
                _timed(lambda: plan_key(_fresh(pattern), cfg), KEY_REPEATS)
            )
            compile_ms, compile_iqr = _ms_stats(
                _timed(lambda: compile_pattern(_fresh(pattern), cfg), COMPILE_REPEATS)
            )
            counts = []
            count_ms, count_iqr = _ms_stats(
                _timed(lambda: counts.append(Runtime().count(graph, _fresh(pattern)).count),
                       COUNT_REPEATS)
            )
            assert len(set(counts)) == 1, (expr, counts)
            row = {
                **provenance(),
                "figure": "plan_key",
                "pattern": expr,
                "n": pattern.n,
                "m": pattern.num_edges,
                "key_ms_median": key_ms,
                "key_ms_iqr": key_iqr,
                "key_repeats": KEY_REPEATS,
                "compile_ms_median": compile_ms,
                "compile_ms_iqr": compile_iqr,
                "compile_repeats": COMPILE_REPEATS,
                "cold_count_ms_median": count_ms,
                "cold_count_ms_iqr": count_iqr,
                "count_repeats": COUNT_REPEATS,
                "key_share_of_cold_count": key_ms / count_ms,
                "engine": "auto",
                "graph": graph_name,
                "graph_vertices": graph.num_vertices,
                "graph_edges": graph.num_edges,
                "count": str(counts[0]),
                "unix_time": time.time(),
            }
            appender.append(row)
            rows.append(row)
    finally:
        appender.close()
    print()
    print(f"{'pattern':<24}{'n':>3}{'key ms':>10}{'compile ms':>12}{'cold count ms':>15}"
          f"{'key share':>11}")
    for r in rows:
        print(f"{r['pattern']:<24}{r['n']:>3}{r['key_ms_median']:>10.3f}"
              f"{r['compile_ms_median']:>12.3f}{r['cold_count_ms_median']:>15.3f}"
              f"{r['key_share_of_cold_count']:>11.1%}")
    return rows


@pytest.mark.parametrize("expr", MIX_PATTERNS + CLIQUES)
def test_relabelings_share_one_key(expr):
    pattern = parse_pattern(expr)
    rng = random.Random(expr)
    key = plan_key(pattern, EngineConfig())
    for _ in range(RELABELINGS):
        perm = list(range(pattern.n))
        rng.shuffle(perm)
        assert plan_key(pattern.relabel(perm), EngineConfig()) == key, (expr, perm)


def test_every_pattern_recorded(records):
    assert [r["pattern"] for r in records] == list(MIX_PATTERNS + CLIQUES)
    for r in records:
        assert r["key_ms_median"] > 0 and r["compile_ms_median"] > 0
        assert r["cold_count_ms_median"] > 0
