"""Ablation A6: one ``count_many`` call against sequential ``auto`` counts.

``Runtime.count_many`` counts a pattern family through the same execute
path as ``Runtime.count``, but members that share a core share its
graph-side work: one closed-form row build per core kind (Figs. 8 and
9), or one frontier pass per core, matching order, anchored set and
symmetry restriction (Fig. 10). The baseline is what a user gets
without it: one ``Runtime.count(engine="auto")`` per member.

Both sides run on ``kron_g500-logn20`` tiny with warm plans and graph
caches, alternating which side goes first from one round to the next,
``REPEATS`` rounds per family. Counts must match member for member.
Each family appends one record to ``benchmarks/results/BENCH_multi.json``
with the median and IQR of both sides in milliseconds, the repeat
count, every member's count and :func:`repro.bench.harness.provenance`.
With ``--benchmark-disable`` every family runs once as a correctness
check and nothing is written.

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_multi.py -q -s
"""

import time

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.bench.harness import RecordAppender, _bench_record_path, provenance
from repro.core.frontier import adjacency_bitmap, upper_starts
from repro.core.venn import pair_index
from repro.runtime import Runtime

REPEATS = 9
FAMILIES = {
    "fig08": W.fig08_patterns,
    "fig09": W.fig09_patterns,
    "fig10": W.fig10_patterns,
}


def _ms_stats(samples: list[float]) -> tuple[float, float]:
    """(median, IQR) of seconds samples, in milliseconds."""
    q25, q50, q75 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return float(q50), float(q75 - q25)


@pytest.fixture(scope="module")
def runtime(kron_tiny):
    rt = Runtime()
    for family in FAMILIES.values():
        for pattern in family().values():
            rt.plan_for(pattern)
    pair_index(kron_tiny)
    adjacency_bitmap(kron_tiny)
    upper_starts(kron_tiny)
    return rt


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_count_many_against_sequential_auto(benchmark, runtime, kron_tiny, results_dir, name):
    family = FAMILIES[name]()

    def shared():
        return {n: r.count for n, r in runtime.count_many(kron_tiny, family).items()}

    def sequential():
        return {n: runtime.count(kron_tiny, p, engine="auto").count for n, p in family.items()}

    counts = benchmark.pedantic(shared, rounds=1, iterations=1)
    assert counts == sequential()
    if benchmark.disabled:  # --benchmark-disable: a correctness run only
        return
    samples: dict = {shared: [], sequential: []}
    for r in range(REPEATS):
        for side in (shared, sequential) if r % 2 == 0 else (sequential, shared):
            t0 = time.perf_counter()
            side()
            samples[side].append(time.perf_counter() - t0)
    many_ms, many_iqr = _ms_stats(samples[shared])
    auto_ms, auto_iqr = _ms_stats(samples[sequential])
    record = {
        **provenance(),
        "figure": "multi",
        "family": name,
        "graph": "kron_g500-logn20/tiny",
        "members": len(family),
        "repeats": REPEATS,
        "count_many_ms_median": many_ms,
        "count_many_ms_iqr": many_iqr,
        "sequential_auto_ms_median": auto_ms,
        "sequential_auto_ms_iqr": auto_iqr,
        "counts": {n: str(c) for n, c in counts.items()},
        "unix_time": time.time(),
    }
    with RecordAppender(_bench_record_path("multi", results_dir)) as appender:
        appender.append(record)
    print(f"\n{name}: count_many {many_ms:.2f} ms (IQR {many_iqr:.2f}), "
          f"sequential auto {auto_ms:.2f} ms (IQR {auto_iqr:.2f})")
