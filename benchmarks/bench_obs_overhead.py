"""Metering cost: ``Runtime.count`` with a metrics registry against without.

``CountingService``, pool workers and ``count --metrics`` always count
under a metrics registry. The frontier pass records the
``repro_venn_set_size`` histogram with one weighted sample per row group
and chunk (the group's set size, as many times as it has rows), so a
metered count should cost about what an unmetered one does, however many
core matches it visits.

Both runtimes count on ``kron_g500-logn20`` tiny with warm plans and
graph caches, alternating which goes first from one round to the next,
``REPEATS`` rounds per cell. Counts must match, and a metered matcher
count must add one ``repro_venn_set_size`` sample per core match (none
for a core without anchored fringes or a closed form). Each cell appends one record to
``benchmarks/results/BENCH_obs.json`` with the median and IQR of both
sides in milliseconds, their ratio, the repeat count and
:func:`repro.bench.harness.provenance`. With ``--benchmark-disable``
every cell runs once as a correctness check and nothing is written.

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q -s
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.bench.harness import RecordAppender, _bench_record_path, provenance
from repro.core.frontier import adjacency_bitmap, upper_starts
from repro.core.venn import pair_index, slot_common_neighbors
from repro.patterns import catalog
from repro.runtime import Runtime

REPEATS = 21
PATTERNS = {
    "triangle": catalog.triangle,
    "4-clique": catalog.four_clique,
    "4-cycle": catalog.four_cycle,
}
ENGINES = ("auto", "frontier")


def _ms_stats(samples: list[float]) -> tuple[float, float]:
    """(median, IQR) of seconds samples, in milliseconds."""
    q25, q50, q75 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return float(q50), float(q75 - q25)


@pytest.fixture(scope="module")
def runtimes(kron_tiny):
    plain = Runtime()
    metered = Runtime(observer=obs.Observer(trace=False, metrics=True))
    pair_index(kron_tiny)
    adjacency_bitmap(kron_tiny)
    upper_starts(kron_tiny)
    slot_common_neighbors(kron_tiny)
    return plain, metered


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_metered_against_plain_count(benchmark, runtimes, kron_tiny, results_dir, name, engine):
    plain, metered = runtimes
    pattern = PATTERNS[name]()
    sizes = metered.observer.metrics.histogram("repro_venn_set_size")

    def off():
        return plain.count(kron_tiny, pattern, engine=engine)

    def on():
        return metered.count(kron_tiny, pattern, engine=engine)

    expect = off()
    before = sizes.count
    result = benchmark.pedantic(on, rounds=1, iterations=1)
    assert result.count == expect.count
    # the matcher backends record one sample per core match of a core
    # with anchored fringes; a closed form reads its rows off the graph
    matched = metered.plan_for(pattern)[0].q > 0 and "specialized" not in result.engine
    assert sizes.count - before == (result.core_matches if matched else 0)
    if benchmark.disabled:  # --benchmark-disable: a correctness run only
        return
    samples: dict = {off: [], on: []}
    for r in range(REPEATS):
        for side in (off, on) if r % 2 == 0 else (on, off):
            t0 = time.perf_counter()
            side()
            samples[side].append(time.perf_counter() - t0)
    off_ms, off_iqr = _ms_stats(samples[off])
    on_ms, on_iqr = _ms_stats(samples[on])
    record = {
        **provenance(),
        "figure": "obs",
        "pattern": name,
        "engine": engine,
        "graph": "kron_g500-logn20/tiny",
        "core_matches": result.core_matches,
        "repeats": REPEATS,
        "metrics_off_ms_median": off_ms,
        "metrics_off_ms_iqr": off_iqr,
        "metrics_on_ms_median": on_ms,
        "metrics_on_ms_iqr": on_iqr,
        "on_off_ratio": on_ms / off_ms,
        "count": str(result.count),
        "unix_time": time.time(),
    }
    with RecordAppender(_bench_record_path("obs", results_dir)) as appender:
        appender.append(record)
    print(f"\n{name} {engine}: metrics off {off_ms:.2f} ms (IQR {off_iqr:.2f}), "
          f"on {on_ms:.2f} ms (IQR {on_iqr:.2f}), ratio {on_ms / off_ms:.2f}")
