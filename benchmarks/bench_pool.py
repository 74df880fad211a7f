"""Cold vs warm persistent worker pool.

Once the pool is resident (workers started, graph exported to shared
memory), a parallel ``count()`` costs a fraction of one that starts the
pool inside the call (``fringe-pool-cold`` shuts the default pool down
before every call) — the CPU analogue of the paper keeping the graph
and workers resident on the device across queries (§3.6).

Cells land in ``benchmarks/results/BENCH_pool.json``; every
(pattern, graph) cell is exact-count cross-checked across the serial
engine, the cold pool, and the warm pool by ``verify_counts_agree``.
Two serve-throughput records (the same 32 concurrent queries through
:class:`~repro.serve.CountingService` on the thread executor and on the
persistent pool executor) are appended to the same file.

Target: warm pool ``count()`` >= 3x faster than the cold pool (geomean)
on the small inputs.
"""

import asyncio
import time

import pytest

from repro.bench import render_figure, render_speedups, run_figure, save_figure, workloads as W
from repro.bench.harness import RecordAppender, _bench_record_path
from repro.parallel import ParallelConfig, parallel_count
from repro.parallel.shm import shm_available
from repro.parallel.workerpool import shutdown_default_pool
from repro.patterns import catalog

pytestmark = pytest.mark.skipif(not shm_available(), reason="no shared memory")


@pytest.fixture(scope="module")
def figure(results_dir):
    # Warm the persistent pool once (workers spawned, kron graph
    # exported) so the figure measures the steady state the pool is for;
    # the cold side shuts the pool down and pays start-up in every call.
    warm_graph = next(iter(W.pool_inputs("tiny").values()))
    parallel_count(
        warm_graph, catalog.triangle(),
        parallel=ParallelConfig(num_workers=2, chunk_size=64),
    )
    res = run_figure(
        "pool",
        W.pool_patterns(),
        W.pool_inputs("tiny"),
        W.POOL_SYSTEMS,
        timeout_s=60.0,
        record_dir=results_dir,
    )
    save_figure(res, results_dir / "pool.json")
    print()
    print(render_figure(res))
    print(render_speedups(res, over="fringe-pool-cold", of="fringe-pool"))
    yield res
    shutdown_default_pool()


def test_pool_counts_match_serial(figure):
    """cold pool, warm pool, and serial paths agree on every cell."""
    figure.verify_counts_agree()  # raises on any disagreement
    ok = [m for m in figure.measurements if m.status == "ok"]
    assert len(ok) == len(figure.measurements), "a cell did not finish"


def test_warm_pool_beats_cold_pool(figure):
    """Warm persistent pool >= 3x one started inside the call (geomean)."""
    from repro.bench import geomean

    speedups = {
        pat: figure.speedup(pat, over="fringe-pool-cold", of="fringe-pool")
        for pat in figure.patterns()
    }
    assert all(s is not None for s in speedups.values()), speedups
    # the warm pool wins on every pattern; >= 3x overall, where the cells
    # are dominated by the per-call start-up the resident pool eliminates
    assert all(s > 1.0 for s in speedups.values()), speedups
    overall = geomean(list(speedups.values()))
    assert overall >= 3.0, f"warm pool speedup below target: {overall:.2f}x {speedups}"


# serve mix: four closed forms (1-/2-vertex cores, which stay on the
# executor thread) and 4-clique, a 3-vertex core whose matcher work the
# pool executor sends to the workers
SERVE_MIX = ["diamond", "paw", "4-star", "triangle", "4-clique"]
SERVE_QUERIES = 32


def _serve_mix(graph, executor: str) -> tuple[list, float]:
    """Submit ``SERVE_QUERIES`` concurrent mix queries on one executor."""
    from repro.serve import CountRequest, CountingService, GraphRegistry, ServiceConfig

    async def scenario():
        registry = GraphRegistry()
        registry.register("bench", graph)
        config = ServiceConfig(executor=executor, pool_workers=2, result_cache_size=0)
        service = CountingService(registry, config=config)
        service.start()
        try:
            t0 = time.perf_counter()
            responses = await asyncio.gather(*[
                service.submit(CountRequest(
                    graph="bench", pattern=SERVE_MIX[i % len(SERVE_MIX)],
                    use_cache=False,
                ))
                for i in range(SERVE_QUERIES)
            ])
            elapsed = time.perf_counter() - t0
        finally:
            await service.stop()
        return responses, elapsed

    return asyncio.run(scenario())


def test_serve_throughput_on_pool_executor(results_dir):
    """The same concurrent serve mix on the thread and the pool executor.

    Runs on amazon tiny (300 vertices, more than one 256-vertex chunk) so
    the 4-clique queries really reach the pool workers.
    """
    graph = W.pool_inputs("tiny")["amazon0601"]
    _serve_mix(graph, "pool")  # warm: spawn the workers, export the graph
    runs = {}
    try:
        for executor in ("thread", "pool"):
            runs[executor] = _serve_mix(graph, executor)
    finally:
        shutdown_default_pool()
    for responses, _ in runs.values():
        assert all(r.ok for r in responses), [r for r in responses if not r.ok]
    thread_counts = [r.count for r in runs["thread"][0]]
    assert [r.count for r in runs["pool"][0]] == thread_counts
    assert any("fringe-pool" in r.engine for r in runs["pool"][0])
    path = _bench_record_path("pool", results_dir)
    appender = RecordAppender(path)
    try:
        for executor, (_, elapsed) in runs.items():
            appender.append({
                "figure": "pool",
                "system": f"serve-{executor}",
                "pattern": f"mixed[{','.join(SERVE_MIX)}]",
                "graph": "amazon0601",
                "status": "ok",
                "count": None,
                "seconds": elapsed,
                "queries": SERVE_QUERIES,
                "throughput_qps": SERVE_QUERIES / elapsed,
                "unix_time": time.time(),
            })
    finally:
        appender.close()
    print()
    for executor, (_, elapsed) in runs.items():
        print(f"serve on {executor} executor: {SERVE_QUERIES} queries in {elapsed:.2f}s "
              f"({SERVE_QUERIES / elapsed:.1f} qps)")
