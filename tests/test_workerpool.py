"""Tests for the persistent spawn-context worker pool."""

import os
import signal
import threading
import time

import pytest

from repro import count_subgraphs
from repro.core.backends import SerialBackend
from repro.core.engine import EngineConfig
from repro.core.plan import compile_pattern
from repro.graph import datasets
from repro.graph import generators as gen
from repro.obs import Observer
from repro.parallel import ParallelConfig, parallel_count
from repro.parallel.shm import shm_available
from repro.parallel.workerpool import WorkerPool, get_default_pool, shutdown_default_pool
from repro.patterns import catalog
from tests.bound import bounded_rows

pytestmark = pytest.mark.skipif(not shm_available(), reason="no shared memory")


class SlowSerial:
    """Serial backend with a per-chunk delay (picklable; spawn workers
    re-import this module to unpickle it)."""

    name = "slow-serial"

    def __init__(self, delay_s: float = 0.05):
        self.delay_s = delay_s
        self._inner = SerialBackend()

    def run(self, plan, graph, start_vertices=None, members=None):
        time.sleep(self.delay_s)
        return self._inner.run(plan, graph, start_vertices=start_vertices, members=members)


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(2)
    yield p
    p.close()


class TestAgreement:
    """Spawn-pool counts must match the serial backend exactly."""

    @pytest.mark.parametrize("dataset", ["kron_g500-logn20", "amazon0601"])
    @pytest.mark.parametrize("pattern", [catalog.diamond(), catalog.paw()],
                             ids=["diamond", "paw"])
    def test_datasets_agree_with_serial(self, dataset, pattern):
        graph = datasets.make(dataset, "tiny")
        expect = count_subgraphs(graph, pattern).count
        res = parallel_count(
            graph, pattern,
            # chunks smaller than the graph: kron tiny has 253 vertices, and a
            # graph of at most one chunk runs in-process, off the pool
            parallel=ParallelConfig(num_workers=2, chunk_size=64),
        )
        assert res.count == expect
        assert "fringe-pool" in res.engine

    def test_default_chunks_agree(self):
        # 300 vertices: two default 256-root chunks, so the pool runs
        graph = gen.barabasi_albert(300, 4, seed=5)
        pat = catalog.tailed_triangle()
        expect = count_subgraphs(graph, pat).count
        res = parallel_count(graph, pat, parallel=ParallelConfig(num_workers=2))
        assert res.count == expect
        assert "fringe-pool" in res.engine

    def test_repeated_calls_reuse_workers(self, pool):
        graph = gen.barabasi_albert(400, 4, seed=8)
        plan = compile_pattern(catalog.diamond(), EngineConfig())
        expect = SerialBackend().run(plan, graph)
        first = pool.count(plan, graph, chunk_size=64)
        pids = pool.worker_pids()
        second = pool.count(plan, graph, chunk_size=64)
        assert first.sigma == second.sigma == expect.sigma
        # the workers' frontier keeps the core matches that meet the support bound
        assert first.matches == len(bounded_rows(graph, plan.core_plan)) < expect.matches
        # the workers' own layer timings travel back on the PartialSum
        assert first.match_s > 0.0 and first.venn_fc_s > 0.0
        assert pool.worker_pids() == pids  # same resident processes
        assert pool.stats.calls >= 2


class TestFaultTolerance:
    def test_killed_worker_respawns_and_call_retries(self):
        pool = WorkerPool(2)
        try:
            graph = gen.barabasi_albert(300, 4, seed=13)
            plan = compile_pattern(catalog.paw(), EngineConfig())
            expect = SerialBackend().run(plan, graph)
            pool.start()
            pids = pool.worker_pids()
            assert len(pids) == 2
            box = {}

            def work():
                with Observer(trace=False) as ob:
                    box["res"] = pool.count(
                        plan, graph, inner=SlowSerial(0.05), chunk_size=32
                    )
                box["metrics"] = ob.metrics

            t = threading.Thread(target=work)
            t.start()
            time.sleep(0.2)  # let the call get going, then kill a worker
            os.kill(pids[0], signal.SIGKILL)
            t.join(timeout=120)
            assert not t.is_alive()
            assert box["res"].sigma == expect.sigma
            assert pool.stats.respawns >= 1
            assert pool.stats.retries >= 1
            # recovery is visible in the active registry, not only PoolStats
            metrics = box["metrics"]
            assert metrics.counter("repro_pool_respawns_total").value == pool.stats.respawns
            assert metrics.counter("repro_pool_retries_total").value == pool.stats.retries
            # the pool is healthy again: a plain follow-up call works
            after = pool.count(plan, graph, chunk_size=64)
            assert after.sigma == expect.sigma
        finally:
            pool.close()

    def test_close_is_permanent(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.start()


class TestLifecycle:
    def test_idle_ttl_shuts_down_and_restarts_lazily(self):
        pool = WorkerPool(1, idle_ttl_s=0.3)
        try:
            graph = gen.barabasi_albert(150, 3, seed=4)
            plan = compile_pattern(catalog.triangle(), EngineConfig())
            expect = SerialBackend().run(plan, graph)
            assert pool.count(plan, graph, chunk_size=64).sigma == expect.sigma
            assert pool.running
            deadline = time.monotonic() + 5.0
            while pool.running and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not pool.running  # idle TTL fired
            # next call restarts the workers transparently
            assert pool.count(plan, graph, chunk_size=64).sigma == expect.sigma
            assert pool.running
        finally:
            pool.close()

    def test_default_pool_reshapes(self):
        try:
            p1 = get_default_pool(1)
            assert get_default_pool(1) is p1
            p2 = get_default_pool(2)
            assert p2 is not p1
            assert p1._closed
        finally:
            shutdown_default_pool()

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
