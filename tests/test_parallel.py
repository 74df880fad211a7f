"""Tests for the multicore parallel layer."""

import numpy as np
import pytest

from repro import count_subgraphs
from repro.graph import generators as gen
from repro.parallel import (
    ParallelConfig,
    dynamic_chunks,
    make_chunks,
    parallel_count,
    static_contiguous,
    static_strided,
)
from repro.patterns import catalog


class TestSchedules:
    def test_static_contiguous_partitions(self):
        chunks = static_contiguous(10, 3)
        assert len(chunks) == 3
        assert np.concatenate(chunks).tolist() == list(range(10))

    def test_static_strided_partitions(self):
        chunks = static_strided(10, 3)
        merged = sorted(np.concatenate(chunks).tolist())
        assert merged == list(range(10))
        assert chunks[0].tolist() == [0, 3, 6, 9]

    def test_dynamic_chunks(self):
        chunks = dynamic_chunks(10, 4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert np.concatenate(chunks).tolist() == list(range(10))

    def test_make_chunks_dispatch(self):
        assert len(make_chunks(100, 4, "static")) == 4
        assert len(make_chunks(100, 4, "strided")) == 4
        assert len(make_chunks(100, 4, "dynamic", chunk_size=10)) == 10
        with pytest.raises(ValueError):
            make_chunks(10, 2, "magic")


class TestParallelCount:
    @pytest.fixture(scope="class")
    def graph(self):
        return gen.barabasi_albert(300, 4, seed=5)

    @pytest.mark.parametrize("pattern", [catalog.paw(), catalog.diamond(), catalog.star(3)],
                             ids=["paw", "diamond", "3-star"])
    @pytest.mark.parametrize("schedule", ["static", "strided", "dynamic"])
    def test_exact_across_schedules(self, graph, pattern, schedule):
        expect = count_subgraphs(graph, pattern).count
        res = parallel_count(
            graph, pattern, parallel=ParallelConfig(num_workers=2, schedule=schedule)
        )
        assert res.count == expect

    def test_single_worker_no_fork(self, graph):
        pat = catalog.tailed_triangle()
        res = parallel_count(graph, pat, parallel=ParallelConfig(num_workers=1))
        assert res.count == count_subgraphs(graph, pat).count
        assert "x1" in res.engine

    def test_trivial_patterns(self, graph):
        assert parallel_count(graph, catalog.single_vertex()).count == graph.num_vertices
        assert parallel_count(graph, catalog.edge()).count == graph.num_edges

    def test_default_config_uses_cpu_count(self):
        cfg = ParallelConfig()
        assert cfg.num_workers >= 1

    def test_pool_validation(self):
        # one substrate: the start method is the only pool knob left
        assert ParallelConfig().mp_context == "spawn"
        assert ParallelConfig(mp_context="fork").mp_context == "fork"
        assert "fork" in repr(ParallelConfig(mp_context="fork"))
        with pytest.raises(TypeError):
            ParallelConfig(pool="persistent")


class TestSelectBackend:
    """The inner backend must always be forwarded to the pool backend."""

    def test_inner_forwarded_to_fork_pool(self):
        from repro.core.backends import (
            FrontierBackend,
            PoolBackend,
            SerialBackend,
            select_backend,
        )

        fork = ParallelConfig(num_workers=2, mp_context="fork")
        be = select_backend(fork)
        assert isinstance(be, PoolBackend)
        assert be.mp_context == "fork"
        assert isinstance(be.inner, FrontierBackend)
        # the serial route (engine="general") selects the oracle
        be = select_backend(fork, "serial")
        assert isinstance(be.inner, SerialBackend)
        with pytest.raises(ValueError, match="unknown matcher route"):
            select_backend(fork, "general")

    def test_frontier_inner_forwarded(self):
        from repro.core.backends import FrontierBackend, PoolBackend, select_backend

        be = select_backend(ParallelConfig(num_workers=2), "frontier")
        assert isinstance(be, PoolBackend)
        assert isinstance(be.inner, FrontierBackend)

    def test_persistent_pool_selected(self):
        from repro.core.backends import FrontierBackend, PoolBackend, select_backend

        be = select_backend(ParallelConfig(num_workers=2))
        assert isinstance(be, PoolBackend)
        assert isinstance(be.inner, FrontierBackend)
        assert be.mp_context == "spawn"

    def test_single_worker_returns_inner(self):
        from repro.core.backends import FrontierBackend, select_backend

        be = select_backend(ParallelConfig(num_workers=1))
        assert isinstance(be, FrontierBackend)


class TestSharedStateRace:
    """Regression: concurrent counts on one persistent pool stay exact.

    Two threads share the process-wide pool, which runs one call at a
    time behind its call lock; each call must see its own plan and graph.
    Both graphs exceed ``chunk_size``, so every call reaches the workers.
    """

    def test_concurrent_pool_counts_are_exact(self):
        from repro.parallel.shm import shm_available
        from repro.parallel.workerpool import shutdown_default_pool

        if not shm_available():
            pytest.skip("no shared memory")
        g1 = gen.barabasi_albert(200, 4, seed=31)
        g2 = gen.barabasi_albert(260, 3, seed=32)
        p1, p2 = catalog.four_clique(), catalog.four_cycle()
        expect1 = count_subgraphs(g1, p1).count
        expect2 = count_subgraphs(g2, p2).count
        errors: list = []

        def hammer(graph, pattern, expect):
            try:
                for _ in range(3):
                    res = parallel_count(
                        graph, pattern,
                        parallel=ParallelConfig(num_workers=2, chunk_size=64),
                    )
                    assert res.count == expect, f"{res.count} != {expect}"
                    assert res.stats.workers > 0, res.engine
            except BaseException as exc:  # noqa: BLE001 - surface on main thread
                errors.append(exc)

        import threading

        threads = [
            threading.Thread(target=hammer, args=(g1, p1, expect1)),
            threading.Thread(target=hammer, args=(g2, p2, expect2)),
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            shutdown_default_pool()
        assert not errors, errors
