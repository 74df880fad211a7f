"""Tests for the multicore parallel layer."""

import math
import multiprocessing as mp

import numpy as np
import pytest

from repro import count_subgraphs, get_runtime
from repro.core.backends import FrontierBackend
from repro.core.engine import ENGINES
from repro.core.plan import compile_pattern
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.parallel import ParallelConfig, parallel_count
from repro.parallel.workerpool import _take_chunk, chunk_roots
from repro.patterns import catalog


class TestWorkSplit:
    """The pool's one work split: interleaved chunks, split-half steals."""

    def test_interleaved_chunks_partition_and_spread_hubs(self):
        graph = gen.barabasi_albert(300, 4, seed=5)  # hubs at low ids
        n, chunk_size = graph.num_vertices, 64
        k = math.ceil(n / chunk_size)
        chunks = [chunk_roots(c, k, n) for c in range(k)]
        assert len(chunks) == k == 5
        assert sorted(np.concatenate(chunks).tolist()) == list(range(n))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert chunks[1].tolist()[:3] == [1, 1 + k, 1 + 2 * k]
        # in-process: each chunk's share of the 4-clique core matches
        plan = compile_pattern(catalog.four_clique())
        per_chunk = [FrontierBackend().run(plan, graph, start_vertices=c).matches
                     for c in chunks]
        total = FrontierBackend().run(plan, graph).matches
        assert sum(per_chunk) == total > 0
        # a contiguous chunk 0 (the 64 lowest ids, the hubs) would hold ~99%
        assert max(per_chunk) <= total / 2, per_chunk

    def test_take_chunk_reports_chunks_moved(self):
        spans = mp.Array("q", [0, 0, 0, 8], lock=True)
        # worker 0's span is empty: it steals the back half of worker 1's
        assert _take_chunk(spans, 0, 2) == (4, 4)
        assert list(spans) == [5, 8, 0, 4]
        # its own span now serves it, with nothing moved
        assert _take_chunk(spans, 0, 2) == (5, 0)


class TestParallelCount:
    @pytest.fixture(scope="class")
    def graph(self):
        return gen.barabasi_albert(300, 4, seed=5)

    @pytest.mark.parametrize("pattern", [catalog.paw(), catalog.diamond(), catalog.star(3)],
                             ids=["paw", "diamond", "3-star"])
    def test_exact_on_pool(self, graph, pattern):
        expect = count_subgraphs(graph, pattern).count
        res = parallel_count(graph, pattern, parallel=ParallelConfig(num_workers=2))
        assert res.count == expect

    def test_single_worker_no_fork(self, graph):
        pat = catalog.tailed_triangle()
        res = parallel_count(graph, pat, parallel=ParallelConfig(num_workers=1))
        assert res.count == count_subgraphs(graph, pat).count
        assert "x1" in res.engine

    def test_trivial_patterns(self, graph):
        two = ParallelConfig(num_workers=2, chunk_size=16)
        isolated = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=40)
        edgeless = CSRGraph.from_edges([], num_vertices=40)
        rt = get_runtime()
        for g in (graph, isolated, edgeless):
            for pattern, expect in ((catalog.single_vertex(), g.num_vertices),
                                    (catalog.edge(), g.num_edges)):
                res = parallel_count(g, pattern, parallel=two)
                assert res.count == expect
                assert res.stats.workers >= 1  # the pool ran the frontier matcher
                for engine in ENGINES:
                    assert rt.count(g, pattern, engine=engine, parallel=two).count == expect

    def test_default_config_uses_cpu_count(self):
        cfg = ParallelConfig()
        assert cfg.num_workers >= 1

    def test_pool_validation(self):
        # one substrate, one split: worker count and chunk size are the knobs
        cfg = ParallelConfig(num_workers=2, chunk_size=64)
        assert repr(cfg) == "ParallelConfig(num_workers=2, chunk_size=64)"
        for removed in ("pool", "schedule", "mp_context"):
            with pytest.raises(TypeError):
                ParallelConfig(**{removed: "persistent"})


class TestSelectBackend:
    """The inner backend must always be forwarded to the pool backend."""

    def test_inner_forwarded_to_pool(self):
        from repro.core.backends import (
            FrontierBackend,
            PoolBackend,
            SerialBackend,
            select_backend,
        )

        par = ParallelConfig(num_workers=2, chunk_size=32)
        be = select_backend(par)
        assert isinstance(be, PoolBackend)
        assert be.chunk_size == 32
        assert isinstance(be.inner, FrontierBackend)
        # the serial route (engine="general") selects the oracle
        be = select_backend(par, "serial")
        assert isinstance(be.inner, SerialBackend)
        with pytest.raises(ValueError, match="unknown matcher route"):
            select_backend(par, "general")

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
