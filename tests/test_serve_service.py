"""Socket-free tests for the serve pipeline: drive CountingService with
asyncio tasks and a gate-controlled Runtime so coalescing, deadlines,
admission control, and cache invalidation are all deterministic."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.graph import generators as gen
from repro.obs import Observer
from repro.obs.export import prometheus_text
from repro.patterns.dsl import parse_pattern
from repro.runtime import Runtime
from repro.serve import (
    CountingService,
    CountRequest,
    CountResponse,
    ErrorResponse,
    GraphRegistry,
    ServiceConfig,
)


class GatedRuntime(Runtime):
    """A Runtime whose count() blocks until the test opens the gate."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.calls = 0
        self._call_lock = threading.Lock()

    def count(self, *args, **kwargs):
        with self._call_lock:
            self.calls += 1
        assert self.gate.wait(timeout=20), "test never opened the gate"
        return super().count(*args, **kwargs)


def make_graph(seed=1):
    return gen.erdos_renyi(30, 0.3, seed=seed)


def run(coro):
    return asyncio.run(coro)


async def started_service(registry, **kwargs):
    service = CountingService(registry, **kwargs)
    service.start()
    return service


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
class TestBasics:
    def test_count_matches_direct_runtime(self):
        graph = make_graph()
        expected = Runtime().count(graph, parse_pattern("triangle")).count

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", graph)
            service = await started_service(registry)
            try:
                return await service.submit(CountRequest(graph="g", pattern="triangle"))
            finally:
                await service.stop()

        response = run(scenario())
        assert isinstance(response, CountResponse)
        assert response.count == expected
        assert response.fingerprint == graph.fingerprint()
        assert not response.cached and not response.coalesced

    def test_unknown_graph_and_bad_pattern(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            service = await started_service(registry)
            try:
                missing = await service.submit(CountRequest(graph="nope", pattern="triangle"))
                bad = await service.submit(CountRequest(graph="g", pattern="tri@ngle!!"))
                return missing, bad
            finally:
                await service.stop()

        missing, bad = run(scenario())
        assert isinstance(missing, ErrorResponse) and missing.code == "unknown_graph"
        assert isinstance(bad, ErrorResponse) and bad.code == "bad_pattern"

    @pytest.mark.parametrize(
        "config",
        [
            {"batch_size": 2.5},
            {"symmetry_breaking": "no"},
            {"max_frontier_rows": True},
            {"engine": "general"},  # the route is the request's own `engine`
            {"specialized": False},
        ],
    )
    def test_bad_config_is_bad_request(self, config):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            service = await started_service(registry)
            try:
                request = CountRequest.from_json(
                    {"graph": "g", "pattern": "4-cycle", "config": config}
                )
                return await service.submit(request)
            finally:
                await service.stop()

        response = run(scenario())
        assert isinstance(response, ErrorResponse) and response.code == "bad_request"

    def test_submit_before_start_raises(self):
        registry = GraphRegistry()
        service = CountingService(registry)

        async def scenario():
            with pytest.raises(RuntimeError, match="not started"):
                await service.submit(CountRequest(graph="g", pattern="triangle"))

        run(scenario())


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_identical_inflight_queries_cost_one_execution(self):
        graph = make_graph()
        expected = Runtime().count(graph, parse_pattern("triangle")).count

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", graph)
            runtime = GatedRuntime()
            service = await started_service(registry, runtime=runtime)
            try:
                tasks = [
                    asyncio.create_task(
                        service.submit(CountRequest(graph="g", pattern="triangle"))
                    )
                    for _ in range(6)
                ]
                await asyncio.sleep(0.2)  # all submits reach the coalescing map
                runtime.gate.set()
                responses = await asyncio.gather(*tasks)
            finally:
                await service.stop()
            return runtime, service, responses

        runtime, service, responses = run(scenario())
        assert runtime.calls == 1  # one Runtime execution for six clients
        assert all(isinstance(r, CountResponse) for r in responses)
        assert {r.count for r in responses} == {expected}
        coalesced = [r for r in responses if r.coalesced]
        assert len(coalesced) == 5
        assert service.metrics.counter("repro_serve_coalesced_total").value == 5

    def test_distinct_queries_do_not_coalesce(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            runtime = GatedRuntime()
            runtime.gate.set()
            service = await started_service(registry, runtime=runtime)
            try:
                a = await service.submit(CountRequest(graph="g", pattern="triangle"))
                b = await service.submit(CountRequest(graph="g", pattern="3-star"))
            finally:
                await service.stop()
            return runtime, a, b

        runtime, a, b = run(scenario())
        assert runtime.calls == 2
        assert a.count != b.count or a.pattern != b.pattern


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_waiter_deadline_expires_without_cancelling_execution(self):
        graph = make_graph()

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", graph)
            runtime = GatedRuntime()
            service = await started_service(registry, runtime=runtime)
            try:
                t0 = time.perf_counter()
                response = await service.submit(
                    CountRequest(graph="g", pattern="triangle", timeout_s=0.1)
                )
                waited = time.perf_counter() - t0
                runtime.gate.set()  # let the abandoned execution finish
                await asyncio.sleep(0.2)
            finally:
                await service.stop()
            return response, waited, service

        response, waited, service = run(scenario())
        assert isinstance(response, ErrorResponse)
        assert response.code == "deadline_exceeded"
        assert waited < 5.0  # returned promptly, not after the execution
        assert service.metrics.counter("repro_serve_expired_total").value >= 1

    def test_fast_request_beats_deadline(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            service = await started_service(registry)
            try:
                return await service.submit(
                    CountRequest(graph="g", pattern="triangle", timeout_s=30.0)
                )
            finally:
                await service.stop()

        assert isinstance(run(scenario()), CountResponse)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_rejects_overloaded(self):
        patterns = ["triangle", "3-star", "4-star", "5-star", "4-cycle"]

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            runtime = GatedRuntime()
            config = ServiceConfig(max_queue=2, max_batch=1, executor_workers=1)
            service = await started_service(registry, runtime=runtime, config=config)
            try:
                tasks = []
                # p0 executes (blocked on the gate), p1 sits in the batcher
                # waiting for an executor slot, p2/p3 fill the queue.
                for pattern in patterns[:4]:
                    tasks.append(
                        asyncio.create_task(
                            service.submit(CountRequest(graph="g", pattern=pattern))
                        )
                    )
                    await asyncio.sleep(0.1)
                overflow = await service.submit(
                    CountRequest(graph="g", pattern=patterns[4])
                )
                # metrics stay exported while saturated
                depth = service.metrics.gauge("repro_serve_queue_depth").value
                text = prometheus_text(service.metrics)
                runtime.gate.set()
                accepted = await asyncio.gather(*tasks)
            finally:
                await service.stop()
            return service, overflow, depth, text, accepted

        service, overflow, depth, text, accepted = run(scenario())
        assert isinstance(overflow, ErrorResponse)
        assert overflow.code == "overloaded"
        assert service.metrics.counter("repro_serve_rejected_total").value == 1
        assert depth == 2  # the admission queue was genuinely full
        assert "repro_serve_queue_depth 2" in text
        assert "repro_serve_latency_seconds_bucket" in text
        assert all(isinstance(r, CountResponse) for r in accepted)


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_after_completion(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            service = await started_service(registry)
            try:
                first = await service.submit(CountRequest(graph="g", pattern="triangle"))
                second = await service.submit(CountRequest(graph="g", pattern="triangle"))
            finally:
                await service.stop()
            return service, first, second

        service, first, second = run(scenario())
        assert not first.cached and second.cached
        assert first.count == second.count
        assert service.metrics.counter("repro_serve_result_cache_hits_total").value == 1
        ratio = service.metrics.gauge("repro_serve_result_cache_hit_ratio").value
        assert 0 < ratio < 1

    def test_no_cache_bypasses_read_and_write(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            runtime = GatedRuntime()
            runtime.gate.set()
            service = await started_service(registry, runtime=runtime)
            try:
                await service.submit(CountRequest(graph="g", pattern="triangle"))
                fresh = await service.submit(
                    CountRequest(graph="g", pattern="triangle", use_cache=False)
                )
            finally:
                await service.stop()
            return runtime, fresh

        runtime, fresh = run(scenario())
        assert runtime.calls == 2  # second call executed despite the cached result
        assert not fresh.cached

    def test_ttl_expiry(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            config = ServiceConfig(result_cache_ttl_s=0.05)
            service = await started_service(registry, config=config)
            try:
                await service.submit(CountRequest(graph="g", pattern="triangle"))
                await asyncio.sleep(0.1)
                late = await service.submit(CountRequest(graph="g", pattern="triangle"))
            finally:
                await service.stop()
            return late

        assert not run(scenario()).cached

    def test_registry_replace_invalidates_and_serves_fresh_counts(self):
        sparse = make_graph(seed=1)
        dense = gen.erdos_renyi(30, 0.7, seed=2)
        expect_sparse = Runtime().count(sparse, parse_pattern("triangle")).count
        expect_dense = Runtime().count(dense, parse_pattern("triangle")).count
        assert expect_sparse != expect_dense

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", sparse)
            service = await started_service(registry)
            try:
                before = await service.submit(CountRequest(graph="g", pattern="triangle"))
                cached = await service.submit(CountRequest(graph="g", pattern="triangle"))
                registry.register("g", dense)  # replace fires invalidation
                after = await service.submit(CountRequest(graph="g", pattern="triangle"))
            finally:
                await service.stop()
            return service, before, cached, after

        service, before, cached, after = run(scenario())
        assert before.count == expect_sparse and cached.cached
        assert after.count == expect_dense
        assert not after.cached
        assert after.fingerprint == dense.fingerprint()
        assert (
            service.metrics.counter("repro_serve_result_cache_invalidations_total").value
            >= 1
        )


# ----------------------------------------------------------------------
# batching + tracing
# ----------------------------------------------------------------------
class TestBatching:
    def test_queued_requests_group_into_one_batch(self):
        graph = make_graph()
        patterns = ["triangle", "3-star", "4-star", "paw"]

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", graph)
            runtime = GatedRuntime()
            # one worker and a blocked gate: everything queues behind the
            # first dispatch, then drains as one grouped batch.
            config = ServiceConfig(max_batch=8, executor_workers=1)
            observer = Observer(trace=True, metrics=True)
            service = await started_service(
                registry, runtime=runtime, config=config, observer=observer
            )
            try:
                tasks = [
                    asyncio.create_task(
                        service.submit(CountRequest(graph="g", pattern=p))
                    )
                    for p in patterns
                ]
                await asyncio.sleep(0.2)
                runtime.gate.set()
                responses = await asyncio.gather(*tasks)
            finally:
                await service.stop()
            return service, observer, responses

        service, observer, responses = run(scenario())
        assert all(isinstance(r, CountResponse) for r in responses)
        hist = service.metrics.histogram("repro_serve_batch_size")
        assert hist.count >= 1
        # all four requests were drained and grouped into one micro-batch
        assert max(r.batch_size for r in responses) == len(patterns)
        names = {s.name for s in observer.tracer.spans}
        assert {"serve.admit", "serve.batch", "serve.execute", "serve.respond"} <= names

    def test_batch_window_gathers_lagging_requests(self):
        async def scenario():
            registry = GraphRegistry()
            registry.register("g", make_graph())
            config = ServiceConfig(max_batch=8, batch_window_s=0.2, executor_workers=1)
            service = await started_service(registry, config=config)
            try:
                first = asyncio.create_task(
                    service.submit(CountRequest(graph="g", pattern="triangle"))
                )
                await asyncio.sleep(0.05)  # inside the window
                second = asyncio.create_task(
                    service.submit(CountRequest(graph="g", pattern="3-star"))
                )
                responses = await asyncio.gather(first, second)
            finally:
                await service.stop()
            return responses

        responses = run(scenario())
        assert all(isinstance(r, CountResponse) for r in responses)
        assert max(r.batch_size for r in responses) == 2


# ----------------------------------------------------------------------
# persistent-pool executor
# ----------------------------------------------------------------------
class TestPoolExecutor:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(executor="rocket")
        with pytest.raises(ValueError):
            ServiceConfig(executor="pool", pool_workers=0)
        assert ServiceConfig(executor="pool", pool_workers=2).executor == "pool"

    def test_thread_executor_has_no_parallel(self):
        service = CountingService(GraphRegistry())
        assert service._parallel is None

    def test_pool_executor_counts_match_serial(self):
        from repro.graph import datasets
        from repro.parallel.shm import shm_available
        from repro.parallel.workerpool import shutdown_default_pool

        if not shm_available():
            pytest.skip("no shared memory")
        # amazon tiny has 300 vertices, more than the pool's 256-vertex
        # chunks, so matcher work really leaves the executor thread
        graph = datasets.make("amazon0601", "tiny")
        # 3-vertex cores go to the pool; the 2-vertex-core diamond stays
        # on the executor thread as a closed form
        pooled = ["4-clique", "4-clique + 1x0"]
        closed = ["diamond"]
        patterns = (pooled + closed) * 2
        expected = {p: Runtime().count(graph, parse_pattern(p)).count for p in set(patterns)}

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", graph)
            config = ServiceConfig(executor="pool", pool_workers=2)
            service = await started_service(registry, config=config)
            try:
                responses = await asyncio.gather(*[
                    service.submit(CountRequest(graph="g", pattern=p, use_cache=False))
                    for p in patterns
                ])
            finally:
                await service.stop()
            return responses

        try:
            responses = run(scenario())
        finally:
            shutdown_default_pool()
        assert all(isinstance(r, CountResponse) for r in responses)
        assert all(r.count == expected[p] for p, r in zip(patterns, responses))
        assert all("fringe-pool(x2" in r.engine
                   for p, r in zip(patterns, responses) if p in pooled)
        assert all(r.engine.startswith("fringe-specialized(edge-core)")
                   for p, r in zip(patterns, responses) if p in closed)
