"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the contracts the tentpole makes:

* metrics primitives: counters/gauges/fixed-bucket histograms, labeled
  series, snapshot/merge round trips (the cross-process delta format);
* tracing: contextvars nesting, monotonic timing, no-op when inactive;
* exporters: JSONL traces, Prometheus text format, CLI table;
* runtime wiring: span tree compile → execute → venn/fc, plan-cache
  metrics, the Observer hook, the compile-race accounting fix, and the
  locked stats snapshot;
* cross-process: PartialSum worker deltas sum to the in-process totals
  and merge into per-worker imbalance series;
* gpusim + bench: warp reports surface as metrics; run_figure emits one
  JSONL record per cell into BENCH_<figure>.json.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import EngineConfig, Observer, Runtime, compile_pattern, count_subgraphs
from repro import obs
from repro import runtime as runtime_mod
from repro.core.backends import FrontierBackend, PoolBackend, SerialBackend
from repro.core.frontier import frontier_match_matrix
from repro.core.venn import venn_batch
from repro.graph import generators as gen
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel import ParallelConfig
from repro.patterns import catalog


@pytest.fixture(scope="module")
def kron():
    return gen.kronecker(6, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def kron_mid():
    """Large enough that the worker pool really runs (many chunks)."""
    return gen.kronecker(7, edge_factor=8, seed=3)


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_basicss(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        assert reg.counter("c").value == 5
        assert reg.gauge("g").value == 2.5

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("c", worker="1").inc(1)
        reg.counter("c", worker="2").inc(2)
        assert reg.counter("c", worker="1").value == 1
        assert reg.counter("c", worker="2").value == 2
        names = [(name, labels) for name, labels, _ in reg.collect()]
        assert ("c", {"worker": "1"}) in names and ("c", {"worker": "2"}) in names

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10, 100))
        h.observe_many([0.5, 1, 5, 10, 1000])
        assert h.counts == [2, 2, 0, 1]  # le=1 gets 0.5 and 1; overflow gets 1000
        assert h.count == 5 and h.sum == pytest.approx(1016.5)
        assert h.mean == pytest.approx(1016.5 / 5)

    def test_snapshot_merge_roundtrip(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        a.gauge("g").set(7)
        a.histogram("h", buckets=(1, 2)).observe_many([0.5, 1.5, 9])
        b.counter("c").inc(10)
        b.histogram("h", buckets=(1, 2)).observe(1.0)
        b.merge(a.snapshot())
        assert b.counter("c").value == 13
        assert b.gauge("g").value == 7
        h = b.histogram("h", buckets=(1, 2))
        assert h.counts == [2, 1, 1] and h.count == 4

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(5, 6)).observe(1)
        with pytest.raises(ValueError, match="bucket mismatch"):
            b.merge(a.snapshot())
        # self-merge with matching buckets is fine
        b.merge(b.snapshot())

    def test_thread_safety_of_counters(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("c").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("c").value == 4000

    def test_lookups_return_one_metric_per_series(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.counter("c", a="1", b="2") is reg.counter("c", b="2", a="1")
        assert reg.counter("c", a="1") is not reg.counter("c")
        h = reg.histogram("h", buckets=(1, 2))
        # buckets only shape a new histogram
        assert reg.histogram("h") is h and h.buckets == (1, 2)

    def test_concurrent_first_lookups_create_one_metric(self):
        reg = MetricsRegistry()
        start = threading.Barrier(8)
        got = []

        def work(i):
            start.wait()
            got.append(reg.histogram(f"h{i % 2}"))
            reg.counter("c").inc()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(h) for h in got}) == 2
        assert reg.counter("c").value == 8
        assert [name for name, _, _ in reg.collect()] == ["c", "h0", "h1"]


def _per_value(buckets, values):
    """A histogram filled one ``observe`` call per value."""
    h = MetricsRegistry().histogram("h", buckets=buckets)
    for v in values:
        h.observe(v)
    return h


def _same_histogram(a, b):
    assert a.buckets == b.buckets
    assert a.counts == b.counts and a.count == b.count
    assert a.sum == b.sum or (np.isnan(a.sum) and np.isnan(b.sum))


class TestWeightedHistogram:
    """``observe_many(values, counts)`` is ``observe`` over ``np.repeat``."""

    BUCKETS = (1, 4, 16, 64)

    @pytest.mark.parametrize(
        "values, counts",
        [
            ([0, 1, 4, 16, 64], [1, 2, 3, 4, 5]),  # every value on a bound
            ([0.5, 1.5, 4.0, 65, 1e9], [3, 1, 2, 7, 1]),  # overflow
            ([float("nan"), 2.0, float("nan")], [2, 1, 1]),  # NaN overflows
            ([float("inf"), -3.0, 3.0], [1, 1, 2]),
            ([2.0, 70.0, 3.0], [0, 2, 0]),  # zero weights record nothing
            ([], []),
            ([5.0, 5.0], [0, 0]),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True])
    def test_weighted_equals_repeated_observe(self, values, counts, as_array):
        vals = np.asarray(values, dtype=np.float64) if as_array else values
        cnts = np.asarray(counts, dtype=np.int64) if as_array else counts
        weighted = MetricsRegistry().histogram("h", buckets=self.BUCKETS)
        weighted.observe_many(vals, cnts)
        expect = _per_value(self.BUCKETS, np.repeat(np.asarray(values, dtype=float), counts))
        _same_histogram(weighted, expect)
        unweighted = MetricsRegistry().histogram("h", buckets=self.BUCKETS)
        unweighted.observe_many(np.repeat(vals, cnts) if as_array else list(np.repeat(vals, cnts)))
        _same_histogram(unweighted, expect)

    def test_random_integer_samples(self):
        rng = np.random.default_rng(7)
        buckets = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)
        for _ in range(50):
            values = rng.integers(0, 300_000, size=int(rng.integers(0, 40)))
            values[: len(values) // 3] = rng.choice(buckets, size=len(values) // 3)
            counts = rng.integers(0, 9, size=len(values))
            weighted = MetricsRegistry().histogram("h", buckets=buckets)
            weighted.observe_many(values, counts)
            _same_histogram(weighted, _per_value(buckets, np.repeat(values, counts)))

    def test_observe_and_observe_many_bin_alike(self):
        values = [-1, 0, 1, 1.0000001, 4, 15.9, 16, 64, 64.5, float("inf"), float("nan")]
        for v in values:
            single = MetricsRegistry().histogram("h", buckets=self.BUCKETS)
            single.observe(v)
            bulk = MetricsRegistry().histogram("h", buckets=self.BUCKETS)
            bulk.observe_many([v])
            assert single.counts == bulk.counts, v

    def test_weighted_samples_survive_snapshot_and_merge(self):
        worker, parent, expect = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        worker.histogram("repro_venn_set_size").observe_many(
            np.array([3, 16, 17, 500_000]), np.array([4, 1, 2, 1])
        )
        parent.histogram("repro_venn_set_size").observe(5)
        parent.merge(worker.snapshot())
        for v in [5, 3, 3, 3, 3, 16, 17, 17, 500_000]:
            expect.histogram("repro_venn_set_size").observe(v)
        _same_histogram(
            parent.histogram("repro_venn_set_size"), expect.histogram("repro_venn_set_size")
        )

    def test_rejects_mismatched_or_negative_counts(self):
        h = MetricsRegistry().histogram("h", buckets=self.BUCKETS)
        with pytest.raises(ValueError, match="length"):
            h.observe_many([1, 2], [1])
        with pytest.raises(ValueError, match="negative"):
            h.observe_many([1, 2], [1, -1])
        assert h.count == 0 and h.counts == [0] * 5

    def test_module_helper_forwards_counts(self):
        with Observer(trace=False) as ob:
            obs.observe_many("repro_venn_set_size", [2, 20], [3, 1])
        h = ob.metrics.histogram("repro_venn_set_size")
        assert h.count == 4 and h.sum == 26 and h.counts[:3] == [0, 3, 0]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail="x"):
                pass
            with tracer.span("sibling"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].attrs == {"detail": "x"}
        assert tracer.children(by_name["outer"]) == [by_name["inner"], by_name["sibling"]]
        assert all(s.duration_s >= 0 for s in tracer.spans)

    def test_span_recorded_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.spans] == ["boom"]

    def test_inactive_span_is_shared_noop(self):
        assert obs.current() is None
        cm1, cm2 = obs.span("a"), obs.span("b")
        assert cm1 is cm2  # the shared nullcontext: no allocation when off
        with cm1:
            pass

    def test_observer_scoping_restores_previous(self):
        outer, inner = Observer(), Observer()
        with outer:
            assert obs.current() is outer
            with inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None

    def test_global_enable_disable(self):
        ob = obs.enable(trace=False)
        try:
            assert obs.current() is ob
            assert ob.tracer is None and ob.metrics is not None
        finally:
            obs.disable()
        assert obs.current() is None


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_trace_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        n = obs.write_trace_jsonl(tracer, path)
        lines = path.read_text().strip().splitlines()
        assert n == len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "outer"  # ordered by start time
        assert records[1]["parent_id"] == records[0]["span_id"]

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_counts_total").inc(2)
        reg.gauge("repro_worker_busy_seconds", worker="7").set(0.5)
        reg.histogram("h", buckets=(1, 10)).observe_many([0.5, 5, 50])
        text = obs.prometheus_text(reg)
        assert "# TYPE repro_counts_total counter" in text
        assert "repro_counts_total 2" in text
        assert 'repro_worker_busy_seconds{worker="7"} 0.5' in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="10"} 2' in text  # cumulative
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_metrics_table(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(1.0)
        table = obs.metrics_table(reg)
        assert "c" in table and "count=1" in table
        assert obs.metrics_table(MetricsRegistry()) == "(no metrics recorded)"


# ----------------------------------------------------------------------
# runtime wiring
# ----------------------------------------------------------------------
class TestRuntimeObservability:
    def test_span_tree_covers_compile_execute_venn_fc(self, kron):
        ob = Observer()
        rt = Runtime(observer=ob)
        rt.count(kron, catalog.diamond(), engine="frontier")
        roots = ob.tracer.roots()
        assert [r.name for r in roots] == ["count"]
        children = [c.name for c in ob.tracer.children(roots[0])]
        assert children == ["compile", "execute"]
        execute = ob.tracer.children(roots[0])[1]
        (match,) = ob.tracer.children(execute)
        assert match.name == "frontier.match"
        assert any(s.name == "venn_fc_batch" for s in ob.tracer.children(match))

    def test_cache_hit_skips_compile_span(self, kron):
        ob = Observer()
        rt = Runtime(observer=ob)
        rt.count(kron, catalog.diamond(), engine="general")
        rt.count(kron, catalog.diamond(), engine="general")
        second = ob.tracer.roots()[1]
        assert [c.name for c in ob.tracer.children(second)] == ["execute"]

    def test_plan_cache_and_latency_metrics(self, kron):
        ob = Observer()
        rt = Runtime(observer=ob)
        rt.count(kron, catalog.diamond(), engine="general")
        rt.count(kron, catalog.diamond(), engine="general")
        m = ob.metrics
        assert m.counter("repro_counts_total").value == 2
        assert m.histogram("repro_count_latency_seconds").count == 2
        assert m.gauge("repro_plan_cache_hits").value == 1
        assert m.gauge("repro_plan_cache_misses").value == 1
        assert m.gauge("repro_plan_cache_hit_ratio").value == 0.5
        assert m.counter("repro_core_matches_total").value > 0
        assert m.histogram("repro_venn_set_size").count > 0
        assert m.histogram("repro_candidate_set_size").count > 0

    def test_stats_snapshot_is_a_locked_copy(self, kron):
        rt = Runtime()
        rt.count(kron, catalog.diamond())
        snap = rt.stats_snapshot()
        assert snap is not rt.stats
        assert snap.counts_served == 1
        rt.count(kron, catalog.diamond())
        assert snap.counts_served == 1  # the copy does not move

    def test_compile_race_counted_as_hit_after_race(self, kron, monkeypatch):
        rt = Runtime()
        pat = catalog.diamond()
        original = runtime_mod.compile_pattern
        first_started = threading.Event()
        release_first = threading.Event()
        calls = []

        def stalling_compile(pattern, cfg, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                first_started.set()
                assert release_first.wait(10)
            return original(pattern, cfg, **kwargs)

        monkeypatch.setattr(runtime_mod, "compile_pattern", stalling_compile)
        loser_result = {}

        def loser():
            loser_result["plan"], loser_result["hit"], _ = rt.plan_for(pat)

        t = threading.Thread(target=loser)
        t.start()
        assert first_started.wait(10)
        # while the first thread is stuck compiling, win the race
        winner_plan, winner_hit, _ = rt.plan_for(pat)
        release_first.set()
        t.join(10)
        assert not winner_hit
        assert loser_result["hit"] is True
        assert loser_result["plan"] is winner_plan  # served the winner's plan
        snap = rt.stats_snapshot()
        assert snap.plan_cache_misses == 1  # one truthful miss, not two
        assert snap.plan_cache_hits == 1
        assert snap.compile_races == 1
        assert rt.cache_info()["compile_races"] == 1

    def test_no_observer_no_metrics_leak(self, kron):
        assert obs.current() is None
        res = Runtime().count(kron, catalog.diamond(), engine="general")
        assert res.stats is not None
        assert obs.current() is None


# ----------------------------------------------------------------------
# stats propagation across backends (satellite: consistency)
# ----------------------------------------------------------------------
class TestStatsPropagation:
    @pytest.fixture(scope="class")
    def partials(self, kron_mid):
        plan = compile_pattern(catalog.paw())
        return {
            "serial": SerialBackend().run(plan, kron_mid),
            "frontier": FrontierBackend().run(plan, kron_mid),
            "process": PoolBackend(num_workers=2, chunk_size=16).run(plan, kron_mid),
        }

    def test_all_backends_nonzero_and_consistent(self, partials):
        sigmas = {p.sigma for p in partials.values()}
        matches = {p.matches for p in partials.values()}
        assert len(sigmas) == 1 and len(matches) == 1
        for name, p in partials.items():
            assert p.matches > 0, name
            assert p.venn_fc_s > 0.0, name
        assert partials["frontier"].batches >= 1
        assert partials["process"].batches >= 1

    def test_runtime_stats_consistent_across_backends(self, kron_mid):
        expect = count_subgraphs(kron_mid, catalog.paw()).count
        rt = Runtime()
        for engine, parallel in [
            ("general", None),
            ("frontier", None),
            ("general", ParallelConfig(num_workers=2, chunk_size=16)),
            ("frontier", ParallelConfig(num_workers=2, chunk_size=16)),
        ]:
            res = rt.count(kron_mid, catalog.paw(), engine=engine, parallel=parallel)
            assert res.count == expect
            assert res.stats.venn_fc_s > 0.0
            assert res.core_matches > 0
            assert res.stats.match_s >= 0.0

    def test_worker_deltas_sum_to_totals(self, partials):
        process = partials["process"]
        frontier = partials["frontier"]
        assert len(process.workers) > 0
        assert sum(w.matches for w in process.workers) == process.matches == frontier.matches
        assert sum(w.batches for w in process.workers) == process.batches
        assert sum(w.venn_fc_s for w in process.workers) == pytest.approx(process.venn_fc_s)
        assert all(w.elapsed_s >= w.venn_fc_s for w in process.workers)
        assert all(w.pid > 0 for w in process.workers)

    def test_worker_metric_deltas_merge_to_single_process_totals(self, kron_mid):
        # single-process reference totals
        with Observer(trace=False) as ref:
            FrontierBackend().run(compile_pattern(catalog.paw()), kron_mid)
        ref_matches = ref.metrics.counter("repro_core_matches_total").value
        assert ref_matches > 0
        # pool run: worker-local registries merge at reduction
        with Observer(trace=False) as ob:
            partial = PoolBackend(num_workers=2, chunk_size=16).run(
                compile_pattern(catalog.paw()), kron_mid
            )
        m = ob.metrics
        assert len({w.pid for w in partial.workers}) > 1
        assert m.counter("repro_core_matches_total").value == ref_matches
        _same_histogram(
            m.histogram("repro_venn_set_size"), ref.metrics.histogram("repro_venn_set_size")
        )
        assert m.histogram("repro_venn_set_size").count == ref_matches
        assert m.gauge("repro_worker_load_imbalance").value >= 1.0
        assert m.gauge("repro_workers").value >= 2
        workers = [
            labels["worker"]
            for name, labels, _ in m.collect()
            if name == "repro_worker_busy_seconds"
        ]
        assert len(workers) >= 2

    def test_pool_busy_time_has_one_series_per_pid(self, kron_mid):
        ob = Observer(trace=False)
        res = Runtime(observer=ob).count(
            kron_mid,
            catalog.paw(),
            engine="frontier",
            parallel=ParallelConfig(num_workers=2, chunk_size=16),
        )
        assert res.stats.workers >= 2
        series = [(name, labels) for name, labels, _ in ob.metrics.collect()]
        pids = {labels["worker"] for name, labels in series if name == "repro_worker_busy_seconds"}
        assert len(pids) == res.stats.workers
        assert all(pid.isdigit() and int(pid) > 0 for pid in pids)
        # the pool's per-slot copy of the same elapsed time is gone
        assert not [name for name, _ in series if name == "repro_pool_worker_busy_seconds"]

    def test_execution_stats_report_worker_count(self, kron_mid):
        rt = Runtime()
        res = rt.count(
            kron_mid,
            catalog.paw(),
            engine="general",
            parallel=ParallelConfig(num_workers=2, chunk_size=16),
        )
        assert res.stats.workers >= 2


class TestVennSetSizeHistogram:
    """The frontier pass records one weighted sample per row group; the
    histogram equals one sample per matched row."""

    @pytest.mark.parametrize(
        "pattern, symmetry",
        [
            (catalog.four_cycle(), True),  # anchor pairs repeat across rows
            (catalog.tailed_triangle(), True),
            (catalog.tailed_triangle(), False),  # every orientation of the core
            (catalog.four_clique(), True),
            (catalog.diamond(), True),
        ],
        ids=["4-cycle", "tailed-triangle", "tailed-triangle-both", "4-clique", "diamond"],
    )
    def test_frontier_equals_per_row_venn_batch(self, kron, pattern, symmetry):
        plan = compile_pattern(
            pattern, EngineConfig(batch_size=3, symmetry_breaking=symmetry)
        )
        rows = frontier_match_matrix(kron, plan.core_plan)
        assert len(rows) > 3
        positions = list(plan.anchored_positions)
        sizes = venn_batch(kron, rows[:, positions], rows).sum(axis=1)
        with Observer(trace=False) as ob:
            partial = FrontierBackend().run(plan, kron)
        assert partial.matches == len(rows)
        assert partial.batches > 1  # the groups split into several chunks
        _same_histogram(
            ob.metrics.histogram("repro_venn_set_size"),
            _per_value(ob.metrics.histogram("repro_venn_set_size").buckets, sizes),
        )

    def test_serial_oracle_records_one_sample_per_match(self, kron):
        plan = compile_pattern(catalog.four_cycle())
        with Observer(trace=False) as serial:
            s = SerialBackend().run(plan, kron)
        with Observer(trace=False) as frontier:
            FrontierBackend().run(plan, kron)
        assert serial.metrics.histogram("repro_candidate_set_size").count == s.matches
        _same_histogram(
            serial.metrics.histogram("repro_venn_set_size"),
            frontier.metrics.histogram("repro_venn_set_size"),
        )

    def test_service_frontier_request_counts_every_match(self, kron):
        from repro.serve import CountingService, CountRequest, GraphRegistry

        expect = Runtime().count(kron, catalog.four_cycle(), engine="frontier")

        async def scenario():
            registry = GraphRegistry()
            registry.register("g", kron)
            service = CountingService(registry)
            service.start()
            try:
                return service, await service.submit(
                    CountRequest(graph="g", pattern="4-cycle", engine="frontier")
                )
            finally:
                await service.stop()

        service, response = asyncio.run(scenario())
        assert response.count == expect.count
        hist = service.metrics.histogram("repro_venn_set_size")
        assert hist.count == expect.core_matches > 0
        assert service.metrics.counter("repro_core_matches_total").value == hist.count


# ----------------------------------------------------------------------
# gpusim metrics
# ----------------------------------------------------------------------
class TestGpusimMetrics:
    def test_launch_surfaces_warp_metrics(self, kron):
        from repro.gpusim.machine import GPUMachine, MachineConfig
        from repro.gpusim.warp import LaneOp, WarpStats, run_warp

        def kernel(graph, roots):
            def lane(root):
                yield LaneOp(pc=0, addresses=(root,))

            stats = WarpStats()
            stats.merge(run_warp([lane(r) for r in roots]))
            return stats

        with Observer() as ob:
            report = GPUMachine(MachineConfig(num_sms=4)).launch(kron, kernel)
        m = ob.metrics
        assert m.counter("gpusim_launches_total").value == 1
        assert m.counter("gpusim_warp_steps_total").value == report.total_steps
        assert 0.0 < m.gauge("gpusim_simt_efficiency").value <= 1.0
        assert m.gauge("gpusim_load_imbalance").value >= 1.0
        assert 0.0 < m.gauge("gpusim_warp_occupancy").value <= 1.0
        assert any(s.name == "gpusim.launch" for s in ob.tracer.spans)


# ----------------------------------------------------------------------
# bench harness JSONL records
# ----------------------------------------------------------------------
class TestBenchRecords:
    def test_run_figure_emits_one_jsonl_record_per_cell(self, tmp_path, kron):
        from repro.bench.harness import run_figure

        res = run_figure(
            "smoke",
            {"triangle": catalog.triangle(), "paw": catalog.paw()},
            {"kron": kron},
            ["fringe-sgc", "stmatch-like"],
            timeout_s=30.0,
            record_dir=tmp_path,
        )
        path = tmp_path / "BENCH_smoke.json"
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(res.measurements) == 4
        records = [json.loads(line) for line in lines]
        for rec in records:
            assert rec["figure"] == "smoke"
            assert rec["system"] in ("fringe-sgc", "stmatch-like")
            assert rec["status"] in ("ok", "dnf", "unsupported")
            if rec["status"] == "ok":
                assert int(rec["count"]) >= 0
                assert rec["seconds"] >= 0
                assert rec["throughput_eps"] > 0
        # ok cells agree per (pattern, graph) — the cross-check passed
        by_cell = {}
        for rec in records:
            if rec["status"] == "ok":
                by_cell.setdefault((rec["pattern"], rec["graph"]), set()).add(rec["count"])
        assert all(len(counts) == 1 for counts in by_cell.values())

    def test_run_figure_appends_across_runs(self, tmp_path, kron):
        from repro.bench.harness import run_figure

        for _ in range(2):
            run_figure(
                "trend",
                {"triangle": catalog.triangle()},
                {"kron": kron},
                ["fringe-sgc"],
                record_dir=tmp_path,
            )
        lines = (tmp_path / "BENCH_trend.json").read_text().strip().splitlines()
        assert len(lines) == 2  # the trajectory grows run over run

    def test_env_var_selects_record_dir(self, tmp_path, kron, monkeypatch):
        from repro.bench.harness import run_figure

        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        run_figure("envfig", {"triangle": catalog.triangle()}, {"kron": kron}, ["fringe-sgc"])
        assert (tmp_path / "BENCH_envfig.json").exists()

    def test_no_record_dir_no_file(self, tmp_path, kron, monkeypatch):
        from repro.bench.harness import run_figure

        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        run_figure("nofig", {"triangle": catalog.triangle()}, {"kron": kron}, ["fringe-sgc"])
        assert not list(tmp_path.glob("BENCH_*.json"))


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCLIObservability:
    @pytest.fixture()
    def graph_file(self, tmp_path, kron):
        path = tmp_path / "kron.el"
        lines = [f"{u} {v}" for u, v in kron.edge_array().tolist()]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.fixture()
    def fresh_runtime(self):
        # the CLI serves from the process-wide runtime; start with an
        # empty plan cache so the trace contains a compile span
        from repro.runtime import set_runtime

        old = set_runtime(Runtime())
        yield
        set_runtime(old)

    def test_trace_metrics_prom_flags(self, graph_file, tmp_path, capsys, fresh_runtime):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        prom_path = tmp_path / "metrics.prom"
        rc = main(
            [
                "count",
                "--graph", graph_file,
                "--pattern", "diamond",
                "--engine", "frontier",
                "--trace", str(trace_path),
                "--metrics",
                "--prom", str(prom_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace    :" in out and "metrics  :" in out and "prom     :" in out
        # valid JSONL whose span tree covers compile -> execute -> venn/fc
        records = [json.loads(line) for line in trace_path.read_text().strip().splitlines()]
        names = {r["name"] for r in records}
        assert {"count", "compile", "execute", "venn_fc_batch"} <= names
        by_id = {r["span_id"]: r for r in records}
        execute = next(r for r in records if r["name"] == "execute")
        assert by_id[execute["parent_id"]]["name"] == "count"
        # venn/fc spans belong to the real run's frontier pass; the plan's
        # self-count in compile runs the per-match oracle, which has none
        venn_parents = {
            by_id[r["parent_id"]]["name"] for r in records if r["name"] == "venn_fc_batch"
        }
        assert venn_parents == {"frontier.match"}
        match = next(r for r in records if r["name"] == "frontier.match")
        assert by_id[match["parent_id"]]["name"] == "execute"
        # Prometheus dump has plan-cache and histogram series
        prom = prom_path.read_text()
        assert "# TYPE repro_count_latency_seconds histogram" in prom
        assert "repro_plan_cache_hit_ratio" in prom
        assert "repro_count_latency_seconds_bucket" in prom

    def test_cli_without_flags_records_nothing(self, graph_file, capsys):
        from repro.cli import main

        assert main(["count", "--graph", graph_file, "--pattern", "triangle"]) == 0
        out = capsys.readouterr().out
        assert "trace    :" not in out and "metrics  :" not in out
        assert obs.current() is None
