"""Tests for the plan / backend / runtime layering (DESIGN.md §7).

Covers the three contracts the architecture makes:

* plans are frozen, picklable value objects built once per
  (canonical pattern, config) and cached by the runtime's LRU;
* every backend (serial / batch / multiprocess x static / strided /
  dynamic) computes the same counts as the reference entry point;
* normalization lives in exactly one code path and execution stats are
  populated per call.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Runtime, compile_pattern, count_subgraphs, get_runtime
from repro.core import backends as backends_mod
from repro.core.backends import BatchBackend, MultiprocessBackend, SerialBackend
from repro.core.engine import EngineConfig
from repro.core.plan import exact_divide, plan_key
from repro.graph import generators as gen
from repro.parallel import ParallelConfig, parallel_count
from repro.patterns import catalog


@pytest.fixture(scope="module")
def kron():
    """A small Kronecker graph (the paper's synthetic input family)."""
    return gen.kronecker(6, edge_factor=8, seed=3)


CATALOG = {
    "3-star": catalog.star(3),
    "triangle": catalog.triangle(),
    "paw": catalog.paw(),
    "diamond": catalog.diamond(),
    "4-cycle": catalog.four_cycle(),
    "4-clique": catalog.four_clique(),
    "tailed-4-clique": catalog.tailed_four_clique(),
    "fig4": catalog.fig4_pattern(),
}


# ----------------------------------------------------------------------
# plan compilation + cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_cache_hit_returns_identical_plan_and_counts(self, kron):
        rt = Runtime()
        pat = catalog.diamond()
        plan1, hit1, compile1 = rt.plan_for(pat)
        plan2, hit2, compile2 = rt.plan_for(pat)
        assert plan1 is plan2  # the identical object, not an equal copy
        assert (hit1, hit2) == (False, True)
        assert compile1 > 0.0 and compile2 == 0.0
        r1 = rt.count(kron, pat)
        r2 = rt.count(kron, pat)
        assert r1.count == r2.count

    def test_second_count_reports_cache_hit_and_skips_compile(self, kron):
        rt = Runtime()
        pat = catalog.tailed_triangle()
        r1 = rt.count(kron, pat)
        r2 = rt.count(kron, pat)
        assert r1.stats is not None and r2.stats is not None
        assert not r1.stats.plan_cache_hit and r1.stats.compile_s > 0.0
        assert r2.stats.plan_cache_hit and r2.stats.compile_s == 0.0
        assert rt.stats.plan_cache_hits == 1
        assert rt.stats.plan_cache_misses == 1

    def test_isomorphic_patterns_share_a_plan(self):
        rt = Runtime()
        pat = catalog.paw()
        relabeled = pat.relabel(list(reversed(range(pat.n))))
        plan1, _, _ = rt.plan_for(pat)
        plan2, hit, _ = rt.plan_for(relabeled)
        assert hit and plan1 is plan2

    def test_distinct_configs_get_distinct_plans(self):
        rt = Runtime()
        pat = catalog.diamond()
        p1, _, _ = rt.plan_for(pat, EngineConfig())
        p2, hit, _ = rt.plan_for(pat, EngineConfig(venn_impl="hash"))
        assert not hit and p1 is not p2
        assert plan_key(pat, EngineConfig()) != plan_key(pat, EngineConfig(venn_impl="hash"))

    def test_lru_eviction(self):
        rt = Runtime(max_plans=2)
        for pat in (catalog.triangle(), catalog.diamond(), catalog.four_cycle()):
            rt.plan_for(pat)
        info = rt.cache_info()
        assert info["size"] == 2
        assert info["evictions"] == 1
        # the first (LRU) pattern was evicted -> recompiles on next use
        _, hit, _ = rt.plan_for(catalog.triangle())
        assert not hit

    def test_explicit_decomposition_bypasses_cache(self, kron):
        from repro.patterns.decompose import decomposition_from_core

        rt = Runtime()
        pat = catalog.four_clique()
        alt = decomposition_from_core(pat, [0, 1, 2, 3])
        r_default = rt.count(kron, pat, engine="general")
        r_alt = rt.count(kron, pat, engine="general", decomposition=alt)
        assert r_default.count == r_alt.count
        assert rt.cache_info()["size"] == 1  # the alt plan was not cached

    def test_global_runtime_is_shared(self):
        assert get_runtime() is get_runtime()


class TestPlanPickle:
    @pytest.mark.parametrize("name", ["3-star", "diamond", "4-clique", "fig4"])
    def test_roundtrip_preserves_counts(self, kron, name):
        plan = compile_pattern(CATALOG[name])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.denominator == plan.denominator
        assert clone.anch == plan.anch and clone.k == plan.k
        assert clone.key == plan.key
        assert clone.specialized_kind == plan.specialized_kind
        p1 = BatchBackend().run(plan, kron)
        p2 = BatchBackend().run(clone, kron)
        assert p1.sigma == p2.sigma and p1.matches == p2.matches
        assert clone.normalize(p2.sigma) == plan.normalize(p1.sigma)

    def test_roundtrip_specialized_engine_still_dispatches(self, kron):
        plan = compile_pattern(catalog.diamond())
        clone = pickle.loads(pickle.dumps(plan))
        eng = clone.specialized_engine()
        assert eng is not None
        assert eng(kron).count == count_subgraphs(kron, catalog.diamond()).count


# ----------------------------------------------------------------------
# backend agreement
# ----------------------------------------------------------------------
class TestBackendAgreement:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_serial_and_batch_agree_with_count_subgraphs(self, kron, name):
        pat = CATALOG[name]
        expect = count_subgraphs(kron, pat).count
        plan = compile_pattern(pat)
        for backend in (SerialBackend(), BatchBackend()):
            partial = backend.run(plan, kron)
            assert plan.normalize(partial.sigma) == expect, (name, backend.name)

    @pytest.mark.parametrize("schedule", ["static", "strided", "dynamic"])
    @pytest.mark.parametrize("name", ["paw", "diamond", "3-star"])
    def test_multiprocess_schedules_agree(self, kron, name, schedule):
        pat = CATALOG[name]
        expect = count_subgraphs(kron, pat).count
        # chunk_size below the 64-vertex graph: a single dynamic chunk would
        # run in-process, off the fork pool
        res = parallel_count(
            kron, pat, parallel=ParallelConfig(num_workers=2, schedule=schedule, chunk_size=16)
        )
        assert res.count == expect
        assert f"x2,{schedule}" in res.engine

    def test_multiprocess_backend_direct(self, kron):
        plan = compile_pattern(catalog.four_clique())
        expect = count_subgraphs(kron, catalog.four_clique()).count
        partial = MultiprocessBackend(num_workers=2, schedule="dynamic").run(plan, kron)
        assert plan.normalize(partial.sigma) == expect

    def test_start_vertex_slices_partition_the_sum(self, kron):
        plan = compile_pattern(catalog.paw())
        whole = BatchBackend().run(plan, kron)
        n = kron.num_vertices
        half = BatchBackend().run(plan, kron, start_vertices=np.arange(n // 2))
        rest = BatchBackend().run(plan, kron, start_vertices=np.arange(n // 2, n))
        assert half.sigma + rest.sigma == whole.sigma
        assert half.matches + rest.matches == whole.matches


# ----------------------------------------------------------------------
# normalization + validation + stats
# ----------------------------------------------------------------------
class TestNormalizationAndStats:
    def test_exact_divide_raises_on_remainder(self):
        assert exact_divide(12, 4) == 3
        with pytest.raises(AssertionError, match="non-integral"):
            exact_divide(13, 4)

    def test_parallel_config_validates_eagerly(self):
        with pytest.raises(ValueError, match="num_workers"):
            ParallelConfig(num_workers=0)
        with pytest.raises(ValueError, match="schedule"):
            ParallelConfig(schedule="magic")
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelConfig(chunk_size=0)

    def test_serial_fallback_leaves_shared_state_alone(self, kron):
        res = parallel_count(
            kron, catalog.paw(), parallel=ParallelConfig(num_workers=1)
        )
        assert res.count == count_subgraphs(kron, catalog.paw()).count
        assert backends_mod._SHARED == {}
        assert "x1" in res.engine

    def test_stats_populated_per_stage(self, kron):
        rt = Runtime()
        res = rt.count(kron, catalog.diamond(), engine="general")
        s = res.stats
        assert s is not None and s.backend == "batch"
        assert s.execute_s > 0.0
        assert s.batches_flushed >= 1
        assert 0.0 <= s.venn_fc_s <= s.execute_s
        # both layers are timed by the backend, not derived by subtraction
        assert s.match_s > 0.0
        assert s.match_s + s.venn_fc_s <= s.execute_s

    @pytest.mark.parametrize("engine", ["frontier", "general"])
    @pytest.mark.parametrize("fc_impl", ["poly", "iterative"])
    def test_match_time_is_measured(self, kron, engine, fc_impl):
        cfg = EngineConfig(fc_impl=fc_impl)
        for pattern in (catalog.diamond(), catalog.four_cycle()):
            s = Runtime().count(kron, pattern, engine=engine, config=cfg).stats
            assert s.match_s > 0.0 and s.venn_fc_s > 0.0
            assert s.match_s + s.venn_fc_s <= s.execute_s

    def test_trivial_patterns_through_runtime(self, kron):
        rt = Runtime()
        assert rt.count(kron, catalog.single_vertex()).count == kron.num_vertices
        assert rt.count(kron, catalog.edge()).count == kron.num_edges

    def test_unknown_engine_rejected(self, kron):
        with pytest.raises(ValueError, match="unknown engine"):
            Runtime().count(kron, catalog.paw(), engine="warp")


# ----------------------------------------------------------------------
# routing: engine first, substrate second
# ----------------------------------------------------------------------
# (pattern, core size): one pattern per closed-form kind plus a 4-vertex core
ROUTE_PATTERNS = {
    "3-star": (catalog.star(3), 1),
    "paw": (catalog.paw(), 2),
    "4-cycle": (catalog.four_cycle(), 3),
    "5-cycle": (catalog.cycle(5), 4),
}
CLOSED_FORMS = {1: "vertex-core", 2: "edge-core", 3: "3-core"}
# chunks well below the 64-vertex kron graph, so both pools really engage
ROUTE_PARALLEL = {
    "none": None,
    "fork": ParallelConfig(num_workers=2, chunk_size=16),
    "persistent": ParallelConfig(num_workers=2, chunk_size=16, pool="persistent"),
}
ORACLE = EngineConfig(fc_impl="iterative", specialized=False)


def expected_route(engine: str, core: int, parallel) -> str | None:
    """The route table: a closed-form kind or the matcher backend name."""
    closed = CLOSED_FORMS.get(core)
    if engine == "general":
        return "batch"
    if engine == "frontier":
        return "frontier"
    if engine == "specialized":
        return closed  # None: no closed form, the request is refused
    if closed is not None and (core < 3 or parallel is None):
        return closed
    return "frontier"


class TestRouting:
    @pytest.fixture(scope="class", autouse=True)
    def _release_pool(self):
        from repro.parallel.shm import shm_available
        from repro.parallel.workerpool import shutdown_default_pool

        if not shm_available():
            pytest.skip("no shared memory")
        yield
        shutdown_default_pool()

    @pytest.fixture(scope="class")
    def oracle(self, kron):
        rt = Runtime()
        return {
            name: rt.count(kron, pat, engine="general", config=ORACLE).count
            for name, (pat, _) in ROUTE_PATTERNS.items()
        }

    @pytest.mark.parametrize("engine", ["auto", "specialized", "general", "frontier"])
    @pytest.mark.parametrize("substrate", sorted(ROUTE_PARALLEL))
    @pytest.mark.parametrize("name", sorted(ROUTE_PATTERNS))
    def test_route_table(self, kron, oracle, name, substrate, engine):
        pat, core = ROUTE_PATTERNS[name]
        parallel = ROUTE_PARALLEL[substrate]
        route = expected_route(engine, core, parallel)
        rt = Runtime()
        if route is None:
            with pytest.raises(ValueError, match="no specialized engine"):
                rt.count(kron, pat, engine=engine, parallel=parallel)
            return
        res = rt.count(kron, pat, engine=engine, parallel=parallel)
        assert res.count == oracle[name]
        if route in CLOSED_FORMS.values():
            assert res.engine.startswith(f"fringe-specialized({route})")
            assert res.stats.backend == f"fringe-specialized({route})"
            assert res.stats.workers == 0
        elif parallel is None:
            assert res.stats.backend == route
            assert res.engine.startswith("fringe-frontier" if route == "frontier"
                                         else "fringe-general")
        else:
            kind = "pool" if substrate == "persistent" else "parallel"
            assert res.engine == f"fringe-{kind}(x2,dynamic)+{route}"
            assert res.stats.backend == ("pool" if substrate == "persistent"
                                         else "multiprocess")
            assert res.stats.workers >= 1

    @pytest.mark.parametrize("substrate", ["fork", "persistent"])
    def test_explicit_specialized_wins_over_parallel(self, kron, oracle, substrate):
        res = Runtime().count(kron, catalog.four_cycle(), engine="specialized",
                              parallel=ROUTE_PARALLEL[substrate])
        assert res.count == oracle["4-cycle"]
        assert res.engine == "fringe-specialized(3-core) in-process(x1)"
        assert res.stats.workers == 0

    def test_pool_label_only_when_workers_ran(self):
        """A pool request on a graph of one chunk runs in-process and says so."""
        from repro.graph import datasets

        graph = datasets.make("amazon0601", "tiny")
        pat = catalog.four_clique()
        expect = Runtime().count(graph, pat, engine="general", config=ORACLE).count
        one_chunk = ParallelConfig(num_workers=2, chunk_size=100_000, pool="persistent")
        res = Runtime().count(graph, pat, parallel=one_chunk)
        assert res.count == expect
        assert res.stats.workers == 0
        assert res.stats.backend == "frontier"
        assert "fringe-pool" not in res.engine
        assert res.engine.endswith("in-process(x1)")
        chunked = ParallelConfig(num_workers=2, chunk_size=64, pool="persistent")
        pooled = Runtime().count(graph, pat, parallel=chunked)
        assert pooled.count == expect
        assert pooled.stats.workers >= 1
        assert pooled.engine == "fringe-pool(x2,dynamic)+frontier"

    def test_fork_label_only_when_workers_ran(self, kron):
        one_chunk = ParallelConfig(num_workers=2, schedule="dynamic", chunk_size=256)
        res = parallel_count(kron, catalog.diamond(), parallel=one_chunk)
        assert res.count == count_subgraphs(kron, catalog.diamond()).count
        assert res.stats.workers == 0
        assert res.stats.backend == "batch"
        assert res.engine == "fringe-general(sorted,poly) in-process(x1)"


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture()
    def graph_file(self, tmp_path, kron):
        path = tmp_path / "kron.el"
        lines = [f"{u} {v}" for u, v in kron.edge_array().tolist()]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_count_with_engine_knobs_and_stats(self, graph_file, kron, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "count",
                    "--graph", graph_file,
                    "--pattern", "diamond",
                    "--engine", "general",
                    "--workers", "2",
                    "--schedule", "strided",
                    "--venn-impl", "hash",
                    "--fc-impl", "iterative",
                    "--batch-size", "512",
                    "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        expect = count_subgraphs(kron, catalog.diamond()).count
        assert f"count    : {expect:,}" in out
        assert "fringe-parallel(x2,strided)" in out
        assert "backend  : multiprocess" in out
        assert "venn/fc" in out

    def test_count_stats_reports_cache_state(self, graph_file, capsys):
        from repro.cli import main

        args = ["count", "--graph", graph_file, "--pattern", "4-clique", "--stats"]
        main(args)
        main(args)  # same process-wide runtime: second call hits the cache
        out = capsys.readouterr().out
        assert "compiled" in out or "cache hit" in out
        assert "cache hit" in out.split("count    :")[-1]
