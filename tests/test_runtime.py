"""Tests for the plan / backend / runtime layering (DESIGN.md §7).

Covers the three contracts the architecture makes:

* plans are frozen, picklable value objects built once per
  (canonical pattern, config) and cached by the runtime's LRU;
* every backend (serial / frontier / persistent pool x static /
  strided / dynamic) computes the same counts as the reference entry
  point;
* normalization lives in exactly one code path and execution stats are
  populated per call.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Runtime, compile_pattern, count_subgraphs, get_runtime
from repro.core.backends import FrontierBackend, PoolBackend, SerialBackend
from repro.core.engine import ENGINES, EngineConfig
from repro.core.plan import exact_divide, plan_key
from repro.core.specialized import anchored_rows
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.parallel import ParallelConfig, parallel_count
from repro.patterns import catalog
from repro.patterns.decompose import decomposition_from_core


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
        p2, hit, _ = rt.plan_for(pat, EngineConfig(batch_size=512))
        assert not hit and p1 is not p2
        assert plan_key(pat, EngineConfig()) != plan_key(pat, EngineConfig(batch_size=512))

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
        rt = Runtime()
        pat = catalog.four_clique()
        alt = decomposition_from_core(pat, [0, 1, 2, 3])
        r_default = rt.count(kron, pat, engine="general")
        r_alt = rt.count(kron, pat, engine="general", decomposition=alt)
        assert r_default.count == r_alt.count
        assert rt.cache_info()["size"] == 1  # the alt plan was not cached

    def test_global_runtime_is_shared(self):
        assert get_runtime() is get_runtime()


class TestPlanKeyCalls:
    def test_compile_never_keys_and_a_cache_miss_keys_once(self, kron, monkeypatch):
        """The canonical key is the cache's business: compiling never
        computes it, and a Runtime cache miss computes it exactly once."""
        import repro.core.plan as plan_mod
        import repro.runtime as runtime_mod

        calls = []

        def counting_key(pattern, config):
            calls.append(pattern)
            return plan_key(pattern, config)

        monkeypatch.setattr(plan_mod, "plan_key", counting_key)
        monkeypatch.setattr(runtime_mod, "plan_key", counting_key)
        compile_pattern(catalog.fig4_pattern())
        assert calls == []
        rt = Runtime()
        res = rt.count(kron, catalog.diamond())
        assert not res.stats.plan_cache_hit
        assert len(calls) == 1


class TestPlanPickle:
    @pytest.mark.parametrize("name", ["3-star", "diamond", "4-clique", "fig4"])
    def test_roundtrip_preserves_counts(self, kron, name):
        plan = compile_pattern(CATALOG[name])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.denominator == plan.denominator
        assert clone.anch == plan.anch and clone.k == plan.k
        assert clone.specialized_kind == plan.specialized_kind
        p1 = FrontierBackend().run(plan, kron)
        p2 = FrontierBackend().run(clone, kron)
        assert p1.sigma == p2.sigma and p1.matches == p2.matches
        assert clone.normalize(p2.sigma) == plan.normalize(p1.sigma)

    def test_roundtrip_specialized_engine_still_dispatches(self, kron):
        plan = compile_pattern(catalog.diamond())
        clone = pickle.loads(pickle.dumps(plan))
        eng = clone.specialized_engine()
        assert eng is not None
        expect = count_subgraphs(kron, catalog.diamond()).count
        rows = anchored_rows(clone, eng(kron))
        assert clone.normalize(clone.poly.evaluate_batch(rows)) == expect


# ----------------------------------------------------------------------
# backend agreement
# ----------------------------------------------------------------------
class TestBackendAgreement:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_serial_and_batch_agree_with_count_subgraphs(self, kron, name):
        pat = CATALOG[name]
        expect = count_subgraphs(kron, pat).count
        plan = compile_pattern(pat)
        for backend in (SerialBackend(), FrontierBackend()):
            partial = backend.run(plan, kron)
            assert plan.normalize(partial.sigma) == expect, (name, backend.name)

    @pytest.mark.parametrize("name", ["paw", "diamond", "3-star"])
    def test_pool_agrees(self, kron, name):
        pat = CATALOG[name]
        expect = count_subgraphs(kron, pat).count
        # chunk_size below the 64-vertex graph: a graph of one chunk would
        # run in-process, off the pool
        res = parallel_count(kron, pat, parallel=ParallelConfig(num_workers=2, chunk_size=16))
        assert res.count == expect
        assert res.engine == "fringe-pool(x2)+frontier"

    def test_multiprocess_backend_direct(self, kron):
        plan = compile_pattern(catalog.four_clique())
        expect = count_subgraphs(kron, catalog.four_clique()).count
        partial = PoolBackend(num_workers=2, chunk_size=16).run(plan, kron)
        assert len(partial.workers) > 0
        assert plan.normalize(partial.sigma) == expect

    def test_start_vertex_slices_partition_the_sum(self, kron):
        plan = compile_pattern(catalog.paw())
        whole = FrontierBackend().run(plan, kron)
        n = kron.num_vertices
        half = FrontierBackend().run(plan, kron, start_vertices=np.arange(n // 2))
        rest = FrontierBackend().run(plan, kron, start_vertices=np.arange(n // 2, n))
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
        with pytest.raises(TypeError):  # the work split is not a knob
            ParallelConfig(schedule="magic")
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelConfig(chunk_size=0)

    def test_serial_fallback_leaves_shared_state_alone(self, kron):
        res = parallel_count(
            kron, catalog.paw(), parallel=ParallelConfig(num_workers=1)
        )
        assert res.count == count_subgraphs(kron, catalog.paw()).count
        assert res.stats.workers == 0
        assert "x1" in res.engine

    def test_stats_populated_per_stage(self, kron):
        rt = Runtime()
        res = rt.count(kron, catalog.diamond(), engine="frontier")
        s = res.stats
        assert s is not None and s.backend == "frontier"
        assert s.execute_s > 0.0
        assert s.batches_flushed >= 1
        assert 0.0 <= s.venn_fc_s <= s.execute_s
        # both layers are timed by the backend, not derived by subtraction
        assert s.match_s > 0.0
        assert s.match_s + s.venn_fc_s <= s.execute_s

    @pytest.mark.parametrize("engine", ["frontier", "general"])
    def test_match_time_is_measured(self, kron, engine):
        for pattern in (catalog.diamond(), catalog.four_cycle()):
            s = Runtime().count(kron, pattern, engine=engine).stats
            assert s.match_s > 0.0 and s.venn_fc_s > 0.0
            assert s.match_s + s.venn_fc_s <= s.execute_s

    def test_trivial_patterns_through_runtime(self, kron):
        # a vertex or an edge compiles like any pattern (a 1-vertex core
        # with no fringe or one), on every engine and on an explicit core
        rt = Runtime()
        isolated = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=5)
        edgeless = CSRGraph.from_edges([], num_vertices=4)
        vertex, edge = catalog.single_vertex(), catalog.edge()
        for g in (kron, isolated, edgeless):
            for engine in ENGINES:
                assert rt.count(g, vertex, engine=engine).count == g.num_vertices
                assert rt.count(g, edge, engine=engine).count == g.num_edges
            for core in ([0], [0, 1]):
                alt = decomposition_from_core(edge, core)
                for engine in ("auto", "general"):
                    res = rt.count(g, edge, engine=engine, decomposition=alt)
                    assert res.count == g.num_edges
                    assert res.decomposition is alt

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
CLOSED_FORMS = {1: "vertex-core", 2: "edge-core"}
# chunks well below the 64-vertex kron graph, so the pool really engages
ROUTE_PARALLEL = {
    "none": None,
    "persistent": ParallelConfig(num_workers=2, chunk_size=16),
}
ORACLE = EngineConfig()


def expected_route(engine: str, core: int) -> str | None:
    """The route table: a closed-form kind or the matcher backend name."""
    closed = CLOSED_FORMS.get(core)
    if engine == "general":
        return "serial"
    if engine == "frontier":
        return "frontier"
    if engine == "specialized":
        return closed  # None: no closed form, the request is refused
    return closed or "frontier"


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
        route = expected_route(engine, core)
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
            assert res.engine == f"fringe-pool(x2)+{route}"
            assert res.stats.backend == "pool"
            assert res.stats.workers >= 1

    @pytest.mark.parametrize("substrate", ["persistent"])
    def test_explicit_specialized_wins_over_parallel(self, kron, oracle, substrate):
        res = Runtime().count(kron, catalog.paw(), engine="specialized",
                              parallel=ROUTE_PARALLEL[substrate])
        assert res.count == oracle["paw"]
        assert res.engine == "fringe-specialized(edge-core) in-process(x1)"
        assert res.stats.workers == 0

    def test_pool_label_only_when_workers_ran(self):
        """A pool request on a graph of one chunk runs in-process and says so."""
        from repro.graph import datasets

        graph = datasets.make("amazon0601", "tiny")
        pat = catalog.four_clique()
        expect = Runtime().count(graph, pat, engine="general", config=ORACLE).count
        one_chunk = ParallelConfig(num_workers=2, chunk_size=100_000)
        res = Runtime().count(graph, pat, parallel=one_chunk)
        assert res.count == expect
        assert res.stats.workers == 0
        assert res.stats.backend == "frontier"
        assert "fringe-pool" not in res.engine
        assert res.engine.endswith("in-process(x1)")
        chunked = ParallelConfig(num_workers=2, chunk_size=64)
        pooled = Runtime().count(graph, pat, parallel=chunked)
        assert pooled.count == expect
        assert pooled.stats.workers >= 1
        assert pooled.engine == "fringe-pool(x2)+frontier"

    def test_default_chunk_graph_runs_in_process(self, kron):
        # 64 vertices fit in one default 256-root chunk
        res = parallel_count(kron, catalog.diamond(), parallel=ParallelConfig(num_workers=2))
        assert res.count == count_subgraphs(kron, catalog.diamond()).count
        assert res.stats.workers == 0
        assert res.stats.backend == "frontier"
        assert res.engine == "fringe-frontier(max_rows=1048576) in-process(x1)"


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

    def test_count_with_engine_knobs_and_stats(self, tmp_path, capsys):
        from repro.cli import main
        from repro.parallel.workerpool import shutdown_default_pool

        # more vertices than one 256-vertex chunk, so the pool really runs
        big = gen.barabasi_albert(300, 4, seed=5)
        path = tmp_path / "big.el"
        path.write_text("\n".join(f"{u} {v}" for u, v in big.edge_array().tolist()) + "\n")
        try:
            code = main(
                [
                    "count",
                    "--graph", str(path),
                    "--pattern", "diamond",
                    "--engine", "general",
                    "--workers", "2",
                    "--batch-size", "512",
                    "--stats",
                ]
            )
        finally:
            shutdown_default_pool()
        assert code == 0
        out = capsys.readouterr().out
        expect = count_subgraphs(big, catalog.diamond()).count
        assert f"count    : {expect:,}" in out
        assert "fringe-pool(x2)+serial" in out
        assert "backend  : pool" in out
        assert "venn/fc" in out

    def test_count_stats_reports_cache_state(self, graph_file, capsys):
        from repro.cli import main

        args = ["count", "--graph", graph_file, "--pattern", "4-clique", "--stats"]
        main(args)
        main(args)  # same process-wide runtime: second call hits the cache
        out = capsys.readouterr().out
        assert "compiled" in out or "cache hit" in out
        assert "cache hit" in out.split("count    :")[-1]

    @pytest.mark.parametrize("pattern", ["4-clique", "5-clique"])
    def test_specialized_without_closed_form_is_a_one_line_error(
        self, graph_file, capsys, pattern
    ):
        from repro.cli import main

        code = main(["count", "--graph", graph_file, "--pattern", pattern,
                     "--engine", "specialized"])
        captured = capsys.readouterr()
        assert code != 0
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: no specialized engine for a")
        assert len(err.splitlines()) == 1

    def test_edge_core_count_never_imports_scipy_sparse(self, graph_file):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        # -X importtime logs every module the process imports to stderr
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "count",
             "--graph", graph_file, "--pattern", "triangle"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert "fringe-specialized(edge-core)" in proc.stdout
        assert "repro.core.specialized" in proc.stderr  # the log is complete
        assert "scipy.sparse" not in proc.stderr
        assert "repro.parallel" not in proc.stderr  # single-process count

    def test_count_reaching_the_rns_bound_never_imports_scipy(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # a 30-page book (spine 0-1, 30 common neighbours) and an edge with
        # 30 tails per end: the weights pass 2^52 and the spine's row is 0,
        # which the float pass counts exactly. A row whose float value
        # overflows (C(10^6, 150) > 2^2000) sizes its primes by the hard
        # log2 bound, which finds it beyond the prime pool.
        graph = tmp_path / "book.el"
        graph.write_text("0 1\n" + "".join(f"{e} {x}\n" for x in range(2, 32) for e in (0, 1)))
        script = (
            "import numpy as np\n"
            "from repro.cli import main\n"
            "from repro.core.fringe_poly import FringePolynomial as F\n"
            "from repro.core.fringe_poly import compile_fringe_polynomial\n"
            "calls, bound = [], F._total_log2_bound\n"
            "F._total_log2_bound = lambda poly, rows: calls.append(1) or bound(poly, rows)\n"
            f"main(['count', '--graph', {str(graph)!r}, '--pattern', 'edge + 30x0 + 30x1'])\n"
            "print('bound calls:', len(calls))\n"
            "try:\n"
            "    compile_fringe_polynomial([1], [150], 1).evaluate_batch(np.array([[0, 10**6]]))\n"
            "except OverflowError:\n"
            "    print('overflow, bound calls:', len(calls))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert "count    : 0" in proc.stdout
        assert "bound calls: 0" in proc.stdout
        assert "overflow, bound calls: 1" in proc.stdout
        assert "repro.core.fringe_poly" in proc.stderr  # the log is complete
        assert "scipy" not in proc.stderr
