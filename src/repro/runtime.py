"""The Runtime layer: plan caching + execution routing + statistics.

The paper's system amortizes all pattern-side work ahead of time and
reuses it across inputs; :class:`Runtime` is the front door that makes
the amortization automatic for a *serving* workload. It holds an LRU
cache of compiled :class:`~repro.core.plan.CountingPlan` artifacts keyed
by :func:`~repro.core.plan.plan_key` (canonical pattern form + config),
routes each call engine first and substrate second (a closed-form
specialized engine always runs on the calling thread; only matcher work
— frontier or serial — goes to the persistent worker pool), owns the
pool's lifecycle (lazy start on first use, :meth:`Runtime.close`,
``atexit``), and reports per-call
:class:`~repro.core.engine.ExecutionStats` — compile vs. match vs.
Venn/fc time, batch flushes, and plan-cache hit/miss counters — on
``CountResult.stats``.

``count_subgraphs`` and ``parallel_count`` are thin wrappers over the
process-wide :func:`get_runtime` instance, so every caller (CLI,
benchmarks, library users) shares one plan cache.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from . import obs
from .core.backends import select_backend
from .core.engine import ENGINES, CountResult, EngineConfig, ExecutionStats
from .core.plan import CountingPlan, compile_pattern, plan_key
from .graph.csr import CSRGraph
from .patterns.decompose import Decomposition
from .patterns.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover
    from .parallel.pool import ParallelConfig

__all__ = ["Runtime", "RuntimeStats", "get_runtime", "set_runtime"]


@dataclass
class RuntimeStats:
    """Cumulative counters for one Runtime instance.

    Mutable and written under ``Runtime._lock``; read a consistent copy
    via :meth:`Runtime.stats_snapshot` rather than the live object when
    other threads may be counting. ``compile_races`` counts plan-cache
    misses where a concurrent thread compiled and stored the same key
    first — those calls are served the winner's plan and recorded as
    hits, so hit-ratio metrics stay truthful.
    """

    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    compile_s: float = 0.0  # total time spent compiling patterns
    compile_races: int = 0  # lost compile races (served the winner's plan)
    counts_served: int = 0

    def snapshot(self) -> "RuntimeStats":
        return replace(self)


class Runtime:
    """Serving front door: LRU plan cache + backend routing + stats.

    ``max_plans`` bounds the cache (least-recently-used eviction). The
    cache is guarded by a lock, so one Runtime can serve many threads;
    compiled plans are immutable and safely shared.

    ``observer`` optionally attaches a :class:`repro.obs.Observer`: every
    :meth:`count` then runs with that observer active, collecting spans
    (compile → execute → venn/fc) and metrics without any global state.
    """

    def __init__(self, max_plans: int = 128, observer: "obs.Observer | None" = None):
        if max_plans < 1:
            raise ValueError("max_plans must be positive")
        self.max_plans = max_plans
        self.observer = observer
        self.stats = RuntimeStats()
        self._plans: OrderedDict[tuple, CountingPlan] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def plan_for(
        self, pattern: Pattern, config: EngineConfig | None = None
    ) -> tuple[CountingPlan, bool, float]:
        """(plan, cache_hit, compile_seconds) for a pattern + config.

        A hit returns the identical cached object and spends no compile
        time; a miss compiles, stores, and possibly evicts the LRU entry.
        """
        cfg = config or EngineConfig()
        key = plan_key(pattern, cfg)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.plan_cache_hits += 1
                self._record_cache_metrics()
                return plan, True, 0.0
        # compile outside the lock: compilation can be expensive and two
        # racing compiles of the same key are idempotent
        t0 = time.perf_counter()
        with obs.span("compile", pattern_vertices=pattern.n):
            plan = compile_pattern(pattern, cfg)
        compile_s = time.perf_counter() - t0
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                # lost the race: another thread compiled and stored this
                # key while we were compiling. Serve the winner's plan
                # (preserving the hit-returns-the-identical-object
                # invariant) and account it as a hit-after-race so the
                # cache hit ratio stays truthful.
                self._plans.move_to_end(key)
                self.stats.plan_cache_hits += 1
                self.stats.compile_races += 1
                self._record_cache_metrics()
                return existing, True, compile_s
            self.stats.plan_cache_misses += 1
            self.stats.compile_s += compile_s
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.stats.plan_cache_evictions += 1
            self._record_cache_metrics()
        obs.observe("repro_compile_seconds", compile_s)
        return plan, False, compile_s

    def _record_cache_metrics(self) -> None:
        """Mirror plan-cache counters into the active registry (if any).

        Called with ``_lock`` held — reads are consistent, and the gauge
        writes only touch the observer's own lock.
        """
        registry = obs.active_metrics()
        if registry is None:
            return
        s = self.stats
        registry.gauge("repro_plan_cache_hits").set(s.plan_cache_hits)
        registry.gauge("repro_plan_cache_misses").set(s.plan_cache_misses)
        registry.gauge("repro_plan_cache_evictions").set(s.plan_cache_evictions)
        registry.gauge("repro_plan_compile_races").set(s.compile_races)
        total = s.plan_cache_hits + s.plan_cache_misses
        registry.gauge("repro_plan_cache_hit_ratio").set(
            s.plan_cache_hits / total if total else 0.0
        )

    def result_cache_key(
        self,
        graph: CSRGraph,
        pattern: Pattern,
        config: EngineConfig | None = None,
        *,
        engine: str = "auto",
    ) -> tuple:
        """Canonical key for caching a *count result* across calls.

        ``(graph content fingerprint, plan key, engine)`` — two requests
        share a key iff they are guaranteed the same count: same graph
        bytes (via :meth:`CSRGraph.fingerprint`), isomorphic pattern under
        the same config (via :func:`plan_key`), same engine selection.
        ``repro.serve`` uses this for request coalescing and its result
        cache; it is exposed here so every caching layer agrees on one
        key construction.
        """
        cfg = config or EngineConfig()
        return (graph.fingerprint(), plan_key(pattern, cfg), engine)

    def cache_info(self) -> dict:
        with self._lock:
            return {
                "size": len(self._plans),
                "max_plans": self.max_plans,
                "hits": self.stats.plan_cache_hits,
                "misses": self.stats.plan_cache_misses,
                "evictions": self.stats.plan_cache_evictions,
                "compile_races": self.stats.compile_races,
            }

    def stats_snapshot(self) -> RuntimeStats:
        """A consistent copy of the cumulative counters (lock-protected)."""
        with self._lock:
            return self.stats.snapshot()

    def clear_cache(self) -> None:
        with self._lock:
            self._plans.clear()

    def close(self) -> None:
        """Release execution resources owned through this runtime.

        Shuts down the process-wide persistent worker pool (the next
        count with a multi-worker ``ParallelConfig`` restarts it). The
        plan cache is left intact — plans are cheap, workers are not.
        An ``atexit`` hook performs the same sweep, so calling this is
        only needed to reclaim workers early (e.g. between test suites).
        """
        from .parallel.workerpool import shutdown_default_pool

        shutdown_default_pool()

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def count(
        self,
        graph: CSRGraph,
        pattern: Pattern,
        *,
        engine: str = "auto",
        config: EngineConfig | None = None,
        parallel: "ParallelConfig | None" = None,
        decomposition: Decomposition | None = None,
        start_vertices: Sequence[int] | None = None,
    ) -> CountResult:
        """Count ``pattern`` in ``graph`` through the cached-plan pipeline.

        Same semantics as the historical ``count_subgraphs`` /
        ``parallel_count`` entry points (which now wrap this method).
        The engine is settled first, from plan data: ``auto`` takes the
        closed form for a 1-/2-vertex core and the frontier matcher
        otherwise; ``specialized`` requires the closed form and raises
        ``ValueError`` for a core of three or more vertices; ``general``
        is the serial oracle and ``frontier`` the frontier matcher.
        ``parallel`` then decides whether *matcher* work runs on the
        persistent worker pool; closed forms run on the calling thread
        whatever it says. ``CountResult.engine`` and
        ``ExecutionStats.backend`` name the route that actually ran. A
        call with an explicit ``decomposition`` compiles a fresh plan and
        bypasses the cache — the cache key cannot see the core choice.
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        with self.observer if self.observer is not None else contextlib.nullcontext():
            return self._count(
                graph,
                pattern,
                engine=engine,
                config=config,
                parallel=parallel,
                decomposition=decomposition,
                start_vertices=start_vertices,
            )

    def _count(
        self,
        graph: CSRGraph,
        pattern: Pattern,
        *,
        engine: str,
        config: EngineConfig | None,
        parallel: "ParallelConfig | None",
        decomposition: Decomposition | None,
        start_vertices: Sequence[int] | None,
    ) -> CountResult:
        cfg = config or EngineConfig()
        with self._lock:
            self.stats.counts_served += 1
        with obs.span("count", pattern_vertices=pattern.n, engine=engine):
            result = self._count_inner(
                graph, pattern, engine, cfg, parallel, decomposition, start_vertices
            )
        registry = obs.active_metrics()
        if registry is not None:
            registry.counter("repro_counts_total").inc()
            registry.histogram("repro_count_latency_seconds").observe(result.elapsed_s)
            if result.elapsed_s > 0:
                registry.gauge("repro_edges_per_second").set(
                    graph.num_edges / result.elapsed_s
                )
        return result

    def _count_inner(
        self,
        graph: CSRGraph,
        pattern: Pattern,
        engine: str,
        cfg: EngineConfig,
        parallel: "ParallelConfig | None",
        decomposition: Decomposition | None,
        start_vertices: Sequence[int] | None,
    ) -> CountResult:
        if decomposition is not None:
            t0 = time.perf_counter()
            with obs.span("compile", pattern_vertices=pattern.n, cached=False):
                plan = compile_pattern(pattern, cfg, decomposition=decomposition)
            hit, compile_s = False, time.perf_counter() - t0
        else:
            plan, hit, compile_s = self.plan_for(pattern, cfg)

        # engine first: a closed form runs here, on the calling thread, and
        # only matcher work ever reaches the worker pool
        route = _resolve_route(engine, plan, start_vertices)
        closed = route == plan.specialized_kind
        t0 = time.perf_counter()
        if closed:
            runner = plan.specialized_engine()
            with obs.span("execute", backend=runner.name):
                partial = runner(graph)
        else:  # substrate second
            runner = select_backend(parallel, route)
            with obs.span("execute", backend=runner.name):
                partial = runner.run(plan, graph, start_vertices=start_vertices)
        execute_s = time.perf_counter() - t0
        value = plan.normalize(partial.sigma, context="parallel count" if parallel else "count")
        # the pool backend falls back to its inner matcher in-process for
        # small graphs; only worker records prove the workers ran
        pooled = bool(partial.workers)
        return CountResult(
            count=value,
            pattern=pattern,
            core_matches=partial.matches,
            elapsed_s=execute_s,
            engine=_engine_label(route, cfg, parallel, pooled=pooled),
            decomposition=plan.decomp,
            stats=self._stats(
                plan_hit=hit,
                compile_s=compile_s,
                backend=runner.name if closed or pooled else route,
                execute_s=execute_s,
                match_s=partial.match_s,
                venn_fc_s=partial.venn_fc_s,
                batches=partial.batches,
                workers=len({w.pid for w in partial.workers}),
            ),
        )

    # ------------------------------------------------------------------
    def _stats(
        self,
        *,
        plan_hit: bool,
        compile_s: float,
        backend: str,
        execute_s: float = 0.0,
        match_s: float = 0.0,
        venn_fc_s: float = 0.0,
        batches: int = 0,
        workers: int = 0,
    ) -> ExecutionStats:
        with self._lock:
            cache_hits = self.stats.plan_cache_hits
            cache_misses = self.stats.plan_cache_misses
        return ExecutionStats(
            backend=backend,
            plan_cache_hit=plan_hit,
            compile_s=compile_s,
            execute_s=execute_s,
            match_s=match_s,
            venn_fc_s=venn_fc_s,
            batches_flushed=batches,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            workers=workers,
        )


# ----------------------------------------------------------------------
# routing: engine first, substrate second
# ----------------------------------------------------------------------
def _resolve_route(
    engine: str, plan: CountingPlan, start_vertices: Sequence[int] | None
) -> str:
    """The concrete route of one count, decided from plan data alone.

    Returns the plan's closed-form kind (``plan.specialized_kind``) or a
    matcher backend name (``"frontier"``, ``"serial"``). Closed forms
    are whole-graph formulas that run on the calling thread whatever
    ``parallel`` says; ``parallel`` only decides where matcher work
    runs. A start-vertex slice always takes a matcher.
    """
    if engine == "frontier":
        return "frontier"
    if engine == "general":
        return "serial"
    if start_vertices is not None:
        return "frontier"
    kind = plan.specialized_kind
    if engine == "specialized" and kind is None:
        raise ValueError(f"no specialized engine for a {plan.decomp.num_core}-vertex core")
    return kind or "frontier"


def _engine_label(
    route: str,
    cfg: EngineConfig,
    parallel: "ParallelConfig | None" = None,
    *,
    pooled: bool = False,
) -> str:
    """The ``CountResult.engine`` string of the route that actually ran.

    A pool label (``fringe-pool(x2)+frontier``) appears only when
    worker processes did the work; a ``parallel`` request that ran on the
    calling thread says so with ``in-process(x1)``.
    """
    if pooled:
        return f"fringe-pool(x{parallel.num_workers})+{route}"
    if route == "frontier":
        label = f"fringe-frontier(max_rows={cfg.max_frontier_rows})"
    elif route == "serial":
        label = "fringe-general"
    else:  # a closed-form kind
        label = f"fringe-specialized({route})"
    return label if parallel is None else f"{label} in-process(x1)"


# ----------------------------------------------------------------------
# process-wide default runtime
# ----------------------------------------------------------------------
_default_runtime: Runtime | None = None
_default_lock = threading.Lock()


def get_runtime() -> Runtime:
    """The process-wide Runtime shared by count_subgraphs / the CLI."""
    global _default_runtime
    if _default_runtime is None:
        with _default_lock:
            if _default_runtime is None:
                _default_runtime = Runtime()
    return _default_runtime


def set_runtime(runtime: Runtime | None) -> Runtime | None:
    """Swap the process-wide Runtime (tests use this); returns the old one."""
    global _default_runtime
    with _default_lock:
        old, _default_runtime = _default_runtime, runtime
    return old
