"""Span recorder and per-layer wrappers for the traced benchmark run.

``install(recorder)`` replaces layer entry points *where their callers
look them up* (``repro.core.backends.venn_batch``, ``repro.runtime.plan_key``,
class attributes such as ``Runtime.count``) with timing wrappers, and
returns a function that restores the originals. Nothing in ``src/`` is
edited, and untraced runs never call ``install``.

A span is ``(name, start_ns, end_ns, span_id, parent_id, op_id)`` on the
system-wide monotonic clock, so spans recorded in the server, the CLI
children and the load generator line up. Spans stay in memory and are
written once, when the process ends. ``events`` are counts recorded at
the same boundaries (rows, cache hits, ...), tagged with the current op.

:func:`layer_metrics` turns the spans, events and the load generator's op
log into the per-layer metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import pickle
import statistics
import time
from collections import defaultdict

import numpy as np

_now = time.monotonic_ns

CUR = contextvars.ContextVar("perfbench_span", default=None)
OP = contextvars.ContextVar("perfbench_op", default=None)
# set inside plan.compile: compile evaluates the pattern on itself through
# the same kernels, which must not count as execution-layer work
SUPPRESS = contextvars.ContextVar("perfbench_suppress", default=False)

# (name, unit, better, layer, end-to-end metric/workload it should move)
PER_LAYER = [
    ("venn.batch_ms", "ms", "lower", "core.venn",
     "throughput_ops_s on inproc-frontier; latency_p90_ms on http-*; nothing on cli-oneshot"),
    ("venn.rows", "count", "lower", "core.venn", "as venn.batch_ms"),
    ("venn.gathered_keys", "count", "lower", "core.venn", "as venn.batch_ms"),
    ("venn.unique_anchor_share", "ratio", "higher", "core.venn", "as venn.batch_ms"),
    ("frontier.match_ms", "ms", "lower", "core.frontier",
     "throughput_ops_s, peak_rss_mb on inproc-frontier"),
    ("frontier.rows", "count", "lower", "core.frontier", "as frontier.match_ms"),
    ("frontier.peak_width", "count", "lower", "core.frontier", "as frontier.match_ms"),
    ("frontier.spills", "count", "lower", "core.frontier", "as frontier.match_ms"),
    ("fringe_poly.eval_ms", "ms", "lower", "core.fringe_poly",
     "throughput_ops_s on inproc-frontier"),
    ("fringe_poly.rows", "count", "lower", "core.fringe_poly", "as fringe_poly.eval_ms"),
    ("plan.key_ms", "ms", "lower", "core.plan",
     "latency_p50_ms on cli-oneshot; throughput_ops_s on http-*; setup_s everywhere"),
    ("plan.key_calls_per_op", "count", "lower", "core.plan", "as plan.key_ms"),
    ("plan.compile_ms", "ms", "lower", "core.plan", "as plan.key_ms"),
    ("plan.compiles", "count", "lower", "core.plan", "as plan.key_ms"),
    ("plan.normalize_ms", "ms", "lower", "core.plan", "as plan.key_ms"),
    ("specialized.call_ms.vertex-core", "ms", "lower", "core.specialized",
     "latency_p50_ms on http-thread"),
    ("specialized.call_ms.edge-core", "ms", "lower", "core.specialized",
     "latency_p50_ms on http-thread"),
    ("specialized.call_ms.3-core", "ms", "lower", "core.specialized",
     "latency_p50_ms on http-thread"),
    ("backends.run_ms", "ms", "lower", "core.backends", "latency_p50_ms on http-thread"),
    ("runtime.count_ms", "ms", "lower", "runtime", "latency_p50_ms on http-thread"),
    ("runtime.plan_cache_hit_ratio", "ratio", "higher", "runtime",
     "latency_p50_ms on http-thread"),
    ("workerpool.call_ms", "ms", "lower", "parallel.workerpool",
     "latency_p50_ms, throughput_ops_s, cpu_ms_per_op on http-pool; nothing on http-thread"),
    ("workerpool.wait_ms", "ms", "lower", "parallel.workerpool", "as workerpool.call_ms"),
    ("workerpool.busy_ms", "ms", "lower", "parallel.workerpool", "as workerpool.call_ms"),
    ("workerpool.overhead_ms", "ms", "lower", "parallel.workerpool", "as workerpool.call_ms"),
    ("workerpool.imbalance", "ratio", "lower", "parallel.workerpool", "as workerpool.call_ms"),
    ("workerpool.payload_bytes", "bytes", "lower", "parallel.workerpool",
     "as workerpool.call_ms"),
    ("workerpool.calls", "count", "lower", "parallel.workerpool", "as workerpool.call_ms"),
    ("shm.export_ms", "ms", "lower", "parallel.shm", "setup_s on http-pool"),
    ("service.submit_ms", "ms", "lower", "serve.service",
     "latency_p50_ms on http-thread and http-pool"),
    ("service.queue_wait_ms", "ms", "lower", "serve.service", "as service.submit_ms"),
    ("service.batch_size", "count", "higher", "serve.service", "as service.submit_ms"),
    ("service.result_cache_hit_ratio", "ratio", "higher", "serve.service",
     "as service.submit_ms"),
    ("http.roundtrip_ms", "ms", "lower", "serve.http", "as service.submit_ms"),
    ("http.overhead_ms", "ms", "lower", "serve.http", "as service.submit_ms"),
    ("io.load_ms", "ms", "lower", "graph.io", "latency_p50_ms on cli-oneshot; setup_s on http-*"),
    ("dsl.parse_ms", "ms", "lower", "patterns.dsl", "as io.load_ms"),
    ("cli.interpreter_ms", "ms", "lower", "cli", "as io.load_ms"),
    ("cli.import_ms", "ms", "lower", "cli", "as io.load_ms"),
    ("latency_p50_ms", "ms", "lower", "end to end (untraced half of the traced run)",
     "what serve/HTTP/runtime overhead on cheap requests moves on http-*"),
    ("latency_p90_ms", "ms", "lower", "end to end (untraced half of the traced run)",
     "what Venn/frontier/pool work on heavy requests moves on http-*"),
    ("trace.untraced_throughput_ops_s", "1/s", "higher", "benchmark",
     "reference for trace.overhead_pct"),
    ("trace.traced_throughput_ops_s", "1/s", "higher", "benchmark",
     "reference for trace.overhead_pct"),
    ("trace.overhead_pct", "%", "lower", "benchmark", "none: cost of the wrappers"),
]
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


class Recorder:
    """In-memory spans and events of one process."""

    def __init__(self, tag: str = ""):
        self.tag = tag
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self._ids = itertools.count(1)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def event(self, name: str, value: float) -> None:
        self.events.append((name, value, _now(), OP.get()))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tag": self.tag, "spans": self.spans, "events": self.events}, fh)


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "t0", "tok")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.sid = next(self.rec._ids)
        self.parent = CUR.get()
        self.tok = CUR.set(self.sid)
        self.t0 = _now()
        return self

    def __exit__(self, *exc):
        t1 = _now()
        CUR.reset(self.tok)
        self.rec.spans.append((self.name, self.t0, t1, self.sid, self.parent, OP.get()))
        return False


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _timed(rec: Recorder, name: str, fn, post=None, suppressible: bool = True):
    """Span around ``fn``; ``post(args, kwargs, result)`` records events
    inside an ``overhead`` span so its cost leaves the caller's self time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if suppressible and SUPPRESS.get():
            return fn(*args, **kwargs)
        with rec.span(name):
            result = fn(*args, **kwargs)
        if post is not None:
            with rec.span("overhead"):
                post(args, kwargs, result)
        return result

    return wrapper


def _anchor_keys(anchors: np.ndarray, n: int) -> np.ndarray | None:
    """One int64 key per row of sorted anchor ids (None if it would overflow)."""
    q = anchors.shape[1]
    if q == 0 or n ** q >= 1 << 62:
        return None
    srt = np.sort(anchors, axis=1)
    key = srt[:, 0].astype(np.int64)
    for j in range(1, q):
        key = key * n + srt[:, j]
    return key


def install(rec: Recorder):
    """Install every layer wrapper; returns ``uninstall()``."""
    import repro.cli as cli_mod
    import repro.core.backends as backends_mod
    import repro.core.venn as venn_mod
    import repro.graph.io as io_mod
    import repro.patterns.dsl as dsl_mod
    import repro.runtime as runtime_mod
    import repro.serve.http as http_mod
    import repro.serve.registry as registry_mod
    import repro.serve.service as service_mod
    from repro.core.fringe_poly import FringePolynomial
    from repro.core.plan import CountingPlan
    import repro.core.plan as plan_mod
    from repro.parallel.shm import ShmManager
    from repro.parallel.workerpool import WorkerPool
    from repro.runtime import Runtime
    from repro.serve.service import CountingService

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # --- core.venn ------------------------------------------------------
    # anchor sets seen so far by each recent op: the unique share is taken
    # over the whole op, the scope a deduplicating Venn could exploit
    seen: dict = {}

    def venn_post(args, kwargs, result):
        graph, anchors = args[0], args[1]
        if len(anchors) == 0:
            return
        rowptr = graph.rowptr
        rec.event("venn.rows", len(anchors))
        rec.event("venn.gathered_keys", int((rowptr[anchors + 1] - rowptr[anchors]).sum()))
        keys = _anchor_keys(anchors, graph.num_vertices)
        rows = keys.tolist() if keys is not None else map(tuple, np.sort(anchors, axis=1).tolist())
        op = OP.get()
        if op not in seen:
            while len(seen) >= 8:
                seen.pop(next(iter(seen)))
            seen[op] = set()
        before = len(seen[op])
        seen[op].update(rows)
        rec.event("venn.unique_anchor_sets", len(seen[op]) - before)

    venn = _timed(rec, "venn.batch", venn_mod.venn_batch, venn_post)
    patch(backends_mod, "venn_batch", venn)
    patch(venn_mod, "venn_batch", venn)  # ThreeCoreEngine imports it at call time

    # --- core.frontier (a generator: time each block it yields) ----------
    orig_blocks = backends_mod.iter_frontier_blocks

    @functools.wraps(orig_blocks)
    def frontier_blocks(*args, **kwargs):
        gen = orig_blocks(*args, **kwargs)
        if SUPPRESS.get():
            yield from gen
            return
        while True:
            with rec.span("frontier.match"):
                try:
                    block = next(gen)
                except StopIteration:
                    break
            yield block
        stats = kwargs.get("stats")
        if stats is not None:
            rec.event("frontier.rows", stats.rows)
            rec.event("frontier.peak_width", stats.peak_width)
            rec.event("frontier.spills", stats.spills)

    patch(backends_mod, "iter_frontier_blocks", frontier_blocks)

    # --- core.fringe_poly -------------------------------------------------
    patch(FringePolynomial, "evaluate_batch", _timed(
        rec, "fringe_poly.eval", FringePolynomial.evaluate_batch,
        lambda a, k, r: rec.event("fringe_poly.rows", len(a[1]))))

    # --- core.plan --------------------------------------------------------
    def key_post(a, k, r):
        rec.event("plan.key_calls", 1)

    patch(runtime_mod, "plan_key", _timed(rec, "plan.key", runtime_mod.plan_key, key_post,
                                          suppressible=False))
    patch(plan_mod, "plan_key", _timed(rec, "plan.key", plan_mod.plan_key, key_post,
                                       suppressible=False))
    orig_compile = runtime_mod.compile_pattern

    @functools.wraps(orig_compile)
    def compile_pattern(*args, **kwargs):
        tok = SUPPRESS.set(True)
        try:
            with rec.span("plan.compile"):
                result = orig_compile(*args, **kwargs)
        finally:
            SUPPRESS.reset(tok)
        rec.event("plan.compiles", 1)
        return result

    patch(runtime_mod, "compile_pattern", compile_pattern)
    patch(CountingPlan, "normalize", _timed(rec, "plan.normalize", CountingPlan.normalize))

    # --- core.specialized: time the engine object the plan hands out ----
    orig_special = CountingPlan.specialized_engine

    class _Special:
        def __init__(self, engine, kind):
            self._engine, self._kind, self.name = engine, kind, engine.name

        def __call__(self, graph):
            with rec.span(f"specialized.{self._kind}"):
                return self._engine(graph)

    @functools.wraps(orig_special)
    def specialized_engine(plan):
        if plan.specialized_kind is None:
            return None
        # the first call builds the engine (pattern-side work of this layer)
        with rec.span(f"specialized.{plan.specialized_kind}"):
            engine = orig_special(plan)
        return _Special(engine, plan.specialized_kind)

    patch(CountingPlan, "specialized_engine", specialized_engine)

    # --- core.backends / runtime ------------------------------------------
    orig_select = runtime_mod.select_backend

    class _Backend:
        def __init__(self, backend):
            self._backend, self.name = backend, backend.name

        def run(self, *args, **kwargs):
            with rec.span("backends.run"):
                return self._backend.run(*args, **kwargs)

    patch(runtime_mod, "select_backend",
          functools.wraps(orig_select)(lambda *a, **k: _Backend(orig_select(*a, **k))))
    patch(Runtime, "count", _timed(rec, "runtime.count", Runtime.count, suppressible=False))
    orig_plan_for = Runtime.plan_for

    @functools.wraps(orig_plan_for)
    def plan_for(self, *args, **kwargs):
        result = orig_plan_for(self, *args, **kwargs)
        rec.event("runtime.plan_hits", 1 if result[1] else 0)
        rec.event("runtime.plan_lookups", 1)
        return result

    patch(Runtime, "plan_for", plan_for)

    # --- parallel ---------------------------------------------------------
    payload_sizes: dict[int, int] = {}

    def pool_post(args, kwargs, partial):
        pool, plan = args[0], args[1]
        size = payload_sizes.get(id(plan))
        if size is None:
            size = len(pickle.dumps((plan, kwargs.get("inner")), pickle.HIGHEST_PROTOCOL))
            payload_sizes[id(plan)] = size
        rec.event("workerpool.calls", 1)
        rec.event("workerpool.payload_bytes", size * pool.num_workers)
        busy: dict[int, float] = defaultdict(float)
        for w in partial.workers:
            busy[w.pid] += w.elapsed_s
        if busy:
            rec.event("workerpool.busy_ms", 1e3 * sum(busy.values()))
            rec.event("workerpool.makespan_ms", 1e3 * max(busy.values()))
            rec.event("workerpool.imbalance",
                      max(busy.values()) / (sum(busy.values()) / len(busy)))

    patch(WorkerPool, "count", _timed(rec, "workerpool.call", WorkerPool.count, pool_post,
                                      suppressible=False))
    patch(ShmManager, "export", _timed(rec, "shm.export", ShmManager.export,
                                       suppressible=False))

    # --- serve -------------------------------------------------------------
    # submit() runs on the event loop; the count runs on an executor thread.
    # The request object links the two, so execute spans nest under submit.
    by_request: dict[int, tuple] = {}
    orig_submit = CountingService.submit

    @functools.wraps(orig_submit)
    async def submit(self, request):
        with rec.span("service.submit") as sp:
            by_request[id(request)] = (sp.sid, OP.get())
            try:
                return await orig_submit(self, request)
            finally:
                by_request.pop(id(request), None)

    patch(CountingService, "submit", submit)
    orig_execute = CountingService._execute_one

    @functools.wraps(orig_execute)
    def execute_one(self, entry, *args, **kwargs):
        parent, op = by_request.get(id(entry.request), (None, None))
        tok_cur, tok_op = CUR.set(parent), OP.set(op)
        try:
            rec.event("service.queue_wait_ms",
                      1e3 * (time.perf_counter() - entry.enqueued_at))
            with rec.span("service.execute"):
                return orig_execute(self, entry, *args, **kwargs)
        finally:
            CUR.reset(tok_cur)
            OP.reset(tok_op)

    patch(CountingService, "_execute_one", execute_one)
    orig_group = CountingService._execute_group

    @functools.wraps(orig_group)
    def execute_group(self, items):
        rec.event("service.batch_size", len(items))
        return orig_group(self, items)

    patch(CountingService, "_execute_group", execute_group)
    orig_cache_get = CountingService._cache_get

    @functools.wraps(orig_cache_get)
    def cache_get(self, key):
        hit = orig_cache_get(self, key)
        rec.event("service.cache_hits", 0 if hit is None else 1)
        rec.event("service.cache_lookups", 1)
        return hit

    patch(CountingService, "_cache_get", cache_get)
    orig_handle = http_mod._handle_count

    @functools.wraps(orig_handle)
    async def handle_count(service, body):
        try:
            op = json.loads(body).get("bench_op")
        except (ValueError, AttributeError):
            op = None
        tok = OP.set(op)
        try:
            with rec.span("http.handle"):
                return await orig_handle(service, body)
        finally:
            OP.reset(tok)

    patch(http_mod, "_handle_count", handle_count)

    # --- graph io / pattern dsl (every module that looks them up) ---------
    for mod in (registry_mod, cli_mod, io_mod):
        patch(mod, "load_graph", _timed(rec, "io.load", mod.load_graph, suppressible=False))
    for mod in (service_mod, cli_mod, dsl_mod):
        patch(mod, "parse_pattern", _timed(rec, "dsl.parse", mod.parse_pattern,
                                           suppressible=False))

    def uninstall():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return uninstall


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans: list) -> list[tuple]:
    """``(name, op, self_ms, duration_ms, start_ns, end_ns)`` per span.

    Self time is the span's duration minus the union of its children's
    intervals (children may run on other threads, e.g. an executor).
    """
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[1], s[2]))
    out = []
    for name, t0, t1, sid, _parent, op in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((name, op, (t1 - t0 - covered) / 1e6, (t1 - t0) / 1e6, t0, t1))
    return out


def _pool_waits(spans: list) -> dict:
    """Per pool call: overlap with earlier calls (the pool runs one call
    at a time, so that overlap is time spent waiting for the pool)."""
    calls = sorted((s for s in spans if s[0] == "workerpool.call"), key=lambda s: s[1])
    waits = {}
    busy_until = None
    for s in calls:
        wait = 0 if busy_until is None else max(0, min(busy_until, s[2]) - s[1])
        waits[(s[3], s[1])] = wait / 1e6
        busy_until = s[2] if busy_until is None else max(busy_until, s[2])
    return waits


def layer_metrics(traces: list[dict], oplog: list[dict], mix_kinds: list[str],
                  window: tuple[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics from every process's trace and the op log.

    ``oplog`` rows carry ``op`` (id), ``kind``, ``counted`` (part of a
    measured pass) and, for HTTP, ``roundtrip_ms`` / ``coalesced``.
    Per-op values are summed per op, reduced per op kind by the median,
    and combined over the mix (each kind once per pass): ``*_ms`` metrics
    are mix-weighted means per op, counts are totals per pass. The layers
    that may run only while setting up (graph load, pattern parse, plan
    compile, shm export) report the per-op mean where the measured ops
    run them, and otherwise their total over the traced set-up (which
    loads every graph and compiles every plan of the mix once). Returns
    (metrics, per-op values); the latter feeds the mechanism checks.
    """
    counted = {o["op"]: o for o in oplog if o["counted"]}
    per_op: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    in_setup: dict[str, float] = defaultdict(float)
    imbalance: list[float] = []
    batch_sizes: list[float] = []
    for tr in traces:
        spans = [tuple(s) for s in tr["spans"]]
        waits = _pool_waits(spans)
        for s, (name, op, self_ms, dur_ms, t0, t1) in zip(spans, self_times(spans)):
            if op is None or op < 0:  # set-up: before the loop or warm pass
                in_setup[name] += self_ms
            if op not in counted:
                continue
            vals = per_op[op]
            vals[name] += self_ms
            if name == "workerpool.call":
                vals["workerpool.wait"] += waits[(s[3], s[1])]
                vals["workerpool.call_total"] += dur_ms
            elif name == "http.handle":
                vals["http.handle_total"] += dur_ms
        for name, value, t, op in tr["events"]:
            if name == "service.batch_size":
                if window[0] <= t <= window[1]:
                    batch_sizes.append(value)
                continue
            if op not in counted:
                continue
            if name == "workerpool.imbalance":
                imbalance.append(value)
            elif name == "frontier.peak_width":
                per_op[op][name] = max(per_op[op][name], value)
            else:
                per_op[op][name] += value
    for op, row in counted.items():
        if "roundtrip_ms" in row:
            per_op[op]["http.roundtrip"] = row["roundtrip_ms"]
            per_op[op]["http.overhead"] = row["roundtrip_ms"] - per_op[op]["http.handle_total"]
        v = per_op[op]
        v["workerpool.overhead"] = (v["workerpool.call_total"] - v["workerpool.wait"]
                                    - v["workerpool.makespan_ms"])

    by_kind: dict[str, list] = defaultdict(list)
    for op, row in counted.items():
        by_kind[row["kind"]].append(op)

    def per_pass(key: str) -> float:
        """Σ over the mix's kinds of the median per-op value of ``key``."""
        total = 0.0
        for kind in mix_kinds:
            ops = by_kind.get(kind)
            if ops:
                total += statistics.median(per_op[o].get(key, 0.0) for o in ops)
        return total

    n = len(mix_kinds)

    def per_op_mean(key: str) -> float:
        return per_pass(key) / n

    def ratio(num: str, den: str) -> float:
        d = per_pass(den)
        return per_pass(num) / d if d else 0.0

    def op_or_setup(name: str) -> float:
        return per_op_mean(name) or in_setup[name]

    m = {
        "venn.batch_ms": per_op_mean("venn.batch"),
        "venn.rows": per_pass("venn.rows"),
        "venn.gathered_keys": per_pass("venn.gathered_keys"),
        "venn.unique_anchor_share": ratio("venn.unique_anchor_sets", "venn.rows"),
        "frontier.match_ms": per_op_mean("frontier.match"),
        "frontier.rows": per_pass("frontier.rows"),
        "frontier.peak_width": max(
            (per_op[o].get("frontier.peak_width", 0.0) for o in counted), default=0.0),
        "frontier.spills": per_pass("frontier.spills"),
        "fringe_poly.eval_ms": per_op_mean("fringe_poly.eval"),
        "fringe_poly.rows": per_pass("fringe_poly.rows"),
        "plan.key_ms": per_op_mean("plan.key"),
        "plan.key_calls_per_op": per_op_mean("plan.key_calls"),
        "plan.compile_ms": op_or_setup("plan.compile"),
        "plan.compiles": per_pass("plan.compiles"),
        "plan.normalize_ms": per_op_mean("plan.normalize"),
        "specialized.call_ms.vertex-core": per_op_mean("specialized.vertex-core"),
        "specialized.call_ms.edge-core": per_op_mean("specialized.edge-core"),
        "specialized.call_ms.3-core": per_op_mean("specialized.3-core"),
        "backends.run_ms": per_op_mean("backends.run"),
        "runtime.count_ms": per_op_mean("runtime.count"),
        "runtime.plan_cache_hit_ratio": ratio("runtime.plan_hits", "runtime.plan_lookups"),
        "workerpool.call_ms": per_op_mean("workerpool.call_total"),
        "workerpool.wait_ms": per_op_mean("workerpool.wait"),
        "workerpool.busy_ms": per_op_mean("workerpool.busy_ms"),
        "workerpool.overhead_ms": per_op_mean("workerpool.overhead"),
        "workerpool.imbalance": statistics.median(imbalance) if imbalance else 0.0,
        "workerpool.payload_bytes": per_pass("workerpool.payload_bytes"),
        "workerpool.calls": per_pass("workerpool.calls"),
        "shm.export_ms": op_or_setup("shm.export"),
        "service.submit_ms": per_op_mean("service.submit"),
        "service.queue_wait_ms": per_op_mean("service.queue_wait_ms"),
        "service.batch_size": statistics.fmean(batch_sizes) if batch_sizes else 0.0,
        "service.result_cache_hit_ratio": ratio("service.cache_hits", "service.cache_lookups"),
        "http.roundtrip_ms": per_op_mean("http.roundtrip"),
        "http.overhead_ms": per_op_mean("http.overhead"),
        "io.load_ms": op_or_setup("io.load"),
        "dsl.parse_ms": op_or_setup("dsl.parse"),
    }
    return m, {op: dict(v) for op, v in per_op.items()}
