"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``count``
    Count a pattern in a graph::

        python -m repro count --graph web.el --pattern "triangle + 2x0"
        python -m repro count --dataset kron_g500-logn20 --pattern 4-star
        python -m repro count --dataset internet --pattern fig4 --engine general

    Engine knobs and the parallel path are reachable without writing
    Python: ``--workers N`` runs matcher work on the persistent worker
    pool (closed forms stay in-process),
    ``--batch-size/--max-frontier-rows`` size the frontier engine's work, and
    ``--stats`` prints the runtime's per-stage breakdown
    (compile vs. match vs. venn/fc time, plan-cache hits/misses)::

        python -m repro count --dataset internet --pattern 4-cycle \
            --workers 8 --stats

    Observability (``repro.obs``): ``--trace FILE`` writes a JSONL span
    trace of the run (compile → execute → per-batch venn/fc),
    ``--metrics`` prints the collected metrics table, and ``--prom FILE``
    dumps them in Prometheus text format::

        python -m repro count --dataset internet --pattern diamond \
            --engine general --trace trace.jsonl --metrics --prom metrics.prom

``decompose``
    Show a pattern's core/fringe decomposition and matching order::

        python -m repro decompose --pattern "edge + 3x0&1 + 2x0"

``list-cores``
    Subgraph-matching mode (§2): stream core locations with their
    surrounding pattern mass::

        python -m repro list-cores --dataset internet --pattern diamond --top 10

``signatures``
    Per-vertex graphlet-degree signatures, printed or as CSV::

        python -m repro signatures --dataset internet --out sig.csv

``serve``
    Boot the asyncio counting service (``repro.serve``) over named
    graphs — dynamic batching, request coalescing, result caching,
    admission control::

        python -m repro serve --dataset internet --dataset amazon0601 --port 8765
        python -m repro serve --graph web.el --max-queue 256 --cache-ttl 600

``query``
    Query a running server with the blocking client::

        python -m repro query --graph-name internet --pattern triangle
        python -m repro query --graph-name internet --pattern diamond --timeout 5 --json

``datasets``
    List the built-in Table 1 dataset stand-ins.
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.engine import ENGINES, EngineConfig
from .graph.io import load_graph
from .patterns.decompose import decompose
from .patterns.dsl import parse_pattern, pattern_names

__all__ = ["build_parser", "main"]


def _load_graph(args):
    if args.graph and args.dataset:
        raise SystemExit("give either --graph FILE or --dataset NAME, not both")
    if args.graph:
        graph, name = load_graph(args.graph), args.graph
    elif args.dataset:
        from .graph import datasets

        graph, name = datasets.make(args.dataset, args.scale), args.dataset
    else:
        raise SystemExit("a graph is required: --graph FILE or --dataset NAME")
    if getattr(args, "relabel_degree", False):
        graph = graph.relabel_by_degree()
    return graph, name


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph file (.el/.txt/.mtx/.gr/.npz)")
    p.add_argument("--dataset", help="built-in dataset name (see `datasets`)")
    p.add_argument("--scale", default="small", choices=["tiny", "small", "large"])
    p.add_argument("--relabel-degree", action="store_true",
                   help="renumber vertices by descending degree before counting "
                        "(counts are invariant; improves chunk load balance)")


def _run_with_timeout(fn, timeout: float | None):
    """``fn()``, or None when ``timeout`` seconds pass first.

    The same Deadline machinery the serve pipeline uses. Counting is not
    cooperatively cancellable, so with a timeout the count runs on a
    daemon thread and an expired deadline abandons it for a clean exit;
    an exception from ``fn`` is re-raised on the calling thread.
    """
    if timeout is None:
        return fn()
    import threading

    from .serve.protocol import Deadline

    if timeout <= 0:
        raise SystemExit("--timeout must be positive")
    deadline = Deadline.after(timeout)
    box: dict = {}

    def work():
        try:
            box["res"] = fn()
        except BaseException as exc:  # re-raised on the main thread
            box["err"] = exc

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(deadline.remaining())
    if worker.is_alive():
        return None
    if "err" in box:
        raise box["err"]
    return box["res"]


def _cmd_count(args) -> int:
    from contextlib import nullcontext

    from . import obs
    from .runtime import get_runtime

    graph, gname = _load_graph(args)
    pattern = parse_pattern(args.pattern)
    cfg = EngineConfig(
        batch_size=args.batch_size,
        max_frontier_rows=args.max_frontier_rows,
    )
    parallel = None
    if args.workers > 1:
        from .parallel.pool import ParallelConfig

        parallel = ParallelConfig(num_workers=args.workers)
    observer = (
        obs.Observer(trace=bool(args.trace), metrics=bool(args.metrics or args.prom))
        if (args.trace or args.metrics or args.prom)
        else None
    )
    runtime = get_runtime()

    def run_count():
        with observer if observer is not None else nullcontext():
            return runtime.count(
                graph, pattern, engine=args.engine, config=cfg, parallel=parallel
            )

    t0 = time.perf_counter()
    try:
        res = _run_with_timeout(run_count, args.timeout)
    except ValueError as exc:  # a request the runtime refuses, e.g. no closed form
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if res is None:
        from .serve.protocol import DEADLINE_EXCEEDED

        print(
            f"error: {DEADLINE_EXCEEDED}: count did not finish within "
            f"{args.timeout:g} s",
            file=sys.stderr,
        )
        return 124
    dt = time.perf_counter() - t0
    print(f"graph    : {gname} ({graph.num_vertices:,} vertices, {graph.num_edges:,} edges)")
    print(f"pattern  : {args.pattern} ({pattern.n} vertices, {pattern.num_edges} edges)")
    print(f"count    : {res.count:,}")
    print(f"engine   : {res.engine}")
    print(f"time     : {dt:.3f} s  ({graph.num_edges / dt:,.0f} edges/s)")
    if args.stats and res.stats is not None:
        s = res.stats
        print(f"backend  : {s.backend}")
        print(f"plan     : {'cache hit' if s.plan_cache_hit else 'compiled'} "
              f"(compile {s.compile_s*1e3:.2f} ms; runtime cache "
              f"{s.cache_hits} hits / {s.cache_misses} misses)")
        print(f"execute  : {s.execute_s*1e3:.2f} ms  "
              f"(match {s.match_s*1e3:.2f} ms, venn/fc {s.venn_fc_s*1e3:.2f} ms, "
              f"{s.batches_flushed} batches)")
        if s.workers:
            print(f"workers  : {s.workers} processes")
    if observer is not None:
        if args.trace:
            n = obs.write_trace_jsonl(observer.tracer, args.trace)
            print(f"trace    : {n} spans -> {args.trace}")
        if args.prom:
            from pathlib import Path

            Path(args.prom).write_text(
                obs.prometheus_text(observer.metrics), encoding="utf-8"
            )
            print(f"prom     : metrics -> {args.prom}")
        if args.metrics:
            print("metrics  :")
            for line in obs.metrics_table(observer.metrics).splitlines():
                print(f"  {line}")
    return 0


def _cmd_decompose(args) -> int:
    pattern = parse_pattern(args.pattern)
    d = decompose(pattern)
    print(f"pattern      : {pattern.n} vertices, {pattern.num_edges} edges")
    print(f"core         : {list(d.core_vertices)} ({d.core_pattern.num_edges} core edges)")
    print(f"matching ord.: {list(d.matching_order)} (core-local ids)")
    kinds = {1: "tail", 2: "wedge", 3: "tri-fringe"}
    for ft in d.fringe_types:
        kind = kinds.get(ft.arity, f"{ft.arity}-anchor")
        print(f"fringe type  : {ft.count} x {kind} anchored at {sorted(ft.anchors)}")
    print(f"q (anchored) : {d.q}")
    return 0


def _cmd_list_cores(args) -> int:
    from .core.listing import top_cores

    graph, gname = _load_graph(args)
    pattern = parse_pattern(args.pattern)
    print(f"top {args.top} core placements of {args.pattern!r} in {gname}:")
    for m in top_cores(graph, pattern, args.top):
        frac = float(m.embeddings)
        print(f"  core={list(m.vertices)}  embeddings≈{frac:,.1f}  (raw choices {m.raw_choices:,})")
    return 0


def _cmd_signatures(args) -> int:
    from .core.signatures import SIGNATURE_COLUMNS, signature_matrix

    graph, gname = _load_graph(args)
    mat = signature_matrix(graph)
    if args.out:
        import csv

        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("vertex",) + SIGNATURE_COLUMNS)
            for v in range(graph.num_vertices):
                writer.writerow([v] + [int(x) for x in mat[v]])
        print(f"wrote {graph.num_vertices} signatures to {args.out}")
        return 0
    header = f"{'vertex':>8}" + "".join(f"{c:>14}" for c in SIGNATURE_COLUMNS)
    print(header)
    order = mat[:, 0].argsort()[::-1][: args.top]
    for v in order.tolist():
        print(f"{v:>8}" + "".join(f"{int(x):>14,}" for x in mat[v]))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import CountingService, GraphRegistry, ServiceConfig
    from .serve.http import serve_forever

    if not args.dataset and not args.graph:
        raise SystemExit("register at least one graph: --dataset NAME and/or --graph FILE")
    registry = GraphRegistry()

    def loaded(entry):
        if args.relabel_degree:
            entry = registry.register(
                entry.name,
                entry.graph.relabel_by_degree(),
                source=f"{entry.source}:relabel-degree",
            )
        print(f"loaded  : {entry.name} ({entry.graph.num_vertices:,} vertices, "
              f"{entry.graph.num_edges:,} edges) from {entry.source}")

    for name in args.dataset or []:
        loaded(registry.load_dataset(name, args.scale))
    for path in args.graph or []:
        loaded(registry.load_file(path))
    config = ServiceConfig(
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window,
        executor_workers=args.executor_workers,
        executor="pool" if args.pool == "persistent" else "thread",
        pool_workers=args.pool_workers,
        result_cache_size=args.cache_size,
        result_cache_ttl_s=args.cache_ttl,
        default_timeout_s=args.default_timeout,
    )
    service = CountingService(registry, config=config)

    def on_bound(addr):
        print(f"serving : http://{addr[0]}:{addr[1]}  "
              f"(POST /v1/count, GET /v1/healthz, GET /v1/metrics)")

    try:
        asyncio.run(serve_forever(service, args.host, args.port, on_bound=on_bound))
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_query(args) -> int:
    import json as _json

    from .serve.client import CountClient, ServeClientError

    client = CountClient(args.host, args.port, timeout=args.client_timeout)
    try:
        res = client.count(
            args.graph_name,
            args.pattern,
            engine=args.engine,
            timeout_s=args.timeout,
            use_cache=not args.no_cache,
        )
    except ServeClientError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(res.to_json(), sort_keys=True))
        return 0
    print(f"graph    : {res.graph} (fingerprint {res.fingerprint[:12]})")
    print(f"pattern  : {res.pattern}")
    print(f"count    : {res.count:,}")
    print(f"engine   : {res.engine}")
    served = "result cache" if res.cached else (
        "coalesced with an in-flight query" if res.coalesced else
        f"executed (batch of {res.batch_size})"
    )
    print(f"served   : {served}")
    print(f"time     : {res.elapsed_s:.3f} s server-side")
    return 0


def _cmd_datasets(_args) -> int:
    from .graph import datasets

    print(f"{'name':<20}{'type':<24}{'source':<8}{'paper |V|':>12}{'paper |E|':>14}")
    for spec in datasets.DATASETS.values():
        print(
            f"{spec.name:<20}{spec.kind:<24}{spec.source:<8}"
            f"{spec.paper_vertices:>12,}{spec.paper_edges:>14,}"
        )
    print("\npattern names:", ", ".join(pattern_names()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per command."""
    parser = argparse.ArgumentParser(prog="repro", description="Fringe-SGC subgraph counting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count a pattern in a graph")
    _add_graph_args(p)
    p.add_argument("--pattern", required=True, help="pattern expression (DSL)")
    p.add_argument("--engine", default="auto", choices=ENGINES)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (>1 runs matcher work on the "
                        "persistent shared-memory worker pool)")
    p.add_argument("--batch-size", type=int, default=4096,
                   help="rows per vectorized Venn + polynomial chunk")
    p.add_argument("--max-frontier-rows", type=int, default=1 << 20,
                   help="frontier-engine expansion cap; wider frontiers split "
                        "into blocks (bounds memory on dense graphs)")
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="deadline for the count; on expiry exit 124 instead of hanging")
    p.add_argument("--stats", action="store_true",
                   help="print runtime stats (compile/match/venn-fc time, plan cache)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a JSONL span trace (compile -> execute -> venn/fc)")
    p.add_argument("--metrics", action="store_true",
                   help="collect metrics and print the table after the count")
    p.add_argument("--prom", metavar="FILE",
                   help="write collected metrics in Prometheus text format")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("decompose", help="show a pattern's core/fringe split")
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("list-cores", help="subgraph matching mode: top core placements")
    _add_graph_args(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=_cmd_list_cores)

    p = sub.add_parser("signatures", help="per-vertex graphlet-degree signatures")
    _add_graph_args(p)
    p.add_argument("--out", help="write all signatures to this CSV file")
    p.add_argument("--top", type=int, default=10, help="print the top-k by degree")
    p.set_defaults(fn=_cmd_signatures)

    p = sub.add_parser("serve", help="run the asyncio counting service (repro.serve)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--dataset", action="append", metavar="NAME",
                   help="register a built-in dataset (repeatable)")
    p.add_argument("--graph", action="append", metavar="FILE",
                   help="register a graph file (repeatable; named by file stem)")
    p.add_argument("--scale", default="small", choices=["tiny", "small", "large"],
                   help="scale for --dataset graphs")
    p.add_argument("--max-queue", type=int, default=128,
                   help="admission queue bound; excess requests get 'overloaded'")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max requests per micro-batch")
    p.add_argument("--batch-window", type=float, default=0.0, metavar="SECONDS",
                   help="linger this long after the first dequeue to fill a batch")
    p.add_argument("--executor-workers", type=int, default=2,
                   help="thread-pool workers executing batches")
    p.add_argument("--pool", default="thread", choices=["thread", "persistent"],
                   help="where counts execute: service threads (GIL-bound) or "
                        "the persistent shared-memory worker pool")
    p.add_argument("--pool-workers", type=int, default=None, metavar="N",
                   help="worker processes for --pool persistent")
    p.add_argument("--relabel-degree", action="store_true",
                   help="renumber each registered graph by descending degree "
                        "(counts are invariant; improves chunk load balance)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="result-cache entries (0 disables)")
    p.add_argument("--cache-ttl", type=float, default=300.0, metavar="SECONDS",
                   help="result-cache time-to-live")
    p.add_argument("--default-timeout", type=float, default=30.0, metavar="SECONDS",
                   help="deadline for requests that carry none")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("query", help="query a running counting server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--graph-name", required=True, help="registry name of the graph")
    p.add_argument("--pattern", required=True, help="pattern expression (DSL)")
    p.add_argument("--engine", default="auto", choices=ENGINES)
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="server-side deadline for this query")
    p.add_argument("--client-timeout", type=float, default=60.0,
                   help="socket timeout for the HTTP call")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the server's result cache")
    p.add_argument("--json", action="store_true", help="print the raw JSON response")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("datasets", help="list built-in datasets")
    p.set_defaults(fn=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
