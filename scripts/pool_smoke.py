"""CI smoke for the persistent worker pool behind serve.

Fires 32 concurrent queries through :class:`~repro.serve.CountingService`
configured with ``executor="pool"`` and cross-checks every response
against a direct serial ``Runtime.count``. Patterns with a 3-vertex core
on amazon tiny (300 vertices, more than one 256-vertex chunk) must run on
the resident spawn-context worker pool over shared memory (engine string,
pool call stats); patterns with 1-/2-vertex cores must stay on the
executor thread as closed forms (``fringe-specialized(...)``).

Must live in a file — spawn-context workers re-import ``__main__``, so
the pool cannot be driven from a stdin heredoc. Everything below the
``if __name__ == "__main__"`` guard for the same reason.
"""

import asyncio
import sys
import time


def main() -> int:
    from repro.parallel.workerpool import get_default_pool, shutdown_default_pool
    from repro.patterns.dsl import parse_pattern
    from repro.runtime import Runtime
    from repro.serve import CountRequest, CountingService, GraphRegistry, ServiceConfig

    registry = GraphRegistry()
    registry.load_dataset("kron_g500-logn20", "tiny")
    registry.load_dataset("amazon0601", "tiny")

    pool_work = [
        ("amazon0601", "4-clique"), ("amazon0601", "4-clique + 1x0"),
        ("amazon0601", "4-cycle"), ("amazon0601", "fig4"),
    ]
    closed_form = [
        ("kron_g500-logn20", "triangle"), ("kron_g500-logn20", "diamond"),
        ("kron_g500-logn20", "4-star"), ("amazon0601", "wedge"),
    ]
    workload = (pool_work + closed_form) * 4  # 32 queries, every unique question asked 4 times

    async def scenario():
        service = CountingService(
            registry,
            config=ServiceConfig(
                executor="pool", pool_workers=2,
                result_cache_size=0, executor_workers=2,
            ),
        )
        service.start()
        try:
            t0 = time.perf_counter()
            responses = await asyncio.gather(*[
                service.submit(CountRequest(graph=g, pattern=p, use_cache=False))
                for g, p in workload
            ])
            elapsed = time.perf_counter() - t0
        finally:
            await service.stop()
        return responses, elapsed

    responses, elapsed = asyncio.run(scenario())

    bad = [r for r in responses if not r.ok]
    assert not bad, f"failed responses: {bad}"

    direct = Runtime()
    graphs = {name: registry.get(name).graph for name in registry.names()}
    expected = {
        gp: direct.count(graphs[gp[0]], parse_pattern(gp[1])).count
        for gp in set(workload)
    }
    mismatches = [
        (gp, r.count, expected[gp])
        for gp, r in zip(workload, responses)
        if r.count != expected[gp]
    ]
    assert not mismatches, f"count mismatches: {mismatches}"

    pooled = sum(1 for gp, r in zip(workload, responses)
                 if gp in pool_work and "fringe-pool" in r.engine)
    stats = get_default_pool(2).stats
    shutdown_default_pool()
    assert pooled > 0, "no response executed on the persistent pool"
    assert stats.calls > 0, "pool recorded no calls"
    stray = [(gp, r.engine) for gp, r in zip(workload, responses)
             if gp in closed_form and not r.engine.startswith("fringe-specialized(")]
    assert not stray, f"closed-form queries left the executor thread: {stray}"
    print(
        f"32/32 responses correct in {elapsed:.2f}s ({32 / elapsed:.1f} qps); "
        f"{pooled} on the pool, calls={stats.calls} steals={stats.steals}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
