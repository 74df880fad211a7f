#!/usr/bin/env python
"""Scaling out: multi-pattern batching, partitioning, and parallelism.

Three production concerns beyond a single count, all answered by the
library with bit-identical results:

1. **Motif families** — a census of related patterns shares one core
   search and one Venn pass per batch (``MultiPatternCounter``);
2. **Graphs bigger than one device** — the paper's §3.6 multi-GPU plan:
   partition with ghost regions as wide as the pattern core's diameter
   (+1 for fringes), count partitions independently, reduce once;
3. **Multicore CPUs** — the persistent worker pool over interleaved
   start-vertex chunks, served by work stealing.

Run:  python examples/scale_out.py
"""

import time

from repro import MultiPatternCounter, count_subgraphs
from repro.graph import datasets
from repro.parallel import ParallelConfig, ghost_width, parallel_count, partitioned_count
from repro.patterns import catalog
from repro.patterns.decompose import decompose


def main() -> None:
    graph = datasets.make("rmat16.sym", "tiny")
    print(f"input: rmat16.sym stand-in ({graph.num_vertices} vertices, {graph.num_edges} edges)")

    # ------------------------------------------------------------------
    # 1. a k-tailed-triangle census in one shared pass
    # ------------------------------------------------------------------
    family = {f"{k}-tailed triangle": catalog.k_tailed_triangle(k) for k in range(1, 7)}
    t0 = time.perf_counter()
    mpc = MultiPatternCounter(family)
    shared = mpc.count_all(graph)
    t_shared = time.perf_counter() - t0

    t0 = time.perf_counter()
    individual = {n: count_subgraphs(graph, p, engine="frontier") for n, p in family.items()}
    t_each = time.perf_counter() - t0

    print(f"\nk-tailed-triangle census ({mpc.num_groups} shared core group):")
    for name in family:
        assert shared[name].count == individual[name].count
        print(f"  {name:<22} {shared[name].count:>22,}")
    print(f"  shared pass: {t_shared:.2f}s   individual passes: {t_each:.2f}s")

    # ------------------------------------------------------------------
    # 2. partitioned counting with ghost regions (§3.6)
    # ------------------------------------------------------------------
    pattern = catalog.diamond()
    halo = ghost_width(decompose(pattern))
    print(f"\npartitioned counting of the diamond (ghost width {halo}):")
    reference = count_subgraphs(graph, pattern).count
    for parts in (1, 2, 4, 8):
        res = partitioned_count(graph, pattern, num_parts=parts)
        marker = "ok" if res.count == reference else "MISMATCH"
        print(f"  {parts} partition(s): {res.count:,}  [{marker}]")

    # ------------------------------------------------------------------
    # 3. multiprocess counting
    # ------------------------------------------------------------------
    print("\nmultiprocess counting (worker pool):")
    for workers in (1, 2, 4):
        res = parallel_count(
            graph, pattern, parallel=ParallelConfig(num_workers=workers)
        )
        marker = "ok" if res.count == reference else "MISMATCH"
        print(f"  {workers} worker(s): {res.count:,} in {res.elapsed_s:.2f}s  [{marker}]")


if __name__ == "__main__":
    main()
