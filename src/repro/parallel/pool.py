"""Multiprocess parallel counting.

Each worker runs the same compiled :class:`~repro.core.plan.CountingPlan`
over a slice of start vertices (the matcher's unit of work distribution —
the same decomposition the CUDA code uses across thread blocks) and
returns its partial core sum; the parent reduces and normalizes once
through the plan's single normalization path.

The workers are the persistent :class:`~repro.parallel.workerpool.WorkerPool`
(reached through :class:`repro.core.backends.PoolBackend`); this module
holds :class:`ParallelConfig` and the :func:`parallel_count` entry point,
a thin wrapper over the process-wide :class:`repro.runtime.Runtime` (so
parallel calls share the plan cache with everything else).

``num_workers=1`` bypasses multiprocessing entirely (useful under
pytest-benchmark).
"""

from __future__ import annotations

import os

from ..core.engine import CountResult, EngineConfig
from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern

__all__ = ["parallel_count", "ParallelConfig"]


class ParallelConfig:
    """Worker count and chunk size for parallel counts.

    More than one worker sends matcher work to the resident
    :class:`~repro.parallel.workerpool.WorkerPool` — spawn workers
    started once, reused across calls, graph shared through named shared
    memory, interleaved ``chunk_size``-root chunks served by work
    stealing.

    Validates eagerly: a bad worker count or chunk size raises here, at
    construction, instead of failing deep inside a pool call.
    """

    def __init__(self, num_workers: int | None = None, chunk_size: int = 256):
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.num_workers = num_workers or max(1, (os.cpu_count() or 2) - 1)
        self.chunk_size = chunk_size

    def __repr__(self) -> str:
        return (
            f"ParallelConfig(num_workers={self.num_workers}, "
            f"chunk_size={self.chunk_size})"
        )


def parallel_count(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    parallel: ParallelConfig | None = None,
    config: EngineConfig | None = None,
) -> CountResult:
    """Count ``pattern`` in ``graph`` across processes.

    Exact same result as :func:`repro.count_subgraphs`; only the work
    distribution differs. Every worker runs the frontier matcher.
    """
    from ..runtime import get_runtime

    par = parallel or ParallelConfig()
    return get_runtime().count(graph, pattern, engine="frontier", config=config, parallel=par)
