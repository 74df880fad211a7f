"""Multicore parallel counting layer.

The persistent :class:`WorkerPool` (interleaved start-vertex chunks
served by work stealing), zero-copy graph sharing over named shared
memory (:mod:`repro.parallel.shm`), and graph partitioning.
"""

from .partition import Partition, ghost_width, partition_graph, partitioned_count
from .pool import ParallelConfig, parallel_count
from .shm import GraphExport, ShmManager, attach_graph, default_manager, shm_available
from .workerpool import PoolStats, WorkerPool, get_default_pool, shutdown_default_pool

__all__ = [
    "Partition",
    "ghost_width",
    "partition_graph",
    "partitioned_count",
    "ParallelConfig",
    "parallel_count",
    "GraphExport",
    "ShmManager",
    "attach_graph",
    "default_manager",
    "shm_available",
    "PoolStats",
    "WorkerPool",
    "get_default_pool",
    "shutdown_default_pool",
]
