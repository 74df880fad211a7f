"""Multicore parallel counting layer.

Work distribution (dynamic/static/strided schedules), the persistent
:class:`WorkerPool` with work stealing, and zero-copy graph sharing over
named shared memory
(:mod:`repro.parallel.shm`).
"""

from .partition import Partition, ghost_width, partition_graph, partitioned_count
from .pool import ParallelConfig, parallel_count
from .schedule import SCHEDULES, dynamic_chunks, make_chunks, static_contiguous, static_strided
from .shm import GraphExport, ShmManager, attach_graph, default_manager, shm_available
from .workerpool import PoolStats, WorkerPool, get_default_pool, shutdown_default_pool

__all__ = [
    "Partition",
    "ghost_width",
    "partition_graph",
    "partitioned_count",
    "ParallelConfig",
    "parallel_count",
    "SCHEDULES",
    "dynamic_chunks",
    "make_chunks",
    "static_contiguous",
    "static_strided",
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
