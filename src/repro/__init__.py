"""Fringe-SGC: counting subgraphs with fringe vertices (SC '25 reproduction).

Public entry points:

* :func:`repro.count_subgraphs` — count a pattern in a graph (plan-cached
  through the process-wide :class:`repro.Runtime`);
* :class:`repro.Runtime` / :func:`repro.get_runtime` — the serving front
  door: LRU plan cache, backend routing, execution stats;
* :func:`repro.compile_pattern` — build a reusable, picklable
  :class:`repro.CountingPlan` by hand (``plan.aut_size`` is |Aut(P)|);
* :mod:`repro.graph` — CSR graphs, generators, datasets, I/O;
* :mod:`repro.patterns` — pattern type, catalog, decomposition;
* :mod:`repro.obs` — tracing + metrics (spans, Prometheus export, the
  :class:`repro.Observer` hook for :class:`repro.Runtime`).
"""

from .core.engine import (
    CountResult,
    EngineConfig,
    ExecutionStats,
    count_subgraphs,
)
from .core.multi import MultiPatternCounter, count_many
from .core.plan import CountingPlan, compile_pattern
from .graph.csr import CSRGraph
from .obs import Observer
from .patterns.pattern import Pattern
from .patterns import catalog
from .runtime import Runtime, get_runtime

__version__ = "1.2.0"

__all__ = [
    "CountResult",
    "CountingPlan",
    "ExecutionStats",
    "MultiPatternCounter",
    "Observer",
    "Runtime",
    "count_many",
    "compile_pattern",
    "EngineConfig",
    "count_subgraphs",
    "get_runtime",
    "CSRGraph",
    "Pattern",
    "catalog",
    "__version__",
]
