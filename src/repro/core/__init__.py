"""The Fringe-SGC core: binomials, Venn diagrams, fc, matcher, engines.

Layered architecture (DESIGN.md §7): :mod:`repro.core.plan` compiles
patterns into frozen plans, :mod:`repro.core.backends` executes plans
over graphs, and :class:`repro.runtime.Runtime` fronts both with an LRU
plan cache.
"""

from .backends import (
    Backend,
    FrontierBackend,
    PartialSum,
    PoolBackend,
    SerialBackend,
    select_backend,
)
from .frontier import (
    FrontierStats,
    adjacency_bitmap,
    frontier_match_matrix,
    has_edges,
    has_edges_bulk,
    iter_frontier_blocks,
)
from .binomial import PascalTable, nCk
from .engine import (
    ENGINES,
    CountResult,
    EngineConfig,
    ExecutionStats,
    count_subgraphs,
    injective_core_sum,
)
from .plan import CountingPlan, compile_pattern, exact_divide, plan_key
from .listing import CoreMatch, iter_core_matches, per_vertex_counts, top_cores
from .multi import MultiPatternCounter, count_many
from .fringe_count import count_fringe_choices, fc_recursive
from .matcher import CorePlan, build_plan, count_core_matches, match_cores
from .venn import venn_hash, venn_merge, venn_sorted

__all__ = [
    "Backend",
    "FrontierBackend",
    "FrontierStats",
    "frontier_match_matrix",
    "adjacency_bitmap",
    "has_edges",
    "has_edges_bulk",
    "iter_frontier_blocks",
    "PartialSum",
    "PoolBackend",
    "SerialBackend",
    "select_backend",
    "CountingPlan",
    "compile_pattern",
    "exact_divide",
    "plan_key",
    "ExecutionStats",
    "PascalTable",
    "CoreMatch",
    "iter_core_matches",
    "per_vertex_counts",
    "top_cores",
    "MultiPatternCounter",
    "count_many",
    "nCk",
    "CountResult",
    "ENGINES",
    "EngineConfig",
    "count_subgraphs",
    "injective_core_sum",
    "count_fringe_choices",
    "fc_recursive",
    "CorePlan",
    "build_plan",
    "count_core_matches",
    "match_cores",
    "venn_hash",
    "venn_merge",
    "venn_sorted",
]
