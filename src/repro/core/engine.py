"""The Fringe-SGC counting engine (public API).

The counting identity (DESIGN.md §1): for a pattern ``P`` with a core/
fringe decomposition, the number of injective edge-preserving maps is

```
inj(P, G) = Σ_{ordered core embeddings φ} F_sets(venn(φ)) · Π_t k_t!
```

and the subgraph count is ``inj(P, G) / |Aut(P)|``. Running the *same*
sum with ``G = P`` yields ``inj(P, P) = |Aut(P)|``, so

```
count(P, G) = core_sum(P, G) / core_sum(P, P)
```

where ``core_sum`` is the Σ above without the factorials (they cancel).
This bootstraps automorphism handling from the engine itself — no group
enumeration ever happens, which matters because fringe-heavy patterns have
astronomically large automorphism groups (``Π k_t!`` alone).

The implementation is layered (DESIGN.md §7): :mod:`repro.core.plan`
compiles patterns into frozen :class:`~repro.core.plan.CountingPlan`
artifacts, :mod:`repro.core.backends` executes plans over graphs (and
:mod:`repro.core.specialized` holds the closed forms of 1-/2-vertex
cores), and :class:`repro.runtime.Runtime` fronts both with an LRU plan
cache. Every route returns a raw, symmetry-reduced ``core_sum`` and
only :meth:`~repro.core.plan.CountingPlan.normalize` divides it.

Use :func:`count_subgraphs` to count (it routes through the process-wide
runtime, so repeated patterns hit the plan cache), :func:`count_many` to
count a family that shares cores, or
:func:`~repro.core.plan.compile_pattern` to hold one compiled pattern
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition
from ..patterns.pattern import Pattern
from .backends import FrontierBackend
from .plan import compile_pattern

__all__ = [
    "ENGINES",
    "EngineConfig",
    "CountResult",
    "ExecutionStats",
    "count_many",
    "count_subgraphs",
    "injective_core_sum",
]


# the values of every ``engine=`` argument (library, CLI, HTTP)
ENGINES = ("auto", "general", "specialized", "frontier")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the matcher routes (defaults match the paper's choices).

    The route itself is picked by ``engine`` alone; these knobs only
    size the work. ``batch_size`` is the row chunk of one vectorized
    Venn + polynomial evaluation, and ``max_frontier_rows`` caps the
    candidate volume of one frontier-expansion step (wider frontiers are
    split into blocks traversed depth-first, bounding peak memory on
    dense graphs). Both only affect the frontier backend
    (``engine="frontier"`` and ``auto``'s matcher route).
    """

    symmetry_breaking: bool = True
    batch_size: int = 4096  # rows per vectorized Venn + polynomial chunk
    max_frontier_rows: int = 1 << 20  # frontier-backend expansion cap (rows)

    def __post_init__(self):
        if not isinstance(self.symmetry_breaking, bool):
            raise TypeError("symmetry_breaking must be a bool")
        for name in ("batch_size", "max_frontier_rows"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int")
            if value < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ExecutionStats:
    """Per-call breakdown of where a count's time went.

    ``compile_s`` is pattern-compilation time (zero on a plan-cache hit);
    ``execute_s`` is graph-side execution; ``match_s`` (core matching)
    and ``venn_fc_s`` (Venn/fringe-count evaluation) are the backend's
    own timings of those two layers, so in-process ``match_s +
    venn_fc_s <= execute_s`` (pooled counts sum them over workers); a
    closed-form engine reports neither. ``cache_hits``/``cache_misses``
    snapshot the serving runtime's cumulative plan-cache counters (both
    zero when the count did not go through a runtime). ``workers`` is
    the number of distinct pool worker processes that contributed
    (zero when the count ran in-process).
    """

    backend: str = ""
    plan_cache_hit: bool = False
    compile_s: float = 0.0
    execute_s: float = 0.0
    match_s: float = 0.0
    venn_fc_s: float = 0.0
    batches_flushed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 0


@dataclass(frozen=True)
class CountResult:
    """A count plus the run statistics the paper reports."""

    count: int
    pattern: Pattern
    core_matches: int  # symmetry-reduced core embeddings visited
    elapsed_s: float
    engine: str
    decomposition: Decomposition | None = None
    stats: ExecutionStats | None = None

    def throughput(self, graph_edges: int) -> float:
        """Edges per second — the paper's normalized metric (§6)."""
        return graph_edges / self.elapsed_s if self.elapsed_s > 0 else float("inf")


def injective_core_sum(
    graph: CSRGraph, decomp: Decomposition, *, config: EngineConfig | None = None
) -> int:
    """Σ over all ordered core embeddings of F_sets (module-level helper).

    Multiplied by ``Π k_t!`` this equals ``inj(P, G)``.
    """
    plan = compile_pattern(decomp.pattern, config, decomposition=decomp)
    return FrontierBackend().run(plan, graph).sigma * plan.group_order


def count_subgraphs(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    engine: str = "auto",
    decomposition: Decomposition | None = None,
    config: EngineConfig | None = None,
) -> CountResult:
    """Count edge-induced embeddings of ``pattern`` in ``graph``.

    Routes through the process-wide :class:`repro.runtime.Runtime`, so
    counting the same pattern again reuses its compiled plan.

    ``engine``:

    * ``"auto"`` — specialized closed-form engines for 1-/2-vertex cores
      (paper §3.4 "specialized code for patterns with small cores"; a
      single vertex or edge is a 1-vertex core), the frontier matcher
      otherwise;
    * ``"general"`` — the per-match serial oracle (matcher + Venn + fc
      per core match, the paper's Listing 5);
    * ``"specialized"`` — require a closed form (raises ``ValueError``
      for a core of three or more vertices);
    * ``"frontier"`` — the vectorized frontier-at-a-time backend
      (:mod:`repro.core.frontier`): whole blocks of core embeddings per
      NumPy pass instead of one per Python iteration.
    """
    from ..runtime import get_runtime

    return get_runtime().count(
        graph, pattern, engine=engine, decomposition=decomposition, config=config
    )


def count_many(
    graph: CSRGraph, patterns: dict[str, Pattern], *, config: EngineConfig | None = None
) -> dict[str, int]:
    """Name -> count for a family of patterns.

    Routes through :meth:`repro.runtime.Runtime.count_many` on the
    process-wide runtime: members that share a core share one pass.
    """
    from ..runtime import get_runtime

    results = get_runtime().count_many(graph, patterns, config=config)
    return {name: res.count for name, res in results.items()}
