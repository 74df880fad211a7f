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
artifacts, :mod:`repro.core.backends` executes plans over graphs, and
:class:`repro.runtime.Runtime` fronts both with an LRU plan cache.

Use :func:`count_subgraphs` for one-off counts (it routes through the
process-wide runtime, so repeated patterns hit the plan cache) or
:class:`FringeCounter` to hold one compiled pattern explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition
from ..patterns.pattern import Pattern
from .backends import select_backend
from .plan import CountingPlan, compile_pattern
from .venn import VENN_IMPLS

__all__ = [
    "EngineConfig",
    "CountResult",
    "ExecutionStats",
    "FringeCounter",
    "count_subgraphs",
    "injective_core_sum",
]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the general engine (defaults match the paper's choices).

    ``fc_impl="poly"`` selects the compiled fringe polynomial evaluated
    over *batches* of core matches with one vectorized Venn pass per batch
    (:func:`repro.core.venn.venn_sets`) — the data-parallel formulation
    and the default for benchmarks. ``"recursive"``/``"iterative"`` are
    the per-match Listing 5 ports.

    ``max_frontier_rows`` only affects the frontier backend
    (``engine="frontier"``): it caps the candidate volume of one
    frontier-expansion step; wider frontiers are split into blocks that
    are traversed depth-first, bounding peak memory on dense graphs.
    """

    venn_impl: str = "sorted"  # "hash" | "sorted" | "merge" (per-match paths)
    fc_impl: str = "poly"  # "poly" | "recursive" | "iterative"
    symmetry_breaking: bool = True
    specialized: bool = True  # use closed-form engines for small cores
    batch_size: int = 4096  # matches per vectorized batch (poly mode)
    max_frontier_rows: int = 1 << 20  # frontier-backend expansion cap (rows)

    def __post_init__(self):
        if self.venn_impl not in VENN_IMPLS:
            raise ValueError(f"unknown venn_impl {self.venn_impl!r}")
        if self.fc_impl not in ("recursive", "iterative", "poly"):
            raise ValueError(f"unknown fc_impl {self.fc_impl!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.max_frontier_rows < 1:
            raise ValueError("max_frontier_rows must be positive")


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
    the number of distinct fork-pool worker processes that contributed
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


class FringeCounter:
    """Pattern-compiled Fringe-SGC counter.

    Thin stateful wrapper over a :class:`~repro.core.plan.CountingPlan`:
    all pattern-side work happens once (at construction or in the plan
    passed in) and is reused for any number of graphs. The historical
    attribute surface (``decomp``, ``plan``, ``denominator``, ...) is
    preserved for the listing/multi/gpusim layers built on top of it.
    """

    def __init__(
        self,
        pattern: Pattern,
        *,
        decomposition: Decomposition | None = None,
        config: EngineConfig | None = None,
        plan: CountingPlan | None = None,
    ):
        if plan is None:
            plan = compile_pattern(pattern, config or EngineConfig(), decomposition=decomposition)
        self.counting_plan = plan
        self.pattern = plan.pattern
        self.config = plan.config
        self.decomp = plan.decomp
        self.plan = plan.core_plan
        self._denominator = plan.denominator
        if plan.decomp is not None:
            self._anch, self._k = plan.anch, plan.k
            self._anchored_positions = plan.anchored_positions
            self._poly = plan.poly

    # ------------------------------------------------------------------
    @property
    def denominator(self) -> int:
        """``inj(P, P) / Π k_t!`` — the normalization constant."""
        return self._denominator

    def aut_size(self) -> int:
        """|Aut(P)| computed structurally (never by enumeration)."""
        if self.pattern.n == 1:
            return 1
        if self.pattern.n == 2:
            return 2
        return self._denominator * self.decomp.fringe_permutation_factor()

    def count(self, graph: CSRGraph, *, start_vertices: Sequence[int] | None = None) -> CountResult:
        start = time.perf_counter()
        cplan = self.counting_plan
        backend = None
        partial = None
        if self.pattern.n == 1:
            value, matches = graph.num_vertices, graph.num_vertices
        elif self.pattern.n == 2:
            value, matches = graph.num_edges, graph.num_edges
        else:
            backend = select_backend(self.config)
            partial = backend.run(cplan, graph, start_vertices=start_vertices)
            value = cplan.normalize(partial.sigma)
            matches = partial.matches
        elapsed = time.perf_counter() - start
        stats = ExecutionStats(
            backend=backend.name if backend else "trivial",
            execute_s=elapsed,
            match_s=partial.match_s if partial else 0.0,
            venn_fc_s=partial.venn_fc_s if partial else 0.0,
            batches_flushed=partial.batches if partial else 0,
        )
        return CountResult(
            count=value,
            pattern=self.pattern,
            core_matches=matches,
            elapsed_s=elapsed,
            engine=f"fringe-general({self.config.venn_impl},{self.config.fc_impl})",
            decomposition=self.decomp,
            stats=stats,
        )

    def core_sum(self, graph: CSRGraph) -> int:
        """Σ over *all* ordered core embeddings of the fringe-set count."""
        if self.plan is None:
            raise ValueError("core_sum is only defined for patterns with n >= 3")
        return self._core_sum(graph)

    # ------------------------------------------------------------------
    # compatibility delegates (pre-layering internal API)
    # ------------------------------------------------------------------
    def _core_sum(self, graph: CSRGraph) -> int:
        sigma, _ = self._core_sum_with_stats(graph, None)
        return sigma * self.plan.group_order

    def _core_sum_with_stats(
        self, graph: CSRGraph, start_vertices: Sequence[int] | None
    ) -> tuple[int, int]:
        """(Σ F_sets over symmetry-reduced core embeddings, #embeddings)."""
        partial = select_backend(self.config).run(
            self.counting_plan, graph, start_vertices=start_vertices
        )
        return partial.sigma, partial.matches


def injective_core_sum(
    graph: CSRGraph, decomp: Decomposition, *, config: EngineConfig | None = None
) -> int:
    """Σ over all ordered core embeddings of F_sets (module-level helper).

    Multiplied by ``Π k_t!`` this equals ``inj(P, G)``. Used by tests and
    by :func:`repro.patterns.automorphisms.aut_size_structural`.
    """
    counter = FringeCounter(decomp.pattern, decomposition=decomp, config=config)
    return counter._core_sum(graph)


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

    * ``"auto"`` — specialized closed-form engines for 1-/2-/3-vertex
      cores (paper §3.4 "specialized code for patterns with small
      cores"; the 3-vertex one only without a worker pool), the frontier
      matcher otherwise;
    * ``"general"`` — always the general matcher + Venn + fc pipeline;
    * ``"specialized"`` — require a specialized engine (raises if none);
    * ``"frontier"`` — the vectorized frontier-at-a-time backend
      (:mod:`repro.core.frontier`): whole blocks of core embeddings per
      NumPy pass instead of one per Python iteration.
    """
    from ..runtime import get_runtime

    return get_runtime().count(
        graph, pattern, engine=engine, decomposition=decomposition, config=config
    )
