"""Counting many patterns in one pass over the graph.

Motif censuses and the paper's §6.2 sweeps count whole *families* of
patterns that differ only in their fringes. For a fixed core (and anchor
set family), the expensive work — core matching and Venn-diagram
population — is identical for every family member; only the final
fringe-polynomial differs. ``MultiPatternCounter`` exploits that: one
matcher pass, one batched Venn computation, and one polynomial evaluation
per pattern per batch.

This is the fringe-decomposition analogue of Dryadic/STMatch's merged
computation trees (related work §4), and it is what makes e.g. the whole
Fig. 13 series cost barely more than its largest member.

Patterns are grouped by (core pattern, matching order, anchored set); a
group shares a plan and Venn batches, and runs as one
:meth:`~repro.core.backends.FrontierBackend.run_polys` pass. Groups are
processed sequentially.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern
from .backends import FrontierBackend
from .engine import CountResult, EngineConfig, ExecutionStats
from .plan import CountingPlan, compile_pattern

__all__ = ["MultiPatternCounter", "count_many"]


class MultiPatternCounter:
    """Count a family of patterns, sharing core matching per group."""

    def __init__(self, patterns: dict[str, Pattern], *, config: EngineConfig | None = None):
        if not patterns:
            raise ValueError("need at least one pattern")
        self.config = config or EngineConfig()
        groups: dict[tuple, dict[str, CountingPlan]] = {}
        for name, pattern in patterns.items():
            plan = compile_pattern(pattern, self.config)
            key = (
                plan.decomp.core_pattern,
                plan.decomp.matching_order,
                plan.decomp.anchored,
                plan.group_order,
                tuple(plan.core_plan.less_than),
            )
            groups.setdefault(key, {})[name] = plan
        self.groups = groups

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @staticmethod
    def _shared_plan(plans: list[CountingPlan]) -> CountingPlan:
        """The group's plan with the *weakest* per-position degree filter.

        Members carry different fringe loads, hence different full-pattern
        degree filters. A match pruned by a stricter member's filter still
        contributes 0 to that member's polynomial (not enough external
        neighbours to place its fringes), so enumerating with the
        elementwise minimum is both safe and complete for everyone.
        """
        min_degree = tuple(map(min, zip(*(p.core_plan.min_degree for p in plans))))
        lead = plans[0]
        return replace(lead, core_plan=replace(lead.core_plan, min_degree=min_degree))

    def count_all(self, graph: CSRGraph) -> dict[str, CountResult]:
        """Count every pattern; one shared frontier pass per group.

        Each member's ``stats`` describe its group's shared pass.
        """
        out: dict[str, CountResult] = {}
        backend = FrontierBackend()
        for group in self.groups.values():
            plans = list(group.values())
            start = time.perf_counter()
            sums, partial = backend.run_polys(
                self._shared_plan(plans), [p.poly for p in plans], graph
            )
            elapsed = time.perf_counter() - start
            stats = ExecutionStats(
                backend=backend.name,
                execute_s=elapsed,
                match_s=partial.match_s,
                venn_fc_s=partial.venn_fc_s,
                batches_flushed=partial.batches,
            )
            for (name, plan), sigma in zip(group.items(), sums):
                out[name] = CountResult(
                    count=plan.normalize(sigma, context=f"count for {name}"),
                    pattern=plan.pattern,
                    core_matches=partial.matches,
                    elapsed_s=elapsed / len(plans),
                    engine="fringe-multi",
                    decomposition=plan.decomp,
                    stats=stats,
                )
        return out


def count_many(
    graph: CSRGraph, patterns: dict[str, Pattern], *, config: EngineConfig | None = None
) -> dict[str, int]:
    """Convenience wrapper: name -> count for a family of patterns."""
    results = MultiPatternCounter(patterns, config=config).count_all(graph)
    return {name: res.count for name, res in results.items()}
