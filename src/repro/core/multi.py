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
group shares a plan and Venn batches. Groups are processed sequentially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern
from .backends import venn_poly_sums
from .engine import CountResult, EngineConfig, FringeCounter
from .frontier import iter_frontier_blocks
from .plan import exact_divide

__all__ = ["MultiPatternCounter", "count_many"]


@dataclass
class _Member:
    name: str
    counter: FringeCounter
    poly: object  # FringePolynomial
    sigma: int = 0


class MultiPatternCounter:
    """Count a family of patterns, sharing core matching per group."""

    def __init__(self, patterns: dict[str, Pattern], *, config: EngineConfig | None = None):
        if not patterns:
            raise ValueError("need at least one pattern")
        cfg = config or EngineConfig()
        if cfg.fc_impl != "poly":
            cfg = replace(cfg, fc_impl="poly")
        self.config = cfg
        self._trivial: dict[str, Pattern] = {}
        groups: dict[tuple, list[_Member]] = {}
        for name, pattern in patterns.items():
            if pattern.n <= 2:
                self._trivial[name] = pattern
                continue
            counter = FringeCounter(pattern, config=cfg)
            key = (
                counter.decomp.core_pattern,
                counter.decomp.matching_order,
                counter.decomp.anchored,
                counter.plan.group_order,
                tuple(counter.plan.less_than),
            )
            groups.setdefault(key, []).append(
                _Member(name=name, counter=counter, poly=counter._poly)
            )
        self.groups = groups

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @staticmethod
    def _shared_plan(members: list[_Member]):
        """The group's plan with the *weakest* per-position degree filter.

        Members carry different fringe loads, hence different full-pattern
        degree filters. A match pruned by a stricter member's filter still
        contributes 0 to that member's polynomial (not enough external
        neighbours to place its fringes), so enumerating with the
        elementwise minimum is both safe and complete for everyone.
        """
        plans = [m.counter.plan for m in members]
        min_degree = tuple(
            min(p.min_degree[i] for p in plans) for i in range(len(plans[0].min_degree))
        )
        return replace(plans[0], min_degree=min_degree)

    def count_all(self, graph: CSRGraph) -> dict[str, CountResult]:
        """Count every pattern; one shared pass per group."""
        out: dict[str, CountResult] = {}
        for name, pattern in self._trivial.items():
            out[name] = FringeCounter(pattern, config=self.config).count(graph)

        for members in self.groups.values():
            start = time.perf_counter()
            lead = members[0].counter
            plan = self._shared_plan(members)
            positions = list(lead._anchored_positions)
            polys = [m.poly for m in members]
            for m in members:
                m.sigma = 0
            matches = 0
            for block in iter_frontier_blocks(
                graph, plan, max_rows=self.config.max_frontier_rows
            ):
                matches += len(block)
                sums, _ = venn_poly_sums(
                    graph, block, positions, polys, self.config.batch_size
                )
                for m, sigma in zip(members, sums):
                    m.sigma += sigma
            elapsed = time.perf_counter() - start
            for m in members:
                total = m.sigma * m.counter.plan.group_order
                value = exact_divide(total, m.counter.denominator, f"count for {m.name}")
                out[m.name] = CountResult(
                    count=value,
                    pattern=m.counter.pattern,
                    core_matches=matches,
                    elapsed_s=elapsed / len(members),
                    engine="fringe-multi",
                    decomposition=m.counter.decomp,
                )
        return out


def count_many(
    graph: CSRGraph, patterns: dict[str, Pattern], *, config: EngineConfig | None = None
) -> dict[str, int]:
    """Convenience wrapper: name -> count for a family of patterns."""
    results = MultiPatternCounter(patterns, config=config).count_all(graph)
    return {name: res.count for name, res in results.items()}
