"""Approximate counting by core sampling (the approximation school, §2).

The paper notes that some SGC systems "rely on heuristics and
approximations" and positions Fringe-SGC as exact. This module provides
the natural approximate counterpart of the fringe method — and a striking
demonstration of why the decomposition helps even there:

sample *cores* uniformly (vertices for 1-vertex cores, edges for 2-vertex
cores), evaluate the **exact** fringe-set count F at each sampled core,
and scale by the sampling fraction. F is itself computed by the fringe
formula, so a single sample absorbs the full combinatorial weight of all
fringes around that core — the estimator's relative variance depends only
on how concentrated the per-core masses are, not on the pattern size.

Estimates come with a normal-approximation confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.backends import SerialBackend
from ..core.plan import compile_pattern
from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern

__all__ = ["SampledCount", "estimate_count"]


@dataclass(frozen=True)
class SampledCount:
    """An estimate with its uncertainty."""

    estimate: float
    std_error: float
    samples: int
    population: int  # number of sampling units (candidate roots)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        return (self.estimate - z * self.std_error, self.estimate + z * self.std_error)

    def relative_error_vs(self, truth: int) -> float:
        if truth == 0:
            return 0.0 if self.estimate == 0 else math.inf
        return abs(self.estimate - truth) / truth


def estimate_count(
    graph: CSRGraph,
    pattern: Pattern,
    *,
    samples: int = 1000,
    seed: int = 0,
) -> SampledCount:
    """Unbiased estimate of ``count(P, G)`` by root-vertex sampling.

    Sampling unit: a start vertex of the core matcher. For each sampled
    root we run the exact engine restricted to that root (all core
    matches rooted there, each with its exact fringe count) — a textbook
    Horvitz–Thompson estimator over roots.
    """
    plan = compile_pattern(pattern)
    backend = SerialBackend()
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    take = min(samples, n)
    roots = rng.choice(n, size=take, replace=False)

    scale = plan.group_order / plan.denominator
    masses = np.empty(take, dtype=np.float64)
    for i, root in enumerate(roots.tolist()):
        partial = backend.run(plan, graph, start_vertices=[int(root)])
        masses[i] = float(partial.sigma) * scale

    mean = float(masses.mean()) if take else 0.0  # an empty graph has no roots
    estimate = mean * n
    if take > 1 and take < n:
        # finite-population correction for sampling without replacement
        var = float(masses.var(ddof=1)) / take * (1 - take / n)
        std_error = n * math.sqrt(max(var, 0.0))
    else:
        std_error = 0.0
    return SampledCount(estimate=estimate, std_error=std_error, samples=take, population=n)
