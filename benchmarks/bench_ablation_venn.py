"""Ablation A4: Venn-diagram implementations.

Compares the four interchangeable implementations — dict reference,
NumPy sort-reduce, the paper's later-stack binary-search-with-correction
scheme (§3.6), and the batched sort-reduce used by the poly engine —
on identical anchor workloads from a high-degree input.

A second case times the two distinct-set formulations the batched
backends can use on the sorted anchor sets the frontier matcher really
produces: the sort-reduce ``venn_batch(graph, sets, sets)`` and the
algebraic ``venn_sets`` (pair index, popcounted adjacency-bitmap rows
for three or more anchors, and a Möbius inversion), cross-checked
equal. With ``--benchmark-disable`` every case runs once as a
correctness check and nothing is written to ``ablation_venn.json``.
"""

import json
import random

import numpy as np
import pytest

from repro.core import compile_pattern
from repro.core.frontier import frontier_match_matrix
from repro.core.frontier import adjacency_bitmap
from repro.core.venn import (
    pair_index,
    venn_batch,
    venn_hash,
    venn_merge,
    venn_sets,
    venn_sorted,
)
from repro.graph import datasets
from repro.patterns import catalog

# q = 2 and q = 3 anchor sets
DISTINCT_SET_PATTERNS = {"diamond": catalog.diamond, "4-clique": catalog.four_clique}
DISTINCT_SET_IMPLS = {
    "venn_batch": lambda graph, sets: venn_batch(graph, sets, sets),
    "venn_sets": venn_sets,
}


@pytest.fixture(scope="module")
def workload():
    graph = datasets.make("kron_g500-logn20", "tiny")
    rng = random.Random(7)
    n = graph.num_vertices
    anchors = [rng.sample(range(n), 3) for _ in range(600)]
    return graph, anchors


@pytest.mark.parametrize(
    "impl", [venn_hash, venn_sorted, venn_merge], ids=["hash", "sorted", "merge"]
)
def test_venn_scalar_impl(benchmark, workload, impl, results_dir):
    graph, anchors = workload

    def run():
        out = 0
        for a in anchors:
            out += sum(impl(graph, a, a))
        return out

    total = benchmark(run)
    _record(results_dir, impl.__name__, benchmark, total)


def test_venn_batched(benchmark, workload, results_dir):
    graph, anchors = workload
    arr = np.asarray(anchors, dtype=np.int64)

    def run():
        return int(venn_batch(graph, arr, arr).sum())

    total = benchmark(run)
    _record(results_dir, "venn_batch", benchmark, total)


def test_all_impls_agree(workload):
    graph, anchors = workload
    arr = np.asarray(anchors[:50], dtype=np.int64)
    batched = venn_batch(graph, arr, arr)
    for i, a in enumerate(anchors[:50]):
        ref = venn_hash(graph, a, a)
        assert venn_sorted(graph, a, a) == ref
        assert venn_merge(graph, a, a) == ref
        assert batched[i].tolist() == ref


@pytest.fixture(scope="module", params=sorted(DISTINCT_SET_PATTERNS))
def distinct_sets(request, workload):
    """The sorted distinct anchor sets of one pattern's frontier matches."""
    graph = workload[0]
    plan = compile_pattern(DISTINCT_SET_PATTERNS[request.param]())
    block = frontier_match_matrix(graph, plan.core_plan)
    sets = np.unique(np.sort(block[:, list(plan.anchored_positions)], axis=1), axis=0)
    pair_index(graph)  # built once per graph, outside the timed loop
    adjacency_bitmap(graph)
    return request.param, graph, sets


@pytest.mark.parametrize("impl", sorted(DISTINCT_SET_IMPLS))
def test_venn_distinct_sets(benchmark, distinct_sets, impl, results_dir):
    name, graph, sets = distinct_sets
    fn = DISTINCT_SET_IMPLS[impl]
    total = benchmark(lambda: int(fn(graph, sets).sum()))
    _record(results_dir, f"distinct_sets[{name}].{impl}", benchmark, total, sets=len(sets))


def test_distinct_set_impls_agree(distinct_sets):
    _, graph, sets = distinct_sets
    assert len(sets) > 100
    np.testing.assert_array_equal(venn_sets(graph, sets), venn_batch(graph, sets, sets))


def _record(results_dir, name, benchmark, checksum, **extra):
    if benchmark.stats is None:  # --benchmark-disable: a correctness run only
        return
    path = results_dir / "ablation_venn.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[name] = {"mean_seconds": benchmark.stats.stats.mean, "checksum": int(checksum), **extra}
    path.write_text(json.dumps(data, indent=1))
