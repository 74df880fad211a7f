"""Frontier backend vs the serial per-match engine.

The repo's first recorded perf trajectory: the vectorized
frontier-at-a-time matcher (``engine="frontier"``) against the scalar
stack matcher with the per-match later-anchors venn + recursive fc of
the serial oracle (``fringe-serial``, ``engine="general"``),
on patterns whose core has >= 3 vertices — the regime where matching,
not fringe evaluation, dominates — with the default ``engine="auto"``
route (``fringe-sgc``) in every cell as the baseline a user actually
gets. Cells land in ``benchmarks/results/BENCH_frontier.json``; every
cell is exact-count cross-checked across the three systems by
``verify_counts_agree``.

Target (ISSUE): >= 5x on the Kronecker/dataset inputs for at least one
pattern with >= 3 core vertices.
"""

import pytest

from repro.bench import render_figure, render_speedups, run_figure, save_figure, workloads as W


@pytest.fixture(scope="module")
def figure(results_dir):
    # run_figure compiles each plan and builds each graph's pair index and
    # adjacency bitmap before its timers start: a user pays them once per
    # pattern or graph, not in whichever system's cell runs first.
    res = run_figure(
        "frontier",
        W.frontier_patterns(),
        W.frontier_inputs("tiny"),
        W.FRONTIER_VS_SERIAL,
        timeout_s=30.0,
        record_dir=results_dir,
    )
    save_figure(res, results_dir / "frontier.json")
    print()
    print(render_figure(res))
    print(render_speedups(res, over="fringe-serial", of="fringe-frontier"))
    print(render_speedups(res, over="fringe-sgc", of="fringe-frontier"))
    return res


def test_frontier_full_sweep(figure, benchmark):
    res = benchmark.pedantic(
        lambda: run_figure(
            "frontier",
            W.frontier_patterns(),
            W.frontier_inputs("tiny"),
            ("fringe-frontier",),
            timeout_s=30.0,
        ),
        rounds=1,
        iterations=1,
    )
    assert all(m.status == "ok" for m in res.measurements)


def test_frontier_counts_match_serial(figure):
    """Every (pattern, graph) cell: frontier count == serial count."""
    figure.verify_counts_agree()  # raises on any disagreement
    ok = [m for m in figure.measurements if m.status == "ok"]
    assert len(ok) == len(figure.measurements), "a cell did not finish"


def test_frontier_speedup_target(figure):
    """>= 5x over serial on at least one >= 3-core-vertex pattern."""
    speedups = {
        p: figure.speedup(p, over="fringe-serial", of="fringe-frontier")
        for p in W.frontier_patterns()
    }
    print("frontier speedups over serial:", speedups)
    assert any(s is not None and s >= 5.0 for s in speedups.values()), speedups
