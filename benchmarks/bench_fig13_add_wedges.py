"""Fig. 13: Fringe-SGC throughput while adding wedge fringes to Fig. 4.

Paper shape: an even smaller drop than Fig. 12's tails — wedge fringes
only extend the summation over two Venn regions ({u,v} and {u,v,w}), so
throughput stays nearly flat across 10 added vertices.
"""

import json

import pytest

from repro import count_subgraphs
from repro.bench import workloads as W
from repro.bench.harness import provenance

SERIES = W.fig13_series(10)


@pytest.fixture(scope="module")
def graph():
    return W.small_fig4_graph()["kron-small"]


@pytest.mark.parametrize("name", list(SERIES))
def test_fig13_point(benchmark, graph, name, results_dir):
    res = benchmark.pedantic(
        lambda: count_subgraphs(graph, SERIES[name]), rounds=1, iterations=1
    )
    assert res.count > 0
    path = results_dir / "fig13.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[name] = {
        **provenance(),
        "seconds": res.elapsed_s,
        "throughput_eps": graph.num_edges / res.elapsed_s,
        "pattern_vertices": SERIES[name].n,
        "count": str(res.count),  # exact: counts overflow JSON readers
        "count_digits": len(str(res.count)),
    }
    path.write_text(json.dumps(data, indent=1))


def test_fig13_wedges_cheaper_than_tails(graph):
    """The paper observes adding wedges costs less than adding tails
    (fewer covering regions: 2 vs 4)."""
    import time

    t0 = time.perf_counter()
    count_subgraphs(graph, W.fig12_series(10)["fig4+10"])
    tails = time.perf_counter() - t0
    t0 = time.perf_counter()
    count_subgraphs(graph, SERIES["fig4+10"])
    wedges = time.perf_counter() - t0
    assert wedges < tails
