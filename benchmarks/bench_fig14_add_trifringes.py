"""Fig. 14: Fringe-SGC throughput while adding tri-fringes to Fig. 4.

Paper shape: adding 10 tri-fringes *speeds counting up* by 1.56x — each
tri-fringe raises the pattern's core degree requirements, so fewer
triangles in the graph qualify as cores (the degree filter prunes more).
Tri-fringes draw from a single Venn region ({u,v,w}), so the formula
itself barely grows.
"""

import json

import pytest

from repro import count_subgraphs
from repro.bench import workloads as W
from repro.bench.harness import provenance

SERIES = W.fig14_series(10)


@pytest.fixture(scope="module")
def graph():
    return W.small_fig4_graph()["kron-small"]


@pytest.mark.parametrize("name", list(SERIES))
def test_fig14_point(benchmark, graph, name, results_dir):
    res = benchmark.pedantic(
        lambda: count_subgraphs(graph, SERIES[name]), rounds=1, iterations=1
    )
    assert res.count >= 0
    path = results_dir / "fig14.json"
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


def test_fig14_trifringes_nearly_free(graph):
    """Tri-fringes add only single-region draws: the +10 pattern must not
    cost more than a small multiple of the base (the paper even sees a
    1.56x speedup from stronger degree filtering)."""
    import time

    t0 = time.perf_counter()
    count_subgraphs(graph, SERIES["fig4+0"])
    base = time.perf_counter() - t0
    t0 = time.perf_counter()
    count_subgraphs(graph, SERIES["fig4+10"])
    extended = time.perf_counter() - t0
    assert extended < 8 * base, (base, extended)
