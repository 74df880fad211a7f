"""Fig. 12: Fringe-SGC throughput while adding tail fringes to Fig. 4.

The starting pattern (16 vertices, 25 edges) is already beyond every
other framework, so — exactly as in the paper — only Fringe-SGC runs.
Paper shape: 10 extra tails cost < 3.5x throughput; our Python engine
pays a larger (but still polynomial, emphatically non-exponential)
factor because the per-match fringe polynomial dominates at this small
graph scale. The shape assertion is therefore: the cost of +10 fringes
stays within a polynomial envelope, vastly below the >2^10 growth a
whole-pattern enumerator would exhibit.
"""

import json

import pytest

from repro import count_subgraphs
from repro.bench import workloads as W
from repro.bench.harness import provenance

SERIES = W.fig12_series(10)


@pytest.fixture(scope="module")
def graph():
    return W.small_fig4_graph()["kron-small"]


@pytest.mark.parametrize("name", list(SERIES))
def test_fig12_point(benchmark, graph, name, results_dir):
    res = benchmark.pedantic(
        lambda: count_subgraphs(graph, SERIES[name]), rounds=1, iterations=1
    )
    assert res.count > 0
    path = results_dir / "fig12.json"
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


def test_fig12_no_exponential_blowup(graph):
    import time

    t0 = time.perf_counter()
    count_subgraphs(graph, SERIES["fig4+0"])
    base = time.perf_counter() - t0
    t0 = time.perf_counter()
    count_subgraphs(graph, SERIES["fig4+10"])
    extended = time.perf_counter() - t0
    # +10 pattern vertices would cost an enumerator >= 2^10; the fringe
    # formula pays a small polynomial factor
    assert extended / base < 128, (base, extended)
