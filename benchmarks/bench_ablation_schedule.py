"""Ablation A5: dynamic vs static work scheduling (§3.6).

Two views of the same design choice:

* on the SIMT simulator — chunk makespans under dynamic (atomic counter)
  vs static (round-robin) assignment on the skewed Kronecker input;
* on the CPU parallel layer — the worker pool's one split (interleaved
  root chunks served by work stealing) must return the in-process count
  (scheduling never changes results).
"""

import json

import pytest

from repro import count_subgraphs
from repro.graph import datasets
from repro.gpusim import GPUMachine, MachineConfig, run_ballot_warp
from repro.parallel import ParallelConfig, parallel_count
from repro.patterns import catalog


@pytest.fixture(scope="module")
def graph():
    return datasets.make("kron_g500-logn20", "tiny")


@pytest.mark.parametrize("schedule", ["dynamic", "static"])
def test_simt_schedule(benchmark, graph, schedule, results_dir):
    machine = GPUMachine(MachineConfig(num_sms=16, schedule=schedule, chunk_size=8))
    report = benchmark.pedantic(
        lambda: machine.launch(graph, run_ballot_warp), rounds=1, iterations=1
    )
    path = results_dir / "ablation_schedule.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[f"simt_{schedule}"] = {
        "makespan_steps": report.makespan_steps,
        "load_imbalance": report.load_imbalance,
    }
    path.write_text(json.dumps(data, indent=1))


def test_dynamic_beats_static_makespan(graph):
    dyn = GPUMachine(MachineConfig(num_sms=16, schedule="dynamic", chunk_size=8)).launch(
        graph, run_ballot_warp
    )
    sta = GPUMachine(MachineConfig(num_sms=16, schedule="static", chunk_size=8)).launch(
        graph, run_ballot_warp
    )
    assert dyn.makespan_steps <= sta.makespan_steps


def test_cpu_pool_exact(benchmark, graph, results_dir):
    pattern = catalog.tailed_triangle()
    expect = count_subgraphs(graph, pattern).count
    # 64-root chunks: the 253-vertex graph is more than one chunk, so the
    # count really runs on the pool instead of falling back in-process
    res = benchmark.pedantic(
        lambda: parallel_count(
            graph, pattern, parallel=ParallelConfig(num_workers=2, chunk_size=64)
        ),
        rounds=1,
        iterations=1,
    )
    assert "fringe-pool" in res.engine
    assert res.count == expect
    path = results_dir / "ablation_schedule.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["cpu_pool"] = {"seconds": res.elapsed_s}
    path.write_text(json.dumps(data, indent=1))
