"""Smoke self-test of the benchmark: one set-up and one pass per workload.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced on the held-out seed, requires
every op to be counted exactly, every mechanism check to pass and every
metric named in BENCHMARK.json to be emitted with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_pass(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", str(workloads.HELD_OUT_SEED),
               "--smoke", "--trace", str(trace))
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], res.stderr[-2000:]
    assert out["failed"] == 0 and out["attempted"] > 0
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_benchmark_json_matches_code():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tracing.PER_LAYER]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run(tmp_path, "--workload", "inproc-frontier", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    assert res.returncode != 0
    assert res.stdout.strip() == ""
