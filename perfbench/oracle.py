"""Recompute ``expected.json`` with the serial reference engine.

Counts every (graph, pattern) pair the workloads use with
``engine="general"``, ``fc_impl="iterative"``, ``specialized=False`` on
the default-seed and the held-out-seed relabelings of each base graph,
requires the two to agree, and stores them keyed by the base graph's
fingerprint. Slow (minutes); run only when the inputs or mixes change::

    PYTHONPATH=src python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from repro.core.engine import EngineConfig
    from repro.graph.io import load_graph
    from repro.patterns.dsl import parse_pattern
    from repro.runtime import Runtime

    cfg = EngineConfig(fc_impl=workloads.ORACLE["fc_impl"],
                       specialized=workloads.ORACLE["specialized"])
    rt = Runtime()
    out = {"oracle": workloads.ORACLE, "graphs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        files = {seed: inputs.write_inputs(Path(tmp) / str(seed), seed)
                 for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)}
        for gname, patterns in workloads.patterns_per_graph().items():
            graphs = {seed: load_graph(files[seed][gname]["path"]) for seed in files}
            counts = {}
            for p in patterns:
                pat = parse_pattern(p)
                vals = set()
                for seed, g in graphs.items():
                    t0 = time.perf_counter()
                    vals.add(rt.count(g, pat, engine=workloads.ORACLE["engine"],
                                      config=cfg).count)
                    print(f"{gname} {p!r} seed={seed}: {time.perf_counter() - t0:.1f} s",
                          file=sys.stderr)
                if len(vals) != 1:
                    raise SystemExit(f"oracle disagrees across relabelings: {gname} {p}")
                counts[p] = str(vals.pop())
            out["graphs"][gname] = {
                "base_fingerprint": files[workloads.DEFAULT_SEED][gname]["base_fingerprint"],
                "input_fingerprints": {str(seed): g.fingerprint() for seed, g in graphs.items()},
                "counts": counts,
            }
    workloads.EXPECTED_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
