"""Workload definitions: the op mixes, their rationale, and expected counts.

Every workload is a closed loop over whole passes of a fixed mix; the
order inside a pass is shuffled by the workload seed. Graph names refer
to :mod:`inputs` (``D`` dense/skewed, ``S`` sparse ~4k vertices, ``s``
the same kind at ~300 vertices).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

# Oracle configuration the expected counts were computed with.
ORACLE = {"engine": "general", "fc_impl": "iterative", "specialized": False}
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


@dataclass(frozen=True)
class Op:
    graph: str  # "D" | "S" | "s"
    pattern: str  # DSL expression
    engine: str = "auto"
    use_cache: bool = False  # HTTP only: result-cache read/write
    heavy: bool = False  # HTTP only: the class p90 is meant to land in

    @property
    def kind(self) -> str:
        cache = "+cache" if self.use_cache else ""
        return f"{self.graph}:{self.pattern}:{self.engine}{cache}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runner: str  # "inproc" | "http" | "cli"
    mix: tuple[Op, ...]
    connections: int = 1
    serve_args: tuple[str, ...] = ()


# 4-cycle on D (the most Venn-heavy op) appears twice, so the top fifth of
# a pass is one kind and p90 falls inside it rather than between kinds.
INPROC_MIX = tuple(
    [Op("D", p, "frontier") for p in ("triangle", "paw", "tailed-triangle", "4-clique", "4-cycle",
                                       "4-cycle")]
    + [Op("S", p, "frontier") for p in ("triangle", "diamond", "tailed-triangle", "4-clique")]
)

# Mix M. Cheap specialized requests are ~2/3 of a pass so p50 lands in
# that class; the three heavy requests are the top ~1/5 so p90 lands in
# the heavy class. 6-star pays the brute-force canonical form twice per
# request (result-cache key + plan key) for a sub-millisecond count.
HTTP_MIX = tuple(
    [Op("D", p) for p in ("wedge", "triangle", "diamond", "tailed-triangle", "paw")]
    + [Op("s", p) for p in ("wedge", "4-star", "triangle", "diamond", "tailed-triangle",
                            "3-tailed-triangle")]
    + [Op("s", "6-star")]
    + [Op("s", "4-cycle", use_cache=True), Op("D", "4-cycle", "frontier", use_cache=True)]
    + [Op("S", "4-clique", "frontier", heavy=True), Op("D", "4-clique", heavy=True),
       Op("D", "4-clique", "frontier", heavy=True)]
)

# triangle on S appears twice so the middle third of a pass is one kind
# and p50 falls inside it; the slowest sixth (p90) is the 8-vertex pattern.
CLI_MIX = (
    Op("S", "wedge"),
    Op("S", "triangle"),
    Op("S", "triangle"),
    Op("s", "6-star"),
    Op("s", "triangle + 2x0 + 3x0&1"),
    Op("s", "fig4"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inproc-frontier",
            "Runtime.count(engine=frontier) in-process on dense D and sparse S: "
            "match, Venn and polynomial do the work; serve, pool and compile do none",
            "inproc",
            INPROC_MIX,
        ),
        Workload(
            "http-thread",
            "2 closed-loop HTTP connections, mix M, thread executor: p50 is serve/HTTP/"
            "runtime overhead on cheap requests; result cache sees reads and writes",
            "http",
            HTTP_MIX,
            connections=2,
        ),
        Workload(
            "http-pool",
            "the same traffic as http-thread with serve --pool persistent --pool-workers 2, "
            "isolating pool dispatch, plan pickling, call-lock wait and shm attach",
            "http",
            HTTP_MIX,
            connections=2,
            serve_args=("--pool", "persistent", "--pool-workers", "2"),
        ),
        Workload(
            "cli-oneshot",
            "one python -m repro count process per op: interpreter start, import, "
            "edge-list parsing and compiling from scratch sit in the measured path",
            "cli",
            CLI_MIX,
        ),
    )
}


def load_expected() -> dict:
    """``{graph name: {"base_fingerprint", "counts": {pattern: int}}}``."""
    data = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return {
        g: {"base_fingerprint": v["base_fingerprint"],
            "counts": {p: int(c) for p, c in v["counts"].items()}}
        for g, v in data["graphs"].items()
    }


def patterns_per_graph() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for w in WORKLOADS.values():
        for op in w.mix:
            if op.pattern not in out.setdefault(op.graph, []):
                out[op.graph].append(op.pattern)
    return out
