"""Benchmark harness: run (system × pattern × graph) cells like the paper.

The paper's §6 methodology: run each SGC system on each input graph with a
per-run time budget (half an hour there; configurable and much smaller
here), report throughput = graph edges / seconds (higher is better),
aggregate across the ten inputs with the geometric mean, and mark systems
that exceed the budget as "did not finish" — those cells are excluded the
way the paper drops codes "where more than one input times out".

Every cell also cross-checks the returned count against the fringe
engine's, so a benchmark run doubles as an end-to-end correctness test.

Runs leave a trajectory: with ``record_dir=`` (or the ``REPRO_BENCH_DIR``
environment variable) set, :func:`run_figure` appends one JSONL record
per (system × pattern × graph) cell to ``BENCH_<figure>.json`` in that
directory, as each cell completes — so even interrupted sweeps are
recorded, and successive benchmark runs populate the ``BENCH_*.json``
trajectory going forward.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..baselines import (
    BaselineTimeout,
    IEPCounter,
    StackEnumerator,
    TDFSCounter,
)
from ..core.frontier import adjacency_bitmap, upper_starts
from ..core.venn import pair_index, slot_common_neighbors
from ..graph.csr import CSRGraph
from ..patterns.pattern import Pattern
from ..runtime import Runtime

__all__ = [
    "CELL_MIN_SECONDS",
    "CELL_REPEATS",
    "Measurement",
    "SYSTEMS",
    "run_cell",
    "run_figure",
    "geomean",
    "FigureResult",
    "measurement_record",
    "RecordAppender",
]


class RecordAppender:
    """Append JSONL records with one atomic ``write()`` each.

    Concurrent benchmark runs append to the same ``BENCH_<figure>.json``;
    buffered ``file.write`` calls from separate processes can interleave
    mid-line. Opening with ``O_APPEND`` and emitting each record as a
    single ``os.write`` makes every line land contiguously (POSIX appends
    are atomic seek+write), so the file stays parseable no matter how
    many runs share it.
    """

    def __init__(self, path: str | Path):
        self._fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RecordAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class Measurement:
    system: str
    pattern: str
    graph: str
    status: str  # "ok" | "dnf" | "unsupported"
    count: int | None
    seconds: float | None  # an ok cell's median sample
    edges: int
    samples: tuple[float, ...] = ()  # an ok cell's CELL_REPEATS timings

    @property
    def throughput(self) -> float | None:
        """Edges per second (the paper's normalized §6 metric)."""
        if self.status != "ok" or not self.seconds:
            return None
        return self.edges / self.seconds


# ----------------------------------------------------------------------
# systems under test
# ----------------------------------------------------------------------
# Every ok cell is timed at least this many times and reports the median:
# a single shot of a millisecond cell swings by a third from one run to
# the next.
CELL_REPEATS = 5
# ... and until its samples add up to this many seconds, so a cell of a
# few milliseconds takes a median of dozens of runs, not of five.
CELL_MIN_SECONDS = 0.25

# Dedicated runtime for benchmark runs: the plan cache amortizes pattern
# compilation across the inputs of a figure without polluting (or being
# skewed by) the process-wide serving runtime.
_BENCH_RUNTIME = Runtime()


def _fringe_runner(pattern: Pattern, engine: str = "auto", parallel=None):
    # compile when the runner is built, as the baselines build their
    # counters: a cell times counting, not the plan cache's first miss
    _BENCH_RUNTIME.plan_for(pattern)

    def run(graph: CSRGraph, timeout_s: float) -> int | None:
        return _BENCH_RUNTIME.count(graph, pattern, engine=engine, parallel=parallel).count

    return run


def _pool_runner(pattern: Pattern, *, cold: bool):
    # small chunks so two workers genuinely split the tiny bench inputs
    # (the pool backend bypasses itself when one chunk covers the graph)
    from ..parallel.pool import ParallelConfig
    from ..parallel.workerpool import shutdown_default_pool

    count = _fringe_runner(
        pattern, engine="frontier", parallel=ParallelConfig(num_workers=2, chunk_size=64)
    )

    def run(graph: CSRGraph, timeout_s: float) -> int | None:
        if cold:  # pay worker start-up inside the measured call
            shutdown_default_pool()
        return count(graph, timeout_s)

    return run


def _baseline_runner(cls):
    def make(pattern: Pattern):
        try:
            counter = cls(pattern)
        except ValueError:
            return None  # pattern unsupported (size limit)

        def run(graph: CSRGraph, timeout_s: float) -> int | None:
            return counter.count(graph, timeout_s=timeout_s).count

        return run

    return make


SYSTEMS: dict[str, Callable[[Pattern], Callable | None]] = {
    "fringe-sgc": lambda pat: _fringe_runner(pat),
    # the frontier-vs-serial comparison pins both sides to a matcher route:
    # "fringe-serial" is the per-match oracle (stack matcher, later-anchors
    # venn, recursive fc), "fringe-frontier" the vectorized backend. Same
    # plans, same counts — the cells isolate the evaluation substrate.
    "fringe-frontier": lambda pat: _fringe_runner(pat, engine="frontier"),
    "fringe-serial": lambda pat: _fringe_runner(pat, engine="general"),
    "graphset-like": _baseline_runner(IEPCounter),
    "tdfs-like": _baseline_runner(TDFSCounter),
    "stmatch-like": _baseline_runner(StackEnumerator),
    # the pool comparison (BENCH_pool.json): a persistent pool started
    # inside every call vs the warm one, both 2 workers over the frontier
    "fringe-pool-cold": lambda pat: _pool_runner(pat, cold=True),
    "fringe-pool": lambda pat: _pool_runner(pat, cold=False),
}


def run_cell(
    system: str,
    pattern: Pattern,
    pattern_name: str,
    graph: CSRGraph,
    graph_name: str,
    *,
    timeout_s: float = 10.0,
) -> Measurement:
    """One (system, pattern, graph) measurement with DNF semantics: the
    median of at least :data:`CELL_REPEATS` timed runs, more until the
    samples reach :data:`CELL_MIN_SECONDS`; DNF if any run times out."""
    runner = SYSTEMS[system](pattern)
    if runner is None:
        return Measurement(system, pattern_name, graph_name, "unsupported", None, None, graph.num_edges)
    dnf = Measurement(system, pattern_name, graph_name, "dnf", None, None, graph.num_edges)
    samples = []
    with obs.span("bench.cell", system=system, pattern=pattern_name, graph=graph_name):
        while len(samples) < CELL_REPEATS or sum(samples) < CELL_MIN_SECONDS:
            start = time.perf_counter()
            try:
                count = runner(graph, timeout_s)
            except BaselineTimeout:
                return dnf
            elapsed = time.perf_counter() - start
            if elapsed > timeout_s:
                # the fringe engine has no cooperative deadline; censor post hoc
                return dnf
            samples.append(elapsed)
    return Measurement(
        system, pattern_name, graph_name, "ok", count, statistics.median(samples),
        graph.num_edges, tuple(samples),
    )


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v is not None and v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass
class FigureResult:
    """All measurements of one figure plus derived summary rows."""

    figure: str
    measurements: list[Measurement] = field(default_factory=list)

    def geomean_throughput(self, system: str, pattern_name: str) -> float | None:
        cells = [
            m
            for m in self.measurements
            if m.system == system and m.pattern == pattern_name
        ]
        if not cells:
            return None
        # paper: drop a system from a pattern when >1 input times out
        dnf = sum(1 for m in cells if m.status != "ok")
        if dnf > 1:
            return None
        tps = [m.throughput for m in cells if m.throughput]
        return geomean(tps) if tps else None

    def speedup(self, pattern_name: str, over: str, of: str = "fringe-sgc") -> float | None:
        a = self.geomean_throughput(of, pattern_name)
        b = self.geomean_throughput(over, pattern_name)
        if a is None or b is None or b == 0:
            return None
        return a / b

    def systems(self) -> list[str]:
        return sorted({m.system for m in self.measurements})

    def patterns(self) -> list[str]:
        seen: list[str] = []
        for m in self.measurements:
            if m.pattern not in seen:
                seen.append(m.pattern)
        return seen

    def verify_counts_agree(self) -> None:
        """Every ok cell of one (pattern, graph) must report one count."""
        by_key: dict[tuple[str, str], set[int]] = {}
        for m in self.measurements:
            if m.status == "ok":
                by_key.setdefault((m.pattern, m.graph), set()).add(m.count)
        for key, counts in by_key.items():
            if len(counts) != 1:
                raise AssertionError(f"count disagreement on {key}: {sorted(counts)}")


def git_revision(directory: str | Path) -> str | None:
    """The checkout's ``HEAD`` sha, suffixed ``-dirty`` when tracked files
    outside ``benchmarks/results/`` differ from it; ``None`` outside a git
    checkout. Records written into ``benchmarks/results/`` by the very run
    being stamped do not make it dirty."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=directory, capture_output=True, text=True, timeout=10
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode:
            return None
        status = git(
            "status", "--porcelain", "--untracked-files=no",
            "--", ":(top)", ":(top,exclude)benchmarks/results",
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = head.stdout.strip()
    return f"{sha}-dirty" if status.stdout.strip() else sha


@functools.cache
def provenance() -> dict:
    """Where a record was measured: the source revision
    (:func:`git_revision`), the Python and NumPy versions and the CPU
    count."""
    return {
        "git_sha": git_revision(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def measurement_record(figure: str, m: Measurement) -> dict:
    """One cell as a plain JSON-serializable record (the BENCH_*.json row),
    stamped with :func:`provenance`."""
    return {
        **provenance(),
        "figure": figure,
        "system": m.system,
        "pattern": m.pattern,
        "graph": m.graph,
        "status": m.status,
        "count": None if m.count is None else str(m.count),  # counts overflow JSON readers
        "seconds": m.seconds,
        "samples": list(m.samples),
        "edges": m.edges,
        "throughput_eps": m.throughput,
        "unix_time": time.time(),
    }


def _bench_record_path(figure: str, record_dir) -> Path | None:
    if record_dir is None:
        record_dir = os.environ.get("REPRO_BENCH_DIR") or None
    if record_dir is None:
        return None
    directory = Path(record_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"BENCH_{figure}.json"


def run_figure(
    figure: str,
    patterns: dict[str, Pattern],
    graphs: dict[str, CSRGraph],
    systems: Sequence[str],
    *,
    timeout_s: float = 10.0,
    record_dir: str | Path | None = None,
) -> FigureResult:
    """Full sweep for one figure; counts are cross-checked.

    Mirrors the paper's reporting rule while saving wall clock: once a
    (system, pattern) series has two DNF inputs it is dropped from the
    figure anyway, so its remaining cells are marked DNF without running.

    ``record_dir`` (default: the ``REPRO_BENCH_DIR`` environment
    variable) selects a directory to append per-cell JSONL records to,
    one line per cell into ``BENCH_<figure>.json`` as cells complete.

    Pattern plans compile when a cell's runner is built and each graph's
    pair index, adjacency bitmap, :func:`upper_starts` and per-slot
    common-neighbour counts are built before the sweep, so no cell pays
    any of them inside its timer. The system
    order rotates by one from each (pattern, graph) group to the next, so
    no system always runs first on a freshly touched group.
    """
    if any(system.startswith("fringe") for system in systems):
        # per-graph caches: built once here, not inside the first cell
        for graph in graphs.values():
            pair_index(graph)
            adjacency_bitmap(graph)
            upper_starts(graph)
            slot_common_neighbors(graph)
    record_path = _bench_record_path(figure, record_dir)
    result = FigureResult(figure=figure)
    record_fh = RecordAppender(record_path) if record_path else None
    try:
        with obs.span("bench.figure", figure=figure):
            group = 0
            for pattern_name, pattern in patterns.items():
                dnf_count = {system: 0 for system in systems}
                for graph_name, graph in graphs.items():
                    first = group % len(systems)
                    group += 1
                    for system in [*systems[first:], *systems[:first]]:
                        if dnf_count[system] > 1:
                            cell = Measurement(
                                system, pattern_name, graph_name, "dnf", None, None, graph.num_edges
                            )
                        else:
                            cell = run_cell(
                                system, pattern, pattern_name, graph, graph_name,
                                timeout_s=timeout_s,
                            )
                            if cell.status == "dnf":
                                dnf_count[system] += 1
                        result.measurements.append(cell)
                        if record_fh is not None:
                            record_fh.append(measurement_record(figure, cell))
    finally:
        if record_fh is not None:
            record_fh.close()
    result.verify_counts_agree()
    return result
