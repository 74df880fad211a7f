"""Rendering and persistence for benchmark results.

Emits the same row/series shapes the paper's figures plot: patterns along
the x-axis, one line per system, geometric-mean throughput on a log-scale
y-axis. The ASCII renderer prints exactly those series; the JSON writer
feeds EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from .harness import FigureResult

__all__ = ["render_figure", "save_figure", "load_figure", "render_speedups"]


def _fmt_tp(value: float | None) -> str:
    if value is None:
        return "DNF"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.1f}"


def render_figure(result: FigureResult, *, metric: str = "edges/s (geomean)") -> str:
    """ASCII table: one row per system, one column per pattern."""
    patterns = result.patterns()
    systems = result.systems()
    width = max([len(s) for s in systems] + [12])
    col = max([len(p) for p in patterns] + [10]) + 1
    lines = [f"== {result.figure} — {metric} =="]
    header = " " * width + "".join(p.rjust(col) for p in patterns)
    lines.append(header)
    for system in systems:
        cells = [
            _fmt_tp(result.geomean_throughput(system, p)).rjust(col) for p in patterns
        ]
        lines.append(system.ljust(width) + "".join(cells))
    return "\n".join(lines)


def render_speedups(result: FigureResult, over: str, of: str = "fringe-sgc") -> str:
    """Speedup of ``of`` over one baseline, per pattern (paper §6.1)."""
    rows = []
    for p in result.patterns():
        s = result.speedup(p, over=over, of=of)
        rows.append(f"  {p:<24} {s:.2f}x" if s is not None else f"  {p:<24} n/a")
    return f"speedup of {of} over {over}:\n" + "\n".join(rows)


def save_figure(result: FigureResult, path: str | Path) -> None:
    payload = {
        "figure": result.figure,
        "measurements": [
            {
                "system": m.system,
                "pattern": m.pattern,
                "graph": m.graph,
                "status": m.status,
                "count": None if m.count is None else str(m.count),
                "seconds": m.seconds,
                "samples": list(m.samples),
                "edges": m.edges,
            }
            for m in result.measurements
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


def load_figure(path: str | Path) -> FigureResult:
    from .harness import Measurement

    data = json.loads(Path(path).read_text())
    result = FigureResult(figure=data["figure"])
    for m in data["measurements"]:
        result.measurements.append(
            Measurement(
                system=m["system"],
                pattern=m["pattern"],
                graph=m["graph"],
                status=m["status"],
                count=None if m["count"] is None else int(m["count"]),
                seconds=m["seconds"],
                edges=m["edges"],
                samples=tuple(m.get("samples", ())),
            )
        )
    return result
