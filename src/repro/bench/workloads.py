"""Per-figure workload definitions (graphs, patterns, systems, budgets).

One entry per evaluation artifact of the paper. Scales are chosen so the
full ``pytest benchmarks/ --benchmark-only`` run finishes on a laptop
while preserving each figure's qualitative shape (who wins, the trend as
fringes are added, where DNFs appear).
"""

from __future__ import annotations

from ..graph import datasets
from ..graph import generators as gen
from ..graph.csr import CSRGraph
from ..patterns import catalog
from ..patterns.pattern import Pattern

__all__ = [
    "ten_inputs",
    "fig08_patterns",
    "fig09_patterns",
    "fig10_patterns",
    "fig11_patterns",
    "fig12_series",
    "fig13_series",
    "fig14_series",
    "fig15_patterns",
    "kron_input",
    "internet_input",
    "frontier_patterns",
    "frontier_inputs",
    "pool_patterns",
    "pool_inputs",
    "ALL_SYSTEMS",
    "FRINGE_ONLY",
    "FRONTIER_VS_SERIAL",
    "POOL_SYSTEMS",
]

ALL_SYSTEMS = ("fringe-sgc", "graphset-like", "tdfs-like", "stmatch-like")
FRINGE_ONLY = ("fringe-sgc",)
# the frontier matcher against the default engine="auto" route
# ("fringe-sgc", closed forms for 1-/2-vertex cores) and the serial oracle
FRONTIER_VS_SERIAL = ("fringe-frontier", "fringe-sgc", "fringe-serial")
# the serial reference, a pool started inside every call and the warm
# pool; run_figure cross-checks every cell's count across the three
POOL_SYSTEMS = ("fringe-serial", "fringe-pool-cold", "fringe-pool")


def ten_inputs(scale: str = "tiny") -> dict[str, CSRGraph]:
    """The Table 1 inputs (synthetic stand-ins) for geomean figures."""
    return {name: datasets.make(name, scale) for name in datasets.dataset_names()}


def kron_input(scale: str = "tiny") -> dict[str, CSRGraph]:
    """The per-input study graph (Fig. 15 uses kron_g500-logn20)."""
    return {"kron_g500-logn20": datasets.make("kron_g500-logn20", scale)}


def internet_input(scale: str = "small") -> dict[str, CSRGraph]:
    """The Fig. 3 counting-explosion graph."""
    return {"internet": datasets.make("internet", scale)}


def small_fig4_graph() -> dict[str, CSRGraph]:
    """A reduced Kronecker input for the §6.2 fringe-scaling series (the
    patterns are heavy enough that the tiny standard input suffices)."""
    return {"kron-small": gen.kronecker(7, 8, seed=16)}


# ----------------------------------------------------------------------
# §6.1 figures
# ----------------------------------------------------------------------
def fig08_patterns() -> dict[str, Pattern]:
    """1-vertex core: k-stars, k = 2..6."""
    return catalog.vertex_core_family(6)


def fig09_patterns() -> dict[str, Pattern]:
    """2-vertex (edge) core, growing fringe counts up to 7 vertices."""
    return catalog.edge_core_family()


def fig10_patterns() -> dict[str, Pattern]:
    """triangle core."""
    return catalog.triangle_core_family()


def fig11_patterns() -> dict[str, Pattern]:
    """wedge core."""
    return catalog.wedge_core_family()


# ----------------------------------------------------------------------
# §6.2 systematic fringe addition (fringe-sgc only; others cannot run)
# ----------------------------------------------------------------------
def _fig4_series(anchors: tuple[int, ...], upto: int) -> dict[str, Pattern]:
    base = catalog.fig4_pattern()
    out: dict[str, Pattern] = {"fig4+0": base}
    for extra in range(2, upto + 1, 2):
        out[f"fig4+{extra}"] = base.with_fringe(anchors, extra)
    return out


def fig12_series(upto: int = 10) -> dict[str, Pattern]:
    """Fig. 12: adding tail fringes to the Fig. 4 pattern."""
    return _fig4_series((0,), upto)


def fig13_series(upto: int = 10) -> dict[str, Pattern]:
    """Fig. 13: adding wedge fringes."""
    return _fig4_series((0, 1), upto)


def fig14_series(upto: int = 10) -> dict[str, Pattern]:
    """Fig. 14: adding tri-fringes."""
    return _fig4_series((0, 1, 2), upto)


# ----------------------------------------------------------------------
# frontier-vs-serial: patterns with >= 3 core vertices, where the
# vectorized frontier matcher does the heavy lifting (the 1-/2-core
# families bottleneck on venn/fc, which both systems share).
# ----------------------------------------------------------------------
def frontier_patterns() -> dict[str, Pattern]:
    return {
        "triangle": catalog.triangle(),
        "4-cycle": catalog.four_cycle(),
        "diamond": catalog.diamond(),
        "4-clique": catalog.four_clique(),
        "tailed 4-clique": catalog.tailed_four_clique(1),
        "3-tailed 4-clique": catalog.tailed_four_clique(3),
    }


def frontier_inputs(scale: str = "tiny") -> dict[str, CSRGraph]:
    """One Kronecker + two dataset stand-ins (BENCH_frontier.json cells)."""
    return {
        name: datasets.make(name, scale)
        for name in ("kron_g500-logn20", "amazon0601", "internet")
    }


# ----------------------------------------------------------------------
# cold vs warm persistent pool (BENCH_pool.json): small inputs where
# worker start-up dominates — exactly the latency the resident pool
# amortizes away.
# ----------------------------------------------------------------------
def pool_patterns() -> dict[str, Pattern]:
    return {
        "wedge": catalog.wedge(),
        "3-star": catalog.star(3),
        "diamond": catalog.diamond(),
        "4-star": catalog.star(4),
    }


def pool_inputs(scale: str = "tiny") -> dict[str, CSRGraph]:
    return {
        name: datasets.make(name, scale)
        for name in ("kron_g500-logn20", "amazon0601")
    }


# ----------------------------------------------------------------------
# Fig. 15 per-input study
# ----------------------------------------------------------------------
def fig15_patterns() -> dict[str, Pattern]:
    """Vertex, edge, and triangle cores combined (the Fig. 15 x-axis)."""
    out: dict[str, Pattern] = {}
    out.update({k: v for k, v in catalog.vertex_core_family(4).items()})
    out["triangle"] = catalog.triangle()
    out["tailed triangle"] = catalog.tailed_triangle()
    out["diamond"] = catalog.diamond()
    out["4-clique"] = catalog.four_clique()
    out["tailed 4-clique"] = catalog.tailed_four_clique(1)
    return out
