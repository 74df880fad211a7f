"""Graph readers and writers for the formats the paper's inputs ship in.

Supported formats:

* SNAP/Galois edge lists (``.txt``/``.el``): whitespace-separated pairs,
  ``#``/``%`` comment lines.
* Matrix Market coordinate (``.mtx``): SuiteSparse Matrix Collection (the
  paper's "SMC" source) symmetric pattern matrices; 1-based.
* DIMACS shortest-path (``.gr``): ``a u v w`` arc lines, 1-based (the
  USA-road-d inputs).
* Binary ``.npz``: our own round-trip format storing the CSR arrays
  directly, for fast benchmark startup.

All loaders return an undirected simple :class:`~repro.graph.csr.CSRGraph`.
"""

from __future__ import annotations

import io as _io
import warnings
from pathlib import Path

import numpy as np

from .build import graph_from_raw_edges
from .csr import INDEX_DTYPE, CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_mtx",
    "write_mtx",
    "read_dimacs_gr",
    "read_metis",
    "write_metis",
    "read_npz",
    "write_npz",
    "load_graph",
]


def _open_text(path) -> _io.TextIOBase:
    return open(path, "r", encoding="utf-8")


def read_edge_list(path, *, comments: str = "#%", compact: bool = False) -> CSRGraph:
    """Read a SNAP-style whitespace-separated edge list.

    One ``np.loadtxt`` pass reads the first two columns as int64: blank
    lines and text after a ``comments`` character are skipped, further
    columns are ignored, and a line with one token raises ``ValueError``.
    An empty file is an empty graph.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        edges = np.loadtxt(
            path, dtype=INDEX_DTYPE, comments=list(comments), usecols=(0, 1), ndmin=2,
            encoding="utf-8",
        )
    return graph_from_raw_edges(edges, compact=compact)


def write_edge_list(graph: CSRGraph, path) -> None:
    """Write each undirected edge once as ``u v`` per line."""
    edges = graph.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# undirected simple graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_mtx(path) -> CSRGraph:
    """Read a Matrix Market coordinate file as an undirected graph.

    Handles both ``symmetric`` and ``general`` storage; entry values (if
    present) are ignored — we only use the sparsity pattern, matching how
    the paper treats SMC matrices as graphs.
    """
    with _open_text(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("not a MatrixMarket file")
        if "coordinate" not in header:
            raise ValueError("only coordinate (sparse) MatrixMarket supported")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrows, ncols, nnz = (int(x) for x in line.split())
        n = max(nrows, ncols)
        edges = np.empty((nnz, 2), dtype=INDEX_DTYPE)
        k = 0
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            edges[k, 0] = int(parts[0]) - 1
            edges[k, 1] = int(parts[1]) - 1
            k += 1
        if k != nnz:
            raise ValueError(f"expected {nnz} entries, found {k}")
    graph = graph_from_raw_edges(edges)
    if graph.num_vertices < n:
        # preserve isolated trailing vertices declared in the header
        rowptr = np.concatenate(
            [graph.rowptr, np.full(n - graph.num_vertices, graph.rowptr[-1], dtype=INDEX_DTYPE)]
        )
        graph = CSRGraph(rowptr, graph.colidx, validate=False)
    return graph


def write_mtx(graph: CSRGraph, path) -> None:
    edges = graph.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{graph.num_vertices} {graph.num_vertices} {len(edges)}\n")
        for u, v in edges:
            # MatrixMarket symmetric stores the lower triangle, 1-based.
            fh.write(f"{max(u, v) + 1} {min(u, v) + 1}\n")


def read_dimacs_gr(path) -> CSRGraph:
    """Read a 9th DIMACS challenge ``.gr`` file (arc weights dropped)."""
    rows: list[tuple[int, int]] = []
    declared_n = None
    with _open_text(path) as fh:
        for line in fh:
            if line.startswith("c") or not line.strip():
                continue
            if line.startswith("p"):
                parts = line.split()
                declared_n = int(parts[2])
                continue
            if line.startswith("a") or line.startswith("e"):
                parts = line.split()
                rows.append((int(parts[1]) - 1, int(parts[2]) - 1))
    edges = np.asarray(rows, dtype=INDEX_DTYPE).reshape(-1, 2)
    graph = graph_from_raw_edges(edges)
    if declared_n is not None and graph.num_vertices < declared_n:
        rowptr = np.concatenate(
            [
                graph.rowptr,
                np.full(declared_n - graph.num_vertices, graph.rowptr[-1], dtype=INDEX_DTYPE),
            ]
        )
        graph = CSRGraph(rowptr, graph.colidx, validate=False)
    return graph


def read_metis(path) -> CSRGraph:
    """Read a METIS ``.graph`` file (1-based adjacency lists per line).

    Supports the unweighted format: first non-comment line is
    ``<n> <m> [fmt]``; line ``i`` lists the neighbours of vertex ``i``.
    Weighted variants (fmt != 0) are rejected explicitly.
    """
    with _open_text(path) as fh:
        header = None
        rows: list[list[int]] = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            if header is None:
                parts = line.split()
                if len(parts) >= 3 and parts[2] not in ("0", "00", "000"):
                    raise ValueError("weighted METIS graphs are not supported")
                header = (int(parts[0]), int(parts[1]))
                continue
            rows.append([int(x) - 1 for x in line.split()])
        if header is None:
            raise ValueError("empty METIS file")
    n, m = header
    if len(rows) != n:
        raise ValueError(f"METIS header declares {n} vertices, found {len(rows)} lines")
    edges = [(v, w) for v, nbrs in enumerate(rows) for w in nbrs]
    arr = np.asarray(edges, dtype=INDEX_DTYPE).reshape(-1, 2)
    graph = CSRGraph.from_edges(arr, num_vertices=n)
    if graph.num_edges != m:
        raise ValueError(
            f"METIS header declares {m} edges, adjacency lists yield {graph.num_edges}"
        )
    return graph


def write_metis(graph: CSRGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            fh.write(" ".join(str(int(w) + 1) for w in graph.neighbors(v)) + "\n")


def write_npz(graph: CSRGraph, path) -> None:
    np.savez_compressed(path, rowptr=graph.rowptr, colidx=graph.colidx)


def read_npz(path) -> CSRGraph:
    with np.load(path) as data:
        return CSRGraph(data["rowptr"], data["colidx"], validate=False)


_LOADERS = {
    ".graph": read_metis,
    ".metis": read_metis,
    ".txt": read_edge_list,
    ".el": read_edge_list,
    ".edges": read_edge_list,
    ".mtx": read_mtx,
    ".gr": read_dimacs_gr,
    ".npz": read_npz,
}


def load_graph(path) -> CSRGraph:
    """Dispatch on file extension to the right reader."""
    suffix = Path(path).suffix.lower()
    try:
        loader = _LOADERS[suffix]
    except KeyError:
        raise ValueError(f"unknown graph format {suffix!r}; supported: {sorted(_LOADERS)}") from None
    return loader(path)
