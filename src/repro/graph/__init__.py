"""Graph substrate: CSR storage, I/O, generators, datasets, statistics.

The submodules ``generators``, ``datasets``, ``io`` and ``stats`` load on
first attribute access (PEP 562), so a count that reads one edge list
never compiles the generators.
"""

import importlib

from .csr import CSRGraph
from .build import clean_edges, compact_labels, graph_from_raw_edges

_SUBMODULES = ("generators", "datasets", "io", "stats")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CSRGraph",
    "clean_edges",
    "compact_labels",
    "graph_from_raw_edges",
    "generators",
    "datasets",
    "io",
    "stats",
]
