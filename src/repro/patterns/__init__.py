"""Pattern toolkit: pattern type, catalog, decomposition, symmetry search,
automorphisms.

The submodules load on first attribute access (PEP 562).
"""

import importlib

from .pattern import Pattern, all_connected_patterns
from .decompose import Decomposition, FringeType, decompose, decomposition_from_core

_SUBMODULES = ("automorphisms", "catalog", "dsl", "isomorphism", "orbits", "symmetry")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Pattern",
    "all_connected_patterns",
    "Decomposition",
    "FringeType",
    "decompose",
    "decomposition_from_core",
    "automorphisms",
    "catalog",
    "isomorphism",
    "dsl",
    "orbits",
    "symmetry",
]
