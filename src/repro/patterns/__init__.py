"""Pattern toolkit: pattern type, catalog, decomposition, symmetry search,
automorphisms."""

from .pattern import Pattern, all_connected_patterns
from .decompose import Decomposition, FringeType, decompose, decomposition_from_core
from . import automorphisms, catalog, dsl, isomorphism, orbits, symmetry

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
