"""The Plan layer: frozen, picklable pattern-compilation artifacts.

Fringe-SGC's performance model rests on a strict split between
*pattern-side* work (done once per pattern, amortized over every graph
and every call) and *graph-side* work (done per input). This module owns
the pattern side. :func:`compile_pattern` bundles everything the
execution backends need into one immutable :class:`CountingPlan`:

* the core/fringe :class:`~repro.patterns.decompose.Decomposition`;
* the matcher's :class:`~repro.core.matcher.CorePlan` (matching order,
  degree filters, symmetry restrictions, group order);
* the ``(anch, k)`` anchor bitsets and the compiled
  :class:`~repro.core.fringe_poly.FringePolynomial`;
* the closed-form kind of a 1-/2-vertex core (paper §3.4's dedicated
  code), named in :mod:`repro.core.specialized`, whose kernels build
  closed-form Venn rows for the same polynomial to count;
* the structural normalizer ``inj(P, P) / Π k_t!``.

Every connected pattern compiles the same way, a single vertex or edge
included (a 1-vertex core with zero or one fringe).

Plans are value objects: they hold no graph state and pickle cleanly (so
they cross process boundaries and can be persisted). The
:class:`repro.runtime.Runtime` LRU caches them under a deterministic
:func:`plan_key` (canonical pattern form + config), computed by the
cache, not by compilation.

Normalization — ``sigma * group_order / denominator`` with the
non-integrality assertion — lives *only* here (:func:`exact_divide` /
:meth:`CountingPlan.normalize`): matcher backends and the polynomial
over closed-form rows alike give a raw ``sigma`` and the plan divides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..graph.csr import CSRGraph
from ..patterns.decompose import Decomposition, decompose
from ..patterns.pattern import Pattern
from .fringe_poly import FringePolynomial, compile_fringe_polynomial
from .matcher import CorePlan, build_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> plan)
    from .engine import EngineConfig

__all__ = ["CountingPlan", "compile_pattern", "plan_key", "exact_divide"]

def exact_divide(total: int, denominator: int, context: str = "count") -> int:
    """The one normalization code path shared by every route.

    Divides the raw ordered-embedding sum by the structural normalizer and
    asserts integrality — a non-zero remainder always indicates an engine
    bug (or, for partitioned runs, an insufficient halo).
    """
    value, rem = divmod(total, denominator)
    if rem:
        raise AssertionError(
            f"non-integral {context}: {total} / {denominator} — engine bug"
        )
    return value


def plan_key(pattern: Pattern, config: "EngineConfig") -> tuple:
    """Deterministic cache key: canonical pattern certificate + config.

    The certificate is exact at every size, so isomorphic patterns share
    one plan regardless of vertex labeling; it is cached on the pattern
    object, so keying one pattern twice costs one search.
    """
    return (pattern.canonical_key(), config)


@dataclass(frozen=True, eq=False)  # identity semantics: poly holds arrays
class CountingPlan:
    """Everything pattern-side, compiled once and reused across inputs."""

    pattern: Pattern
    config: "EngineConfig"
    decomp: Decomposition
    core_plan: CorePlan
    anch: tuple[int, ...]
    k: tuple[int, ...]
    anchored_positions: tuple[int, ...]
    poly: FringePolynomial
    specialized_kind: str | None
    denominator: int

    # ------------------------------------------------------------------
    @property
    def q(self) -> int:
        return self.decomp.q

    @property
    def group_order(self) -> int:
        return self.core_plan.group_order

    @property
    def aut_size(self) -> int:
        """|Aut(P)| computed structurally (never by enumeration)."""
        return self.denominator * self.decomp.fringe_permutation_factor()

    def normalize(self, sigma: int, *, context: str = "count") -> int:
        """``sigma * group_order / denominator`` — the single shared
        normalization (see :func:`exact_divide`)."""
        return exact_divide(sigma * self.group_order, self.denominator, context)

    def specialized_engine(self):
        """A closed-form kernel for this plan's core, or None.

        The kernel is built from this plan's core plan: calling it on a
        graph returns the closed-form Venn rows of the core embeddings,
        which :attr:`poly` (or a family member's polynomial) then counts.
        """
        if self.specialized_kind is None:
            return None
        from .specialized import CLOSED_FORMS

        return CLOSED_FORMS[self.decomp.num_core](self)

    def __repr__(self) -> str:  # keep the (potentially huge) poly out
        return (
            f"CountingPlan(pattern={self.pattern!r}, "
            f"denominator={self.denominator}, "
            f"specialized={self.specialized_kind!r})"
        )


def compile_pattern(
    pattern: Pattern,
    config: "EngineConfig | None" = None,
    *,
    decomposition: Decomposition | None = None,
) -> CountingPlan:
    """Perform all pattern-side work and freeze it into a CountingPlan.

    ``decomposition`` overrides the paper's heuristic core choice (any
    valid core yields the same counts); plans built from an explicit
    decomposition are still valid cache values but the runtime never
    caches them, since the key cannot see the core choice.
    """
    from .engine import EngineConfig

    cfg = config or EngineConfig()
    if not pattern.is_connected:
        raise ValueError("Fringe-SGC counts connected patterns")

    decomp = decomposition if decomposition is not None else decompose(pattern)
    core_plan = build_plan(decomp, symmetry_breaking=cfg.symmetry_breaking)
    anch, k = decomp.anchor_bitsets()
    anchored_positions = tuple(decomp.matching_order.index(c) for c in decomp.anchored)
    # the polynomial is always compiled: it is the one fringe evaluator
    # of every route but the serial oracle — the frontier and pool
    # backends score matched cores with it (a family sharing one core
    # hands every member's plan to one pass), and the runtime scores the
    # closed forms' Venn rows with it
    poly = compile_fringe_polynomial(anch, k, decomp.q)
    # imported here: both modules import this one
    from .backends import SerialBackend
    from .specialized import CLOSED_FORMS

    closed_form = CLOSED_FORMS.get(decomp.num_core)
    draft = CountingPlan(
        pattern=pattern,
        config=cfg,
        decomp=decomp,
        core_plan=core_plan,
        anch=anch,
        k=k,
        anchored_positions=anchored_positions,
        poly=poly,
        specialized_kind=closed_form.kind if closed_form else None,
        denominator=1,
    )
    # |Aut(P)| / Π k_t! — the fringe method run on the pattern itself
    # (DESIGN.md §1), on the per-match oracle: a pattern graph has few
    # core matches, so the vectorized backends only add set-up cost.
    pattern_graph = CSRGraph.from_edges(pattern.edges(), num_vertices=pattern.n)
    partial = SerialBackend().run(draft, pattern_graph)
    denominator = partial.sigma * core_plan.group_order
    if denominator <= 0:
        raise AssertionError("pattern must embed in itself")
    return replace(draft, denominator=denominator)
