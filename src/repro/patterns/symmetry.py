"""Pattern symmetry by partition refinement (individualization-refinement).

One search answers every pattern-side symmetry question: the canonical
certificate (isomorphic patterns share it, non-isomorphic ones never do),
generators of the automorphism group, and the vertex orbits. It is the
scheme of nauty/Traces (McKay & Piperno, "Practical graph isomorphism,
II", 2014), cut down to pattern sizes:

* **refinement** — split the cells of an ordered partition by neighbour
  counts into every cell until the partition is equitable (colour
  refinement, 1-WL). Sub-cells replace their parent in place, ordered by
  their count signature, so refining commutes with relabeling;
* **individualization** — at a non-discrete partition, give each vertex
  of the first non-singleton cell its own cell in turn and refine again.
  Discrete partitions (leaves) are labelings; the canonical certificate
  is the smallest relabeled adjacency over all leaves;
* **automorphism pruning** — two leaves with equal relabeled adjacency
  differ by an automorphism. It is recorded as a generator, and the
  search returns to the two paths' common ancestor (the automorphism
  maps one subtree onto the other). At every node, children in one orbit
  of the found generators that fix the node's path are searched once;
* **twin quotient** — before any of this, each class of interchangeable
  vertices (equal open or closed neighbourhoods: the fringes of one type,
  clique vertices) shrinks to one coloured vertex, so fringe-heavy
  patterns search a graph the size of their core.

The generators generate the whole group (every first-path child in the
orbit of the first path's child is either pruned by a known generator or
yields one), so :func:`stabilizer_chain` (Schreier–Sims) gets the group
order and the symmetry-breaking orbits from them without listing a single
group element. Optional initial colours restrict the search to
colour-preserving automorphisms — the decoration-preserving core group of
:mod:`repro.patterns.automorphisms` is the group of a coloured graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

__all__ = ["Symmetry", "search", "stabilizer_chain"]

Perm = tuple[int, ...]


@dataclass(frozen=True)
class Symmetry:
    """The result of :func:`search` on an ``n``-vertex (coloured) graph.

    ``certificate`` is ``(n, edges)`` — the canonical edge list, sorted
    ``(i, j)`` pairs with ``i < j`` — plus, for coloured searches, the
    colour of each canonical label. ``generators`` generate the
    (colour-preserving) automorphism group; ``g[v]`` is the image of
    ``v``. ``orbits`` are the group's vertex orbits, sorted by smallest
    member.
    """

    certificate: tuple
    generators: tuple[Perm, ...]
    orbits: tuple[frozenset[int], ...]


def search(
    neighbors: Sequence[Iterable[int]], colors: Sequence[Hashable] | None = None
) -> Symmetry:
    """Canonical certificate, automorphism generators and orbits of the
    graph with adjacency lists ``neighbors``.

    ``colors`` (one mutually comparable value per vertex) seeds the
    partition: automorphisms then map each vertex to one of its colour,
    and the certificate records the colour of every canonical label.

    Twins go first: vertices of one colour with equal open (fringes of one
    type, star leaves) or equal closed (clique vertices) neighbourhoods
    are interchangeable, so each twin class becomes one quotient vertex
    coloured by its colour, kind and size. The individualization search
    runs on the quotient; the canonical labeling lists each class's
    members together, and the generators are the quotient's, lifted, plus
    transpositions of consecutive twins. Without this a k-leaf star costs
    a search ``k`` levels deep from every level.
    """
    n = len(neighbors)
    nbrs = [tuple(ws) for ws in neighbors]
    adj = [sum(1 << w for w in ws) for ws in nbrs]
    color = [0] * n if colors is None else list(colors)

    classes = _twin_classes(adj, color)
    quotient_adj = [
        sum(1 << j for j, other in enumerate(classes) if j != i and adj[cls[0]] >> other[0] & 1)
        for i, cls in enumerate(classes)
    ]
    quotient_color = [
        (color[cls[0]], len(cls) > 1 and bool(adj[cls[0]] >> cls[1] & 1), len(cls))
        for cls in classes
    ]
    quotient_inv, quotient_gens = _individualize_refine(quotient_adj, quotient_color)

    inv = [v for i in quotient_inv for v in classes[i]]
    lab = [0] * n
    for i, v in enumerate(inv):
        lab[v] = i
    edges = tuple(sorted((min(lab[u], lab[w]), max(lab[u], lab[w]))
                         for u in range(n) for w in nbrs[u] if u < w))
    certificate = (n, edges) if colors is None else (n, edges, tuple(colors[v] for v in inv))

    generators: list[Perm] = []
    for gamma in quotient_gens:
        image = [0] * n
        for i, cls in enumerate(classes):
            for v, w in zip(cls, classes[gamma[i]]):
                image[v] = w
        generators.append(tuple(image))
    for cls in classes:
        for v, w in zip(cls, cls[1:]):
            swap = list(range(n))
            swap[v], swap[w] = w, v
            generators.append(tuple(swap))
    return Symmetry(
        certificate=certificate,
        generators=tuple(generators),
        orbits=_orbit_partition(generators, n),
    )


def _twin_classes(adj: list[int], color: list) -> list[tuple[int, ...]]:
    """Classes of same-coloured vertices with equal open or equal closed
    neighbourhoods (a vertex has twins of at most one kind), in order of
    smallest member; every other vertex is a class of its own."""
    n = len(adj)
    by_key: dict[tuple, list[int]] = {}
    for v in range(n):
        by_key.setdefault((color[v], 0, adj[v]), []).append(v)
        by_key.setdefault((color[v], 1, adj[v] | 1 << v), []).append(v)
    class_of = list(range(n))
    for members in by_key.values():
        for v in members[1:]:
            class_of[v] = members[0]
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(class_of[v], []).append(v)
    return [tuple(members) for members in classes.values()]


def _individualize_refine(adj: list[int], color: list) -> tuple[list[int], list[Perm]]:
    """The individualization-refinement search proper: the vertex of
    each label in the canonical (smallest) leaf, and automorphism
    generators, of the coloured graph with adjacency bitmasks ``adj``."""
    n = len(adj)
    nbrs = [[w for w in range(n) if a >> w & 1] for a in adj]
    by_color: dict = {}
    for v in range(n):
        by_color.setdefault(color[v], []).append(v)
    cells = [tuple(by_color[c]) for c in sorted(by_color)]

    generators: list[Perm] = []
    path: list[int] = []
    # (relabeled adjacency rows, vertex of each label, individualization path)
    first: list = []
    best: list = []

    def leaf(cells: list[tuple[int, ...]]) -> int | None:
        """Record a discrete partition; return the level to jump back to
        when it is equivalent to the first or the best leaf."""
        inv = [c[0] for c in cells]
        lab = [0] * n
        for i, v in enumerate(inv):
            lab[v] = i
        rows = tuple(sum(1 << lab[w] for w in nbrs[v]) for v in inv)
        if not first:
            first[:] = best[:] = [rows, inv, tuple(path)]
            return None
        for ref_rows, ref_inv, ref_path in (first, best):
            if rows == ref_rows:
                gamma = [0] * n
                for a, b in zip(ref_inv, inv):
                    gamma[a] = b
                generators.append(tuple(gamma))
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                return common
        if rows < best[0]:
            best[:] = [rows, inv, tuple(path)]
        return None

    def visit(cells: list[tuple[int, ...]], depth: int) -> int:
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            jump = leaf(cells)
            return depth if jump is None else jump
        cell = cells[target]
        tried: list[int] = []
        seen_gens, orbit_of = -1, None
        for v in cell:
            if tried:
                if seen_gens != len(generators):  # new generators: new orbits
                    seen_gens = len(generators)
                    fixing = [g for g in generators if all(g[p] == p for p in path)]
                    orbit_of = _union_find_roots(fixing, n)
                roots = {orbit_of[u] for u in tried}
                if orbit_of[v] in roots:
                    continue
            child = cells[:target] + [(v,), tuple(w for w in cell if w != v)] + cells[target + 1:]
            path.append(v)
            jump = visit(_refine(child, adj, [1 << v]), depth + 1)
            path.pop()
            tried.append(v)
            if jump < depth:
                return jump
        return depth

    if not n:
        return [], []
    visit(_refine(cells, adj, [sum(1 << v for v in c) for c in cells]), 0)
    return best[1], generators


def _refine(
    cells: list[tuple[int, ...]], adj: list[int], splitters: list[int]
) -> list[tuple[int, ...]]:
    """The coarsest equitable refinement of the ordered partition ``cells``.

    ``splitters`` (vertex bitmasks) must include every cell the partition
    may be unequitable against — all cells at the root, the new singleton
    after an individualization. Each splitter splits every cell by its
    members' neighbour counts in it; sub-cells take their parent's place
    in count order and become splitters. Every step depends on the
    labeling only through the order of cells, which is what makes leaves
    comparable across relabelings.
    """
    n = sum(len(c) for c in cells)
    queue = list(splitters)
    for w in queue:  # grows while it is read
        if len(cells) == n:
            break
        out: list[tuple[int, ...]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((adj[v] & w).bit_count(), []).append(v)
            if len(groups) == 1:
                out.append(cell)
                continue
            for count in sorted(groups):
                part = tuple(groups[count])
                out.append(part)
                queue.append(sum(1 << v for v in part))
        cells = out
    return cells


def _union_find_roots(generators: Sequence[Perm], n: int) -> list[int]:
    """Orbit representative of every point under ``generators``."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def _orbit_partition(generators: Sequence[Perm], n: int) -> tuple[frozenset[int], ...]:
    """Orbits of the group generated by ``generators`` on ``0..n-1``,
    sorted by smallest member."""
    members: dict[int, list[int]] = {}
    for v, root in enumerate(_union_find_roots(generators, n)):
        members.setdefault(root, []).append(v)
    return tuple(frozenset(vs) for _, vs in sorted(members.items()))


def stabilizer_chain(
    generators: Sequence[Perm], base: Sequence[int], n: int
) -> list[dict[int, Perm]]:
    """Schreier–Sims: the stabilizer chain of ``<generators>`` (permutations
    of ``0..n-1``) along ``base``.

    Level ``i`` is a transversal ``{point: u}`` of the orbit of
    ``base[i]`` under the pointwise stabilizer of ``base[:i]``, with
    ``u[base[i]] == point``. Its keys are the basic orbit; the group order
    is the product of the orbit lengths. ``base`` must be a base: only the
    identity may fix all of it (a base listing every moved point is one).
    """
    k = len(base)
    ident = tuple(range(n))
    strong: list[list[Perm]] = [[] for _ in range(k)]
    for g in generators:
        if g == ident:
            continue
        moved = next((i for i in range(k) if g[base[i]] != base[i]), None)
        if moved is None:
            raise ValueError("base is not a base: a generator fixes it")
        for level in range(moved + 1):
            strong[level].append(g)
    trans = [_transversal(base[i], strong[i], ident) for i in range(k)]

    def sift(h: Perm, start: int) -> tuple[Perm, int]:
        for level in range(start, k):
            u = trans[level].get(h[base[level]])
            if u is None:
                return h, level
            h = _apply_inverse(u, h)
        return h, k

    i = k - 1
    while i >= 0:
        restart = None
        for u in list(trans[i].values()):
            for s in strong[i]:
                su = tuple(s[x] for x in u)  # u, then s
                h = _apply_inverse(trans[i][su[base[i]]], su)  # then back to base[i]
                if h == ident:
                    continue
                h, level = sift(h, i + 1)
                if h == ident:
                    continue
                if level == k:
                    raise ValueError("base is not a base: a group element fixes it")
                for j in range(i + 1, level + 1):
                    strong[j].append(h)
                    trans[j] = _transversal(base[j], strong[j], ident)
                restart = level
                break
            if restart is not None:
                break
        i = i - 1 if restart is None else restart
    return trans


def _transversal(point: int, gens: Sequence[Perm], ident: Perm) -> dict[int, Perm]:
    out = {point: ident}
    queue = [point]
    for p in queue:
        u = out[p]
        for s in gens:
            q = s[p]
            if q not in out:
                out[q] = tuple(s[x] for x in u)
                queue.append(q)
    return out


def _apply_inverse(u: Perm, h: Perm) -> Perm:
    """``h``, then the inverse of ``u``."""
    inv = [0] * len(u)
    for x, y in enumerate(u):
        inv[y] = x
    return tuple(inv[y] for y in h)
