#!/usr/bin/env python
"""Fraud-ring screening on a transaction-like graph.

A standard fraud pattern in payment networks is the *fan-in/fan-out hub
pair*: two colluding accounts that share several mule accounts (wedge
fringes) while each also touches its own set of one-off counterparties
(tail fringes). As a subgraph, that is exactly an edge-core pattern with
k and l tails and m wedge fringes — the paper's §3.1 family — and its
count explodes combinatorially around dense hubs, which is why
enumeration-based tooling cannot screen for it at scale.

This example synthesizes a payment-like graph (preferential attachment +
planted collusion structures), counts fraud-signature patterns of growing
size with Fringe-SGC, and ranks hub pairs by their signature density:
the compiled fringe polynomial evaluated on each edge's Venn row.

Run:  python examples/fraud_rings.py
"""

import numpy as np

from repro import compile_pattern, count_subgraphs
from repro.core.specialized import anchored_rows, common_neighbor_counts
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.patterns import catalog


def build_payment_graph(seed: int = 7) -> CSRGraph:
    """Preferential-attachment base + planted collusion hub pairs."""
    base = gen.barabasi_albert(1500, 2, seed=seed)
    edges = base.edge_array().tolist()
    rng = np.random.default_rng(seed)
    next_id = base.num_vertices
    planted = []
    for _ in range(3):  # three collusion rings
        a, b = rng.integers(0, base.num_vertices, size=2)
        edges.append((int(a), int(b)))
        for _ in range(12):  # shared mule accounts
            edges.append((int(a), next_id))
            edges.append((int(b), next_id))
            next_id += 1
        planted.append((int(a), int(b)))
    graph = CSRGraph.from_edges(np.asarray(edges, dtype=np.int64))
    print(f"payment graph: {graph.num_vertices} accounts, {graph.num_edges} transfers")
    print(f"planted collusion pairs: {planted}")
    return graph


def fraud_signature(tails_a: int, tails_b: int, mules: int):
    """Edge core with two tail sets and `mules` wedge fringes."""
    return catalog.core_with_fringes(
        "edge", [((0,), tails_a), ((1,), tails_b), ((0, 1), mules)]
    )


def main() -> None:
    graph = build_payment_graph()

    print("\nfraud-signature counts (edge core + tails + shared mules):")
    for mules in (2, 3, 4, 5, 6):
        pattern = fraud_signature(2, 2, mules)
        res = count_subgraphs(graph, pattern)
        print(
            f"  {pattern.n:>2}-vertex signature, {mules} shared mules: "
            f"{res.count:>16,}  ({res.elapsed_s * 1e3:7.1f} ms)"
        )
    # enumeration cost would grow ~combinatorially in `mules`; the fringe
    # formula's run time barely moves.

    # ------------------------------------------------------------------
    # rank hub pairs: the per-edge F value of §3.1 *is* a suspicion score
    # ------------------------------------------------------------------
    # for ranking, drop the tails: hub degree should not drown out the
    # collusion signal, so score purely by shared-mule combinations C(c, 5)
    plan = compile_pattern(catalog.core_with_fringes("edge", [((0, 1), 5)]))
    edges = graph.edge_array()
    c = common_neighbor_counts(graph, edges)
    deg = graph.degrees
    # Venn row of each edge (u, v): [·, only u, only v, both]
    venn = np.stack([np.zeros_like(c), deg[edges[:, 0]] - 1 - c, deg[edges[:, 1]] - 1 - c, c], 1)
    scores = np.array([plan.poly.evaluate(row) for row in anchored_rows(plan, venn).tolist()])
    top = np.argsort(scores)[::-1][:5]
    print("\ntop suspicious account pairs (per-edge signature density):")
    for i in top:
        u, v = edges[i]
        print(f"  ({u}, {v})  shared counterparties={int(c[i])}  score={scores[i]:.3g}")
    # the planted pairs dominate: 12 shared mules each, far above the
    # organic common-neighbour counts of a preferential-attachment graph


if __name__ == "__main__":
    main()
