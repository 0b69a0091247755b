"""Maximal clique listing — Bron–Kerbosch with GMS enhancements (§6.2, Alg. 6).

Distributed formulation (the paper's outermost parallel loop, over
roots):

1. Preprocessing (stage 3): rank vertices by a pluggable ordering
   (``none`` = ID order → the BK-DAS-analog baseline, ``deg`` → BK-DEG,
   ``dgr`` → BK-DGR, ``adg`` → BK-ADG).
2. For each root v: P = N+(v) (later-ranked neighbours), X = N−(v),
   R = {v} (Alg. 6 line 13 — the split *is* a set intersection with the
   rank-suffix).
3. ``Graph.per_root`` runs the kernel over a broadcast of
   ``Graph.collect_adjacency`` and the collected ranks — the paper's
   shared-memory graph, as for SI — with roots dealt heaviest (highest
   degree) first. Per root it marks P within S = N(v) with
   ``ranked_after`` ((rank, vertex) compared lexicographically, as for
   k-clique; Eppstein et al.'s per-root split), takes X = S ∖ P, then:
   * ``subgraph_opt=True`` (the ADG-S variant): relabels S to
     0..|S|−1 and restricts every N(u) to S — the precomputed subgraph H
     of Eppstein et al. used for pivot selection *and* the P/X
     intersections (§6.2's "use H everywhere").
   * ``subgraph_opt=False``: the sets hold global IDs and full
     neighbourhoods N(u) (the paper's BK without H); bitmap ints are as
     wide as the largest vertex ID.
4. Kernel recursion = BK-Pivot with Tomita pivoting
   (u = argmax |P ∩ N_H(u)| over P ∪ X), all set operations going
   through a pluggable set representation (5+): ``sorted`` numpy
   arrays, ``bitmap`` Python-int bitsets (roaring analog), ``hash``
   frozensets.

Every maximal clique is emitted exactly once, at its minimum-ranked
member — the standard degeneracy-parallel BK argument.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.graph import Graph, ranked_after
from repro.core.sets import make_set_factory
from repro.orderings.adg import adg_order
from repro.orderings.degeneracy import degeneracy_order
from repro.orderings.degree import degree_order, identity_order

ORDERINGS = {
    "none": identity_order,
    "deg": degree_order,
    "dgr": degeneracy_order,
    "adg": adg_order,
}


def resolve_order(graph: Graph, order: str | DataFrame, epsilon: float = 0.1
                  ) -> DataFrame:
    """Ordering stage: name → (vertex, rank) DataFrame, or pass one through."""
    if isinstance(order, DataFrame):
        return order
    if order not in ORDERINGS:
        raise ValueError(f"unknown ordering {order!r}; one of {sorted(ORDERINGS)}")
    if order == "adg":
        return adg_order(graph, epsilon=epsilon)
    return ORDERINGS[order](graph)


def _bk_pivot(P, R: list[int], X, adj, out: list[list[int]]) -> None:
    """Recursive BK-Pivot (Alg. 6 lines 18–28) over pluggable sets."""
    if not P and not X:
        out.append(sorted(R))
        return
    # Tomita pivot: maximise |P ∩ N(u)| over u ∈ P ∪ X  (== minimise |P \ N(u)|)
    best_u, best_c = None, -1
    for u in P.union(X):
        c = P.intersect_count(adj[u])
        if c > best_c:
            best_u, best_c = u, c
    for v in P.diff(adj[best_u]).to_list():
        nv = adj[v]
        _bk_pivot(P.intersect(nv), R + [v], X.intersect(nv), adj, out)
        P = P.remove(v)
        X = X.add(v)


def _root_cliques(root: int, in_p: np.ndarray, nbrs: dict[int, np.ndarray], make,
                  subgraph_opt: bool) -> list[list[int]]:
    """Maximal cliques emitted at ``root``: R = {root}, P = N(root)[in_p], X = the rest."""
    s = nbrs[root]
    if subgraph_opt:  # H: S relabelled to 0..|S|-1, every N(u) restricted to S
        adj = {i: make(np.intersect1d(nbrs[u], s, assume_unique=True,
                                      return_indices=True)[2])
               for i, u in enumerate(s.tolist())}
        P, X = make(np.flatnonzero(in_p)), make(np.flatnonzero(~in_p))
    else:
        adj = {u: make(nbrs[u]) for u in s.tolist()}
        P, X = make(s[in_p]), make(s[~in_p])
    out: list[list[int]] = []
    _bk_pivot(P, [], X, adj, out)
    if subgraph_opt:
        out = [s[c].tolist() for c in out]
    return [sorted([root, *c]) for c in out]


def bk_maximal_cliques(
    graph: Graph,
    order: str | DataFrame = "adg",
    set_repr: str = "sorted",
    subgraph_opt: bool = False,
    num_partitions: int | None = None,
) -> DataFrame:
    """All maximal cliques as (root, clique sorted array<long>) rows.

    ``order``/``set_repr``/``subgraph_opt`` are the three GMS knobs the
    paper's Fig. 4 ablates (modularity levels 3, 5+, and the subgraph
    optimisation respectively); ``num_partitions`` caps task parallelism
    for the Fig. 8b scaling analysis.
    """
    order_df = resolve_order(graph, order)
    rank = {int(r["vertex"]): r["rank"] for r in order_df.collect()}
    nbrs = graph.collect_adjacency()
    # ``nbrs`` is empty on an edgeless graph
    make = make_set_factory(set_repr, max(nbrs, default=-1) + 1)

    def kernel(shared, root: int) -> list[tuple[int, list[int]]]:
        nbrs, rank = shared
        in_p = ranked_after(rank, root, nbrs[root])
        return [(root, c) for c in _root_cliques(root, in_p, nbrs, make, subgraph_opt)]

    roots = sorted(nbrs, key=lambda v: (-nbrs[v].size, v))
    rows = graph.per_root((nbrs, rank), roots, kernel, num_partitions)
    return graph.edges.sparkSession.createDataFrame(rows, "root long, clique array<long>")

