"""Maximal clique listing — Bron–Kerbosch with GMS enhancements (§6.2, Alg. 6).

Distributed formulation (one Spark task per outer-loop root, the
paper's outermost parallel loop):

1. Preprocessing (stage 3): rank vertices by a pluggable ordering
   (``none`` = ID order → the BK-DAS-analog baseline, ``deg`` → BK-DEG,
   ``dgr`` → BK-DGR, ``adg`` → BK-ADG).
2. For each root v: P = N+(v) (later-ranked neighbours), X = N−(v),
   R = {v} (Alg. 6 line 13 — the split *is* a set intersection with the
   rank-suffix, implemented by orientation).
3. Per-root subproblem rows are shipped to a Python kernel
   (``mapInPandas``) carrying a local adjacency over S = N(v):
   * ``subgraph_opt=True`` (the ADG-S variant): adjacency restricted to
     S — the precomputed subgraph H of Eppstein et al. used for pivot
     selection *and* the P/X intersections (§6.2's "use H everywhere").
   * ``subgraph_opt=False``: full neighbourhoods N(u) are shipped —
     same results, more data movement (the paper's slower default).
4. Kernel recursion = BK-Pivot with Tomita pivoting
   (u = argmax |P ∩ N_H(u)| over P ∪ X), all set operations going
   through a pluggable set representation (5+): ``sorted`` numpy
   arrays, ``bitmap`` Python-int bitsets (roaring analog), ``hash``
   frozensets.

Every maximal clique is emitted exactly once, at its minimum-ranked
member — the standard degeneracy-parallel BK argument.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
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


def _subproblems(graph: Graph, order_df: DataFrame, subgraph_opt: bool) -> DataFrame:
    """Per-root rows: (root, p, x, local adjacency entries for u ∈ N(root)).

    ``adj_u``/``adj_nbrs`` arrive as exploded pairs and are regrouped to
    a map in the kernel; with ``subgraph_opt`` each entry is
    N(u) ∩ N(root) (the H subgraph), else the full N(u).
    """
    adj = graph.adjacency()
    oriented = graph.oriented(order_df)  # (vertex, rank, out_nbrs)
    roots = (
        adj.join(oriented, "vertex")
        .select(
            F.col("vertex").alias("root"),
            F.col("out_nbrs").alias("p"),
            F.array_except("nbrs", "out_nbrs").alias("x"),
            F.col("nbrs").alias("s"),
        )
    )
    member = roots.select("root", "s", F.explode("s").alias("u"))
    member = member.join(
        adj.select(F.col("vertex").alias("u"), F.col("nbrs").alias("u_nbrs")), "u"
    )
    local = F.array_intersect("u_nbrs", "s") if subgraph_opt else F.col("u_nbrs")
    entries = member.select("root", "u", local.alias("u_local"))
    grouped = entries.groupBy("root").agg(
        F.collect_list(F.struct("u", "u_local")).alias("adj_entries")
    )
    return (
        roots.select("root", "p", "x")
        .join(grouped, "root", "left")
        .select(
            "root", "p", "x",
            F.coalesce(
                "adj_entries",
                F.array().cast("array<struct<u:long,u_local:array<long>>>"),
            ).alias("adj_entries"),
        )
    )


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


def _kernel_rows(pdf: pd.DataFrame, set_repr: str) -> Iterator[tuple[int, list[int]]]:
    for row in pdf.itertuples(index=False):
        root = int(row.root)
        s_nodes = [int(e["u"]) for e in row.adj_entries]
        # relabel S → 0..|S|-1 so BitmapSet ints stay neighbourhood-sized
        # (the paper's subgraph optimisation is what makes bitmaps cheap)
        to_local = {u: i for i, u in enumerate(s_nodes)}
        factory = make_set_factory(set_repr, len(s_nodes) + 1)
        adj = {}
        for e in row.adj_entries:
            u = to_local[int(e["u"])]
            adj[u] = factory([to_local[int(w)] for w in e["u_local"] if int(w) in to_local])
        P = factory([to_local[int(u)] for u in row.p])
        X = factory([to_local[int(u)] for u in row.x])
        out: list[list[int]] = []
        _bk_pivot(P, [], X, adj, out)
        back = {i: u for u, i in to_local.items()}
        for clique in out:
            yield root, sorted([root] + [back[i] for i in clique])


def bk_maximal_cliques(
    graph: Graph,
    order: str | DataFrame = "adg",
    set_repr: str = "sorted",
    subgraph_opt: bool = False,
    epsilon: float = 0.1,
    num_partitions: int | None = None,
) -> DataFrame:
    """All maximal cliques as (root, clique sorted array<long>) rows.

    ``order``/``set_repr``/``subgraph_opt`` are the three GMS knobs the
    paper's Fig. 4 ablates (modularity levels 3, 5+, and the subgraph
    optimisation respectively); ``num_partitions`` caps task parallelism
    for the Fig. 8b scaling analysis.
    """
    order_df = resolve_order(graph, order, epsilon)
    sub = _subproblems(graph, order_df, subgraph_opt)
    if num_partitions is not None:
        sub = sub.repartition(num_partitions)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            rows = list(_kernel_rows(pdf, set_repr))
            yield pd.DataFrame(
                {"root": [r for r, _ in rows], "clique": [c for _, c in rows]}
                if rows else {"root": pd.Series([], dtype="int64"),
                              "clique": pd.Series([], dtype="object")}
            )

    return sub.mapInPandas(run, schema="root long, clique array<long>")


def bk_count(graph: Graph, **kwargs) -> int:
    """Number of maximal cliques (forces the full computation)."""
    return bk_maximal_cliques(graph, **kwargs).count()
