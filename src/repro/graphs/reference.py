"""Correctness oracles for graph mining results (testing substrate).

Spark implementations are checked against two independent references:

* networkx — cliques (`find_cliques`), core numbers, triangles,
  (induced/non-induced) subgraph isomorphism via `GraphMatcher`;
* pure-python brute force (itertools) — for tiny graphs, independent of
  networkx, so the two oracles also cross-check each other.

Relational formulations (degree stats, triangle counting via joins)
additionally go through the DuckDB oracle in ``repro.oracle``.
"""
from __future__ import annotations

from itertools import combinations

import networkx as nx
import pandas as pd


def nx_graph(edges: pd.DataFrame) -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from(edges[["src", "dst"]].itertuples(index=False, name=None))
    return g


def ref_triangle_count(edges: pd.DataFrame) -> int:
    return sum(nx.triangles(nx_graph(edges)).values()) // 3


def ref_triangles_per_vertex(edges: pd.DataFrame) -> dict[int, int]:
    return {int(k): int(v) for k, v in nx.triangles(nx_graph(edges)).items()}


def ref_maximal_cliques(edges: pd.DataFrame) -> set[frozenset]:
    return {frozenset(c) for c in nx.find_cliques(nx_graph(edges))}


def ref_kclique_count(edges: pd.DataFrame, k: int) -> int:
    """#k-cliques by brute force over combinations of each vertex's nbrs."""
    g = nx_graph(edges)
    count = 0
    nodes = sorted(g.nodes())
    for v in nodes:
        nbrs = [u for u in g[v] if u > v]
        for comb in combinations(sorted(nbrs), k - 1):
            if all(g.has_edge(a, b) for a, b in combinations(comb, 2)):
                count += 1
    return count


def ref_core_numbers(edges: pd.DataFrame) -> dict[int, int]:
    return {int(k): int(v) for k, v in nx.core_number(nx_graph(edges)).items()}


def ref_degeneracy(edges: pd.DataFrame) -> int:
    cn = ref_core_numbers(edges)
    return max(cn.values()) if cn else 0


def ref_subgraph_iso_count(
    target_edges: pd.DataFrame,
    target_labels: pd.DataFrame,
    query_edges: pd.DataFrame,
    query_labels: pd.DataFrame,
    induced: bool = True,
) -> int:
    """#distinct embeddings (mappings) of query into target, label-respecting."""
    tg = nx_graph(target_edges)
    tlab = dict(target_labels[["vertex", "label"]].itertuples(index=False, name=None))
    nx.set_node_attributes(tg, {v: {"label": tlab.get(v, -1)} for v in tg.nodes()})
    qg = nx_graph(query_edges)
    qlab = dict(query_labels[["vertex", "label"]].itertuples(index=False, name=None))
    nx.set_node_attributes(qg, {v: {"label": qlab.get(v, -1)} for v in qg.nodes()})
    nm = nx.algorithms.isomorphism.categorical_node_match("label", -1)
    gm = nx.algorithms.isomorphism.GraphMatcher(tg, qg, node_match=nm)
    it = gm.subgraph_isomorphisms_iter() if induced else gm.subgraph_monomorphisms_iter()
    return sum(1 for _ in it)


def brute_maximal_cliques(edges: pd.DataFrame) -> set[frozenset]:
    """Exponential brute force — tiny graphs only; cross-checks networkx."""
    g = nx_graph(edges)
    nodes = sorted(g.nodes())
    cliques = []
    for r in range(1, len(nodes) + 1):
        for comb in combinations(nodes, r):
            if all(g.has_edge(a, b) for a, b in combinations(comb, 2)):
                cliques.append(frozenset(comb))
    return {c for c in cliques
            if not any(c < d for d in cliques)}
