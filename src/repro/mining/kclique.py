"""k-clique counting — Danisch et al. reformulated with set algebra
(paper §6.3, Algorithm 7).

N+(v) holds the neighbours of v ranked after it by a pluggable ordering
η (Alg. 7 line 9), so each k-clique is found once. A root holds a
candidate set C, and the kernel recurses with C' = C ∩ N+(v) for each
v ∈ C (line 19) down to level k − 1, where it adds |C| (line 15).
Triangle counting shares it: the total is k = 3, and
``mining/triangles.py`` runs ``_grow`` over the unoriented N(v) for
per-vertex counts.

``Graph.per_root`` runs the kernel over a broadcast of every N+(v) as a
``BitmapSet``, the paper's shared-memory graph. The strategies are the
node- and edge-rooted searches of Danisch, Balalau and Sozio ("Listing
k-cliques in sparse real-world graphs", WWW'18), §7.2's trade-off:
* ``node`` — one root per vertex u, C = N+(u): fewer, larger tasks
  (GBBS-style);
* ``edge`` — one root per oriented edge (u, v), C = N+(u) ∩ N+(v):
  more, smaller tasks, better balance.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame

from repro.core.graph import Graph, ranked_after
from repro.core.sets import BitmapSet
from repro.core.work_depth import WorkDepthRecorder
from repro.mining.bron_kerbosch import resolve_order


def _grow(C: BitmapSet, i: int, sets: dict[int, BitmapSet], sums: list[int]) -> None:
    """Add |C| to ``sums[i]``, then recurse with C ∩ N+(v) for v ∈ C to the last level."""
    sums[i] += C.cardinality()
    if i + 1 < len(sums):
        for v in C.to_list():
            _grow(C.intersect(sets[v]), i + 1, sets, sums)


def _count(graph: Graph, sets: dict[int, BitmapSet], edge: bool, k: int,
           rec: WorkDepthRecorder | None) -> int:
    """Σ|C| at level k − 1 (Alg. 7 line 15) from vertex or ``edge`` roots.

    Roots are listed largest set first. ``rec`` gets one round per grown
    level plus the final count; work is Σ|C| of each.
    """
    heavy = sorted(sets, key=lambda v: (-sets[v].cardinality(), v))
    roots = [(u, v) for u in heavy for v in sets[u].to_list()] if edge else heavy
    depth = k - 2 if edge else k - 1

    def kernel(sets, root) -> list[tuple[int, ...]]:
        C = sets[root[0]].intersect(sets[root[1]]) if edge else sets[root]
        sums = [0] * depth
        _grow(C, 0, sets, sums)
        return [tuple(sums)]

    sums = graph.per_root(sets, roots, kernel).fold(
        (0,) * depth, lambda a, b: tuple(map(sum, zip(a, b))))
    if rec is not None:
        for s in (*sums[1:], sums[-1]):  # the grown levels, then the count
            rec.round()
            rec.touch(s)
    return sums[-1]


def kclique_count(
    graph: Graph,
    k: int,
    order: str | DataFrame = "dgr",
    strategy: str = "edge",
    epsilon: float = 0.1,
    recorder: WorkDepthRecorder | None = None,
) -> int:
    """Number of k-cliques (k ≥ 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy not in ("node", "edge"):
        raise ValueError(f"unknown strategy {strategy!r}; 'node' or 'edge'")
    if k == 1:
        return graph.num_vertices()
    if k == 2:
        return graph.num_edges()
    order_df = resolve_order(graph, order, epsilon)
    rank = {int(r["vertex"]): r["rank"] for r in order_df.collect()}
    sets = {v: BitmapSet(s[ranked_after(rank, v, s)])
            for v, s in graph.collect_adjacency().items()}
    return _count(graph, sets, strategy == "edge", k, recorder)


def kclique_count_naive(graph: Graph, k: int,
                        recorder: WorkDepthRecorder | None = None) -> int:
    """Framework-analog baseline: unoriented exhaustive search (Fig. 9).

    Grows candidate sets over *full* neighbourhoods with no vertex
    ordering, so every k-clique is found k! times and the search is
    not pruned by orientation — the "programming-abstraction overhead"
    regime the paper measures for Peregrine/RStream (10–100× slower).
    """
    if k < 3:
        raise ValueError("naive baseline defined for k >= 3")
    sets = {v: BitmapSet(s) for v, s in graph.collect_adjacency().items()}
    return _count(graph, sets, False, k, recorder) // math.factorial(k)
