"""Triangle counting as the k = 3 case of k-clique counting (paper §3
Fig. 2, §6.3 Alg. 7).

The total T is ``kclique_count(g, 3, order="deg")``: each root u adds
|N+(u) ∩ N+(v)| for v ∈ N+(u) under a degree ordering (Table 4's "degree
reordering" row), so each triangle is found once.

Per-vertex counts (Table 7's T̂ column) need each triangle at all three
corners, so they run the same recursion, ``kclique._grow``, without
orientation, as ``kclique_count_naive`` does. With root v and C = N(v),
level 1 adds |N(v) ∩ N(u)| for every u ∈ N(v), which counts each
triangle through v twice.
"""
from __future__ import annotations

from repro.core.graph import Graph
from repro.core.sets import BitmapSet
from repro.mining.kclique import _grow


def triangle_counts_per_vertex(graph: Graph) -> dict[int, int]:
    """{vertex: triangles through it} in ascending vertex order; 0 for none."""
    sets = {v: BitmapSet(s) for v, s in graph.collect_adjacency().items()}

    def kernel(sets, v) -> list[tuple[int, int]]:
        sums = [0, 0]
        _grow(sets[v], 0, sets, sums)
        return [(v, sums[1] // 2)]

    return dict(sorted(graph.per_root(sets, list(sets), kernel).collect()))
