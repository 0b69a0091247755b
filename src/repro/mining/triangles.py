"""Triangle counting via set intersection (paper Fig. 2 stage-5 example).

The set-centric formulation without orientation: for every canonical
edge (u, v), u < v, add |N(u) ∩ N(v)| over the full neighbourhoods.
Each triangle is then counted once per edge, i.e. three times, and the
sum is divided by 3. Everything stays in Catalyst: two joins +
array_intersect.

The oriented variant, |N+(u) ∩ N+(v)| under a degree ordering (Table
4's "degree reordering" row), is ``kclique_count(g, 3, order="deg")``,
a per-root Python kernel over bitmap sets. It finds each triangle once,
not three times, and intersects smaller sets; on the Table 7 graphs it
launches 4 Spark jobs to this function's 5 and takes less time (ROADMAP,
``triangles.py`` follow-up). This function still serves ``Graph.stats``,
whose per-vertex counts come from the same per-edge intersections.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import sets
from repro.core.graph import Graph


def _nbrs_for(adj: DataFrame, col: str, out: str) -> DataFrame:
    return adj.select(F.col("vertex").alias(col), F.col("nbrs").alias(out))


def triangle_count(graph: Graph) -> int:
    """Total number of triangles.

    Sums |N(u) ∩ N(v)| of the full neighbourhoods over every canonical
    edge (u, v) and divides by 3, since each triangle has three edges.
    """
    per_edge = _per_edge_common(graph)
    row = per_edge.agg(F.sum("common").alias("s")).first()
    return int(row["s"] or 0) // 3


def _per_edge_common(graph: Graph) -> DataFrame:
    """(src, dst, common=|N(src) ∩ N(dst)|) for every canonical edge."""
    adj = graph.adjacency()
    return (
        graph.edges
        .join(_nbrs_for(adj, "src", "nbrs_src"), "src")
        .join(_nbrs_for(adj, "dst", "nbrs_dst"), "dst")
        .select("src", "dst",
                sets.intersect_count(F.col("nbrs_src"), F.col("nbrs_dst"))
                .alias("common"))
    )


def triangle_counts_per_vertex(graph: Graph) -> DataFrame:
    """(vertex, triangles) — triangle participation per vertex.

    Each triangle through v has exactly two edges incident to v, and
    each such edge's common-neighbour count includes that triangle once,
    so per-vertex count = Σ_{e ∋ v} common(e) / 2. Vertices in no
    triangle (including isolated ones) appear with 0.
    """
    per_edge = _per_edge_common(graph)
    both_ends = per_edge.select(
        F.explode(F.array("src", "dst")).alias("vertex"), "common"
    )
    counts = both_ends.groupBy("vertex").agg(
        (F.sum("common") / 2).cast("long").alias("triangles")
    )
    return (
        graph.adjacency().select("vertex")
        .join(counts, "vertex", "left")
        .select("vertex", F.coalesce("triangles", F.lit(0)).alias("triangles"))
    )
