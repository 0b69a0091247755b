"""Set-centric graph representation (paper §5.3, §2.3).

A graph is two DataFrames:

* ``edges``   — canonical undirected edge list, columns ``src < dst``,
  deduplicated, self-loop free. The "loaded graph" of pipeline stage 1.
* ``adjacency()`` — one row per vertex with its neighbourhood as a
  *sorted array column* (``vertex``, ``nbrs``, ``deg``). This is the
  CSR/SetGraph analog of Listing 2: one Set per neighbourhood; all
  graph accesses (degree check, N(v) load, edge-exists) go through it.

Orientation by a vertex ordering η gives out-neighbour sets
N+(v) = {u ∈ N(v) : η(v) < η(u)}, the preprocessing step of k-clique
listing (Alg. 7 line 9) and of BK's outer split (Alg. 6 line 13). Both
run as per-root Python kernels, so they take N+(v) from ``ranked_after``
on collected ranks; ``Graph.oriented`` is the same rule in Catalyst.

``collect_adjacency`` is the one driver-side form, collected at most once
per ``Graph``: DEG and ID sort it, DGR and ADG peel it on the driver,
and ``per_root`` runs the BK, SI, k-clique and triangle kernels over a
broadcast of it. All methods but it, ``per_root`` and ``stats`` return
DataFrames.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

if TYPE_CHECKING:  # per-root kernels import this module in every Python worker
    import pandas as pd


def ranked_after(rank: dict, v: int, nbrs: np.ndarray) -> np.ndarray:
    """Mask of ``nbrs`` = N(v) ranked after v by (rank, vertex): N+(v) = nbrs[mask].

    Ties in ``rank`` fall to the vertex ID, so the orientation is acyclic.
    """
    key = (rank[v], v)
    return np.array([(rank[u], u) > key for u in nbrs.tolist()], dtype=bool)


class Graph:
    """Undirected graph over long vertex IDs, backed by Spark DataFrames."""

    def __init__(self, edges: DataFrame):
        """``edges`` must have long columns ``src``/``dst``; canonicalised here."""
        e = edges.select(
            F.least("src", "dst").cast("long").alias("src"),
            F.greatest("src", "dst").cast("long").alias("dst"),
        ).where(F.col("src") != F.col("dst")).dropDuplicates(["src", "dst"])
        self.edges = e
        self._adj: DataFrame | None = None
        self._nbrs: dict[int, np.ndarray] | None = None

    @classmethod
    def from_pandas(cls, spark: SparkSession, pdf: pd.DataFrame) -> "Graph":
        return cls(spark.createDataFrame(pdf[["src", "dst"]]))

    # -- pipeline stage 2: graph accesses --------------------------------

    def symmetric_edges(self) -> DataFrame:
        """Both directions of every edge — the scan most accesses start from."""
        e = self.edges
        return e.unionByName(e.select(F.col("dst").alias("src"),
                                      F.col("src").alias("dst")))

    def adjacency(self) -> DataFrame:
        """(vertex, nbrs sorted array, deg), cached with one partition per core.

        Every algorithm reuses it. Adaptive execution may not shrink a
        cached plan's output partitioning, so the coalesce is explicit:
        without it every scan runs ``spark.sql.shuffle.partitions`` tasks.
        """
        if self._adj is None:
            sc = self.edges.sparkSession.sparkContext
            self._adj = (
                self.symmetric_edges()
                .groupBy(F.col("src").alias("vertex"))
                .agg(F.array_sort(F.collect_list("dst")).alias("nbrs"))
                .withColumn("deg", F.size("nbrs"))
                .coalesce(sc.defaultParallelism)
                .cache()
            )
        return self._adj

    def num_vertices(self) -> int:
        return self.adjacency().count()

    def num_edges(self) -> int:
        return self.edges.count()

    def collect_adjacency(self) -> dict[int, np.ndarray]:
        """{vertex: sorted int64 neighbour array} on the driver, by ascending vertex.

        The paper's shared-memory graph: per-root kernels read it from a
        broadcast instead of joining neighbourhoods per root. The keys are
        sorted so that no caller sees the adjacency's partition row order.
        Only the first call runs a Spark job; every later call returns the
        same dict, so callers must not mutate it or its arrays.
        """
        if self._nbrs is None:
            rows = sorted(self.adjacency().select("vertex", "nbrs").collect())
            self._nbrs = {int(v): np.asarray(nbrs, dtype=np.int64) for v, nbrs in rows}
        return self._nbrs

    def per_root(self, shared, roots: list, kernel, num_partitions: int | None = None
                 ) -> RDD:
        """The outermost parallel loop: ``kernel(shared, root)`` rows for every root.

        ``shared`` (e.g. ``collect_adjacency``) is broadcast once. ``roots``
        are dealt round-robin into n = min(#roots, ``num_partitions`` or
        ``defaultParallelism``) tasks, at least one, so roots listed
        heaviest first spread over every task.
        """
        sc = self.edges.sparkSession.sparkContext
        n = max(1, min(len(roots), num_partitions or sc.defaultParallelism))
        bc = sc.broadcast(shared)
        return sc.parallelize([roots[i::n] for i in range(n)], n).flatMap(
            lambda part: (row for root in part for row in kernel(bc.value, root)))

    # -- pipeline stage 3: preprocessing hooks ---------------------------

    def oriented(self, order: DataFrame) -> DataFrame:
        """Out-adjacency under a vertex ordering, in Catalyst.

        ``order`` has columns (vertex, rank); an edge points from lower
        to higher rank (ties broken by vertex ID, as in ``ranked_after``,
        so the orientation is total and acyclic). Returns (vertex, rank,
        out_nbrs sorted by vertex ID), including rank-sink vertices with
        empty out_nbrs. BK and k-clique orient with ``ranked_after``
        instead; only gmsbench's traced pass still calls this, to time an
        orientation layer.
        """
        e = self.symmetric_edges()
        ranked = (
            e.join(order.withColumnRenamed("vertex", "src")
                        .withColumnRenamed("rank", "src_rank"), "src")
            .join(order.withColumnRenamed("vertex", "dst")
                        .withColumnRenamed("rank", "dst_rank"), "dst")
        )
        fwd = ranked.where(
            (F.col("src_rank") < F.col("dst_rank"))
            | ((F.col("src_rank") == F.col("dst_rank")) & (F.col("src") < F.col("dst")))
        )
        out = fwd.groupBy(F.col("src").alias("vertex")).agg(
            F.array_sort(F.collect_list("dst")).alias("out_nbrs")
        )
        return (
            order.join(out, "vertex", "left")
            .select(
                "vertex",
                "rank",
                F.coalesce("out_nbrs", F.array().cast("array<long>")).alias("out_nbrs"),
            )
        )

    # -- dataset statistics (Table 7 columns) ----------------------------

    def stats(self) -> dict:
        """n, m, m/n, max degree, T, T/n, max triangles/vertex (T-skew).

        One Spark job, the per-vertex triangle kernel, once the adjacency is collected.
        """
        from repro.mining.triangles import triangle_counts_per_vertex

        degs = [a.size for a in self.collect_adjacency().values()]
        per_v = triangle_counts_per_vertex(self).values()
        n, m = len(degs), sum(degs) // 2
        total_t = sum(per_v) // 3  # each triangle counted at 3 corners
        return {
            "n": n,
            "m": m,
            "m_over_n": m / n if n else 0.0,
            "max_deg": max(degs, default=0),
            "T": total_t,
            "T_over_n": total_t / n if n else 0.0,
            "T_max_per_vertex": max(per_v, default=0),
        }
