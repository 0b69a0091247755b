"""k-clique listing/counting — Danisch et al. reformulated with set algebra
(paper §6.3, Algorithm 7).

The whole search stays in Catalyst: orient the graph by a pluggable
ordering η (edge (v,u) exists iff η(v) < η(u), Alg. 7 line 9), then grow
candidate sets level by level with

    C_{i+1} = N+(v) ∩ C_i            (Alg. 7 line 19)

as an ``array_intersect`` join, and finish with Σ|C_k| (line 15). This
is exactly the paper's "one formulation for all k ≥ 3" point — the same
loop covers triangle counting (k=3) upward.

Strategies (§7.2's work/depth/space trade-off):
* ``node`` — parallelise over vertices: frontier starts as
  (members=[u], cand=N+(u)); fewer, larger tasks (GBBS-style).
* ``edge`` — parallelise over oriented edges: frontier starts as
  (members=[u,v], cand=N+(u) ∩ N+(v)); more, smaller tasks, better
  balance (the Danisch et al. edge-parallel variant).
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.core import sets
from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder
from repro.mining.bron_kerbosch import resolve_order


def _oriented_adj(graph: Graph, order_df: DataFrame) -> DataFrame:
    return graph.oriented(order_df).select("vertex", "out_nbrs")


def _frontier(odj: DataFrame, strategy: str) -> tuple[DataFrame, int]:
    """Initial (members, cand) frontier and its clique level."""
    if strategy == "node":
        f = odj.select(F.array("vertex").alias("members"),
                       F.col("out_nbrs").alias("cand"))
        return f, 1
    if strategy == "edge":
        e = odj.select(F.col("vertex").alias("u"),
                       F.explode("out_nbrs").alias("v"),
                       F.col("out_nbrs").alias("u_out"))
        f = (
            e.join(odj.select(F.col("vertex").alias("v"),
                              F.col("out_nbrs").alias("v_out")), "v")
            .select(F.array("u", "v").alias("members"),
                    sets.intersect(F.col("u_out"), F.col("v_out")).alias("cand"))
        )
        return f, 2
    raise ValueError(f"unknown strategy {strategy!r}; 'node' or 'edge'")


def _grow(frontier: DataFrame, odj: DataFrame) -> DataFrame:
    """One backtracking level: members+v with cand ∩ N+(v)."""
    ex = frontier.select(
        "members", "cand", F.explode("cand").alias("v")
    )
    return (
        ex.join(odj.select(F.col("vertex").alias("v"),
                           F.col("out_nbrs").alias("v_out")), "v")
        .select(
            F.concat("members", F.array("v")).alias("members"),
            sets.intersect(F.col("cand"), F.col("v_out")).alias("cand"),
        )
        .where(F.size("cand") > 0)
    )


def _grow_to(frontier: DataFrame, level: int, k: int, odj: DataFrame
             ) -> tuple[DataFrame, list[tuple[DataFrame, Observation]]]:
    """Grow a level-``level`` frontier to level k − 1.

    Returns the last frontier and every grown level with its Σ|cand|
    observed by whichever job computes it.
    """
    levels = []
    while level < k - 1:
        obs = Observation()
        frontier = _grow(frontier, odj).observe(obs, F.sum(F.size("cand")).alias("s"))
        levels.append((frontier, obs))
        level += 1
    return frontier, levels


def _cand_sum(frontier: DataFrame) -> int:
    """Σ|C| over the frontier (Alg. 7 line 15), in one aggregation job."""
    return int(frontier.agg(F.sum(F.size("cand"))).first()[0] or 0)


def _count(frontier: DataFrame, level: int, k: int, odj: DataFrame,
           rec: WorkDepthRecorder | None) -> int:
    """Σ|C_k| from a level-``level`` frontier (Alg. 7 line 15).

    ``rec`` gets one round per grown level plus the final count; work is
    Σ|cand| of each. The final aggregation's job fills the observations,
    so recording launches no job of its own, except when the count is 0.
    Then some level is empty, and adaptive execution may prune the levels
    below it, and their observations, from the executed plan; each level
    is aggregated again instead.
    """
    frontier, levels = _grow_to(frontier, level, k, odj)
    total = _cand_sum(frontier)
    if rec is not None:
        for f, obs in levels:
            rec.round()
            rec.touch(_cand_sum(f) if total == 0 else obs.get["s"])
        rec.round()
        rec.touch(total)
    return total


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
    if k == 1:
        return graph.num_vertices()
    if k == 2:
        return graph.num_edges()
    order_df = resolve_order(graph, order, epsilon)
    odj = _oriented_adj(graph, order_df).localCheckpoint(eager=True)
    return _count(*_frontier(odj, strategy), k, odj, recorder)


def kclique_count_naive(graph: Graph, k: int,
                        recorder: WorkDepthRecorder | None = None) -> int:
    """Framework-analog baseline: unoriented exhaustive search (Fig. 9).

    Grows candidate sets over *full* neighbourhoods with no vertex
    ordering, so every k-clique is found k! times and the frontier is
    not pruned by orientation — the "programming-abstraction overhead"
    regime the paper measures for Peregrine/RStream (10–100× slower).
    """
    if k < 3:
        raise ValueError("naive baseline defined for k >= 3")
    adj = graph.adjacency().select("vertex", F.col("nbrs").alias("out_nbrs"))
    adj = adj.localCheckpoint(eager=True)
    frontier = adj.select(F.array("vertex").alias("members"),
                          F.col("out_nbrs").alias("cand"))
    return _count(frontier, 1, k, adj, recorder) // math.factorial(k)


def kclique_list(
    graph: Graph,
    k: int,
    order: str | DataFrame = "dgr",
    strategy: str = "edge",
    epsilon: float = 0.1,
) -> DataFrame:
    """All k-cliques as (members sorted array<long>) rows, k ≥ 3."""
    if k < 3:
        raise ValueError("listing supported for k >= 3")
    order_df = resolve_order(graph, order, epsilon)
    odj = _oriented_adj(graph, order_df).localCheckpoint(eager=True)
    frontier, _ = _grow_to(*_frontier(odj, strategy), k, odj)
    return (
        frontier.select("members", F.explode("cand").alias("last"))
        .select(F.array_sort(F.concat("members", F.array("last"))).alias("members"))
    )
