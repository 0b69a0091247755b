"""The peeling engine behind DGR and ADG (paper §6.1, Alg. 5; Lemma 7.1).

Both orderings repeat one step: remove, in one parallel batch B, every
live vertex whose degree in the live induced subgraph is at most a
threshold. They differ only in the threshold, which a rule computes from
the live degrees' (min, sum, count). As in Julienne's bucketed peeling
(Dhulipala, Blelloch, Shun, SPAA'17), degrees are updated incrementally
(N(v) ← N(v) ∖ B), never recomputed from the edge list.

State is one checkpointed DataFrame (vertex, nbrs, deg, round, level);
``nbrs`` and ``deg`` turn null when the vertex is removed, and ``round``
and ``level`` record when and at which threshold. A round is two Spark
jobs: collect B (at most n IDs), then checkpoint one narrow projection
that applies the set differences and stamps B; that job also observes
the next round's statistics. Ranks follow (round, vertex), assigned once.

The work proxy counts the elements the set differences read: Σ live
|N(v)| + |B| per round.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame, Observation, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder


def _observed(state: DataFrame) -> tuple[DataFrame, dict]:
    """Materialise ``state``; its live-degree stats come from the same job."""
    obs = Observation()
    state = state.observe(obs, F.min("deg").alias("lo"), F.sum("deg").alias("s"),
                          F.count("deg").alias("u")).localCheckpoint(eager=True)
    return state, obs.get


def peel(
    graph: Graph,
    rule: Callable[[int, int, int], float],
    recorder: WorkDepthRecorder | None = None,
) -> DataFrame:
    """(vertex, rank, level): peeling order and each vertex's removal threshold.

    ``rule(min, sum, count)`` of the live degrees returns the round's
    threshold; it must be ≥ the min, so that no batch is empty.
    """
    rec = recorder or WorkDepthRecorder()
    adj = graph.adjacency()  # a few thousand rows: one partition per core
    adj = adj.coalesce(adj.sparkSession.sparkContext.defaultParallelism)
    state, live = _observed(adj.select(
        "vertex", "nbrs", "deg",
        F.lit(None).cast("int").alias("round"),
        F.lit(None).cast("double").alias("level"),
    ))
    rnd = 0
    while live["u"]:
        t = rule(live["lo"], live["s"], live["u"])
        batch = [r[0] for r in state.where(F.col("deg") <= t).select("vertex").collect()]
        rec.round()
        rec.touch(live["s"] + len(batch))
        gone = F.col("vertex").isin(batch)
        state = state.select(
            "vertex",
            F.when(F.col("deg").isNotNull() & ~gone,
                   F.array_except("nbrs", F.lit(batch).cast("array<long>"))).alias("nbrs"),
            F.when(gone, F.lit(rnd)).otherwise(F.col("round")).alias("round"),
            F.when(gone, F.lit(float(t))).otherwise(F.col("level")).alias("level"),
        ).withColumn("deg", F.when(F.col("nbrs").isNotNull(), F.size("nbrs")))
        rnd += 1
        if len(batch) == live["u"]:  # nothing left: skip observing an empty state
            break
        state, live = _observed(state)
    w = Window.orderBy("round", "vertex")
    return state.select(
        "vertex", (F.row_number().over(w) - 1).cast("long").alias("rank"), "level"
    ).localCheckpoint(eager=True)
