"""The peeling engine behind DGR and ADG (paper §6.1, Alg. 5; Lemma 7.1).

Both orderings repeat one step: remove, in one parallel batch B, every
live vertex whose degree in the live induced subgraph is at most a
threshold. They differ only in the threshold, which a rule computes from
the live degrees' (min, sum, count). As in Julienne's bucketed peeling
(Dhulipala, Blelloch, Shun, SPAA'17), degrees are updated incrementally
(N(v) ← N(v) ∖ B), never recomputed from the edge list.

State is one checkpointed DataFrame of the live rows (vertex, nbrs). A
round is one Spark job: it collects the (vertex, |N(v)|) pairs of the
state, from which the driver takes the statistics, the threshold t and
B = {v : |N(v)| ≤ t}. The next state keeps the rows with |N(v)| > t and
drops B from their neighbourhoods with one array literal; the next
round's job materialises it. Ranks follow (round, vertex), assigned on
the driver.

The work proxy counts the elements the set differences read: Σ live
|N(v)| + |B| per round.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder


def peel(
    graph: Graph,
    rule: Callable[[int, int, int], float],
    recorder: WorkDepthRecorder | None = None,
) -> DataFrame:
    """(vertex, rank, level): peeling order and each vertex's removal threshold.

    ``rule(min, sum, count)`` of the live degrees returns the round's
    threshold; it must be ≥ the min, so that no batch is empty. The
    result is a local relation: reading it launches no Spark job.
    """
    import pandas as pd  # BK and k-clique workers import this module

    rec = recorder or WorkDepthRecorder()
    state = graph.adjacency().select("vertex", "nbrs")
    live = state.select("vertex", F.size("nbrs")).collect()
    order: list[int] = []  # removed vertices, batch by batch
    levels: list[float] = []
    while live:
        degs = [d for _, d in live]
        s = sum(degs)
        t = rule(min(degs), s, len(degs))
        batch = sorted(v for v, d in live if d <= t)
        rec.round()
        rec.touch(s + len(batch))
        order += batch
        levels += [float(t)] * len(batch)
        if len(batch) == len(live):
            break
        state = state.where(F.size("nbrs") > t).select(
            "vertex",
            F.array_except("nbrs", F.lit(np.asarray(batch, np.int64))).alias("nbrs"),
        ).localCheckpoint(eager=False)
        live = state.select("vertex", F.size("nbrs")).collect()
    pdf = pd.DataFrame({"vertex": np.asarray(order, np.int64),
                        "rank": np.arange(len(order), dtype=np.int64),
                        "level": np.asarray(levels, np.float64)})
    return graph.edges.sparkSession.createDataFrame(
        pdf, "vertex long, rank long, level double")
