"""The peeling engine behind DGR and ADG (paper §6.1, Alg. 5; Lemma 7.1).

Both orderings repeat one step: remove, in one parallel batch B, every
live vertex whose degree in the live induced subgraph is at most a
threshold. They differ only in the threshold, which a rule computes from
the live degrees' (min, sum, count). As in Julienne's bucketed peeling
(Dhulipala, Blelloch, Shun, SPAA'17), degrees are updated incrementally
(N(v) ← N(v) ∖ B), never recomputed from the edge list.

State is one checkpointed DataFrame of the live rows (vertex, nbrs). The
driver takes each round's statistics, threshold t and B = {v : |N(v)| ≤ t}
from the state's (vertex, |N(v)|) pairs: the first round's come from
``Graph.collect_adjacency``, each later round's from one Spark job. The
next state keeps the rows with |N(v)| > t and drops B from their
neighbourhoods with one array literal. Ranks follow (round, vertex),
assigned on the driver.

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
from repro.orderings.degree import ranked


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
    rec = recorder or WorkDepthRecorder()
    state = graph.adjacency().select("vertex", "nbrs")
    live = [(v, a.size) for v, a in graph.collect_adjacency().items()]
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
    return ranked(graph, order, levels)
