"""The peeling engine behind DGR and ADG (paper §6.1, Alg. 5; Lemma 7.1).

Both orderings repeat one step: remove, in one parallel batch B, every
live vertex whose degree in the live induced subgraph is at most a
threshold. They differ only in the threshold, which a rule computes from
the live degrees' (min, sum, count). As in Julienne's bucketed peeling
(Dhulipala, Blelloch, Shun, SPAA'17), degrees are updated incrementally:
a round subtracts, from each vertex, its number of neighbours in B, and
touches nothing else.

The engine runs on the driver over ``Graph.collect_adjacency``, held as
CSR arrays (ascending vertex IDs, ``indptr``, neighbour positions), so
no round launches a Spark job. Ranks follow (round, vertex).

The work proxy counts what a round reads: the |U| live degrees and the
Σ_{b∈B} |N(b)| neighbour entries of the batch, 2m + Σ_i |U_i| per run.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from pyspark.sql import DataFrame

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
    adj = graph.collect_adjacency()
    ids = np.fromiter(adj, np.int64, len(adj))  # ascending
    deg = np.fromiter((a.size for a in adj.values()), np.int64, len(adj))
    indptr = np.concatenate(([0], np.cumsum(deg)))
    nbr_pos = np.searchsorted(ids, np.concatenate([np.empty(0, np.int64), *adj.values()]))
    live = np.arange(ids.size)  # positions, so batches stay in vertex order
    order: list[int] = []  # removed vertices, batch by batch
    levels: list[float] = []
    while live.size:
        d = deg[live]
        t = rule(int(d.min()), int(d.sum()), live.size)
        in_batch = d <= t
        batch = live[in_batch]
        # The batch's neighbour entries, read as one gather over their CSR rows.
        sizes = indptr[batch + 1] - indptr[batch]
        starts = np.repeat(indptr[batch] - (np.cumsum(sizes) - sizes), sizes)
        reads = nbr_pos[starts + np.arange(sizes.sum())]
        np.subtract.at(deg, reads, 1)
        rec.round()
        rec.touch(live.size + reads.size)
        order += ids[batch].tolist()
        levels += [float(t)] * batch.size
        live = live[~in_batch]
    return ranked(graph, order, levels)
