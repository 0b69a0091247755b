"""Exact degeneracy ordering (DGR) + k-core decomposition (paper §6.1).

Parallel peeling: repeatedly remove *all* vertices whose degree in the
remaining induced subgraph is ≤ the current minimum level k. Removing a
whole batch keeps the ordering a valid degeneracy ordering (every batch
member has ≤ k ≤ d remaining neighbours, however the batch is ordered
internally) and each vertex's removal level is exactly its core number.

This is the Θ(n)-round-worst-case scheme the paper contrasts with ADG's
O(log n) rounds; a ``WorkDepthRecorder`` surfaces the round count for
Tables 5/6. DGR is the threshold rule k ← max(k, min live degree) over
the peeling engine of ``peel.py``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder
from repro.orderings.peel import peel


def core_decomposition(
    graph: Graph, recorder: WorkDepthRecorder | None = None
) -> DataFrame:
    """(vertex, rank, core) — degeneracy ordering plus core numbers.

    ``rank`` is the peeling position (0-based, batch members ordered by
    vertex ID); ``core`` is the exact k-core number. The graph
    degeneracy is ``max(core)``.
    """
    k = 0

    def level(lo: int, s: int, u: int) -> int:
        nonlocal k
        k = max(k, lo)  # never decreases: each batch's k is its core number
        return k

    out = peel(graph, level, recorder)
    return out.select("vertex", "rank", F.col("level").cast("long").alias("core"))


def degeneracy_order(
    graph: Graph, recorder: WorkDepthRecorder | None = None
) -> DataFrame:
    """(vertex, rank) degeneracy ordering — preprocessing-stage signature."""
    return core_decomposition(graph, recorder).select("vertex", "rank")

