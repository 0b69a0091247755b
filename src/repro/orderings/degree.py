"""Degree ordering (DEG) — paper Table 4 "a straightforward parallel sort".

Rank vertices by ascending degree (ties by vertex ID for determinism), a
driver-side sort of ``Graph.collect_adjacency``. Used as the cheap
preprocessing baseline in Figs. 4/5/6.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.graph import Graph


def ranked(graph: Graph, vertices: list[int], levels: list[float] | None = None
           ) -> DataFrame:
    """Any ordering's (vertex, rank[, level]), rank i for ``vertices[i]``.

    A local relation: reading it launches no Spark job.
    """
    import pandas as pd  # BK and k-clique workers import this module

    pdf = pd.DataFrame({"vertex": np.asarray(vertices, np.int64),
                        "rank": np.arange(len(vertices), dtype=np.int64)})
    if levels is not None:
        pdf["level"] = np.asarray(levels, np.float64)
    schema = "vertex long, rank long" + (", level double" if levels is not None else "")
    return graph.edges.sparkSession.createDataFrame(pdf, schema)


def degree_order(graph: Graph) -> DataFrame:
    """(vertex, rank) with rank 0..n-1 ascending by (degree, vertex)."""
    nbrs = graph.collect_adjacency()
    return ranked(graph, sorted(nbrs, key=lambda v: (nbrs[v].size, v)))


def identity_order(graph: Graph) -> DataFrame:
    """(vertex, rank=vertex-position) — the 'no reordering' baseline."""
    return ranked(graph, list(graph.collect_adjacency()))  # keys ascend
