"""Fig. 7 reproduction — subgraph isomorphism optimisation ablation.

Paper setup: parallel VF3-Light on a labeled Erdős–Rényi target
(n=10000, p=0.2 — scaled down here), induced matching, thread-count
sweep. We ablate the GMS knobs (work splitting, candidate precompute +
vectorised filtering) and sweep Spark task parallelism as the thread
axis.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.graphs import generators as gen
from repro.mining.subgraph_iso import si_count


def _query():
    # labeled 4-vertex pattern: triangle + pendant (dense enough to prune)
    qe = pd.DataFrame({"src": [0, 1, 0, 2], "dst": [1, 2, 2, 3]})
    ql = pd.DataFrame({"vertex": [0, 1, 2, 3], "label": [0, 1, 0, 1]})
    return qe, ql


def run(spark: SparkSession, sf: float = 1.0) -> list[dict]:
    n = int(500 * sf) + 50
    edges, labels = gen.labeled_erdos_renyi(n, 0.05, 2, seed=31)
    g = Graph.from_pandas(spark, edges)
    g.collect_adjacency()  # build representation outside the timings
    qe, ql = _query()
    ablation = [
        ("VF3-Light(analog) baseline", dict(optimized=False, work_split=1)),
        ("GMS work splitting", dict(optimized=False, work_split=2)),
        ("GMS precompute+vectorised", dict(optimized=True, work_split=1)),
        ("GMS all optimisations", dict(optimized=True, work_split=2)),
    ]
    rows = []
    for name, kw in ablation:
        res = run_timed(
            name,
            kernel=lambda kw=kw: si_count(spark, g, labels, qe, ql,
                                          induced=True, **kw),
            count=lambda out: out,
        )
        row = res.row()
        row["sweep"] = "ablation"
        rows.append(row)
    # parallelism sweep (the Fig. 7 x-axis) with all optimisations on
    for parts in (1, 2, 4, 8, 16):
        res = run_timed(
            f"GMS all, partitions={parts}",
            kernel=lambda parts=parts: si_count(
                spark, g, labels, qe, ql, induced=True, optimized=True,
                work_split=2, num_partitions=parts),
            count=lambda out: out,
        )
        row = res.row()
        row["sweep"] = "parallelism"
        rows.append(row)
    print_table("Fig. 7: subgraph isomorphism — GMS optimisation ablation", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
