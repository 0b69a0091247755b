"""Fig. 5 reproduction — k-clique listing with DEG/DGR/ADG reorderings.

For each (graph, k) the paper plots total runtime split into the
reordering fraction and the mining fraction, for KC-DEG, KC-DGR and
KC-ADG. Same rows here, plus clique counts and throughput.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.graphs import generators as gen
from repro.mining.bron_kerbosch import resolve_order
from repro.mining.kclique import kclique_count

ORDERS = [("KC-DEG", "deg"), ("KC-DGR", "dgr"), ("KC-ADG", "adg")]


def run(spark: SparkSession, sf: float = 1.0, ks=(3, 4, 5)) -> list[dict]:
    graphs = {
        "BA (orkut-like)": gen.barabasi_albert(int(1500 * sf) + 10, 6, seed=11),
        "planted (flickr-like)": gen.planted_cliques(
            int(40 * sf) + 2, 8, int(1000 * sf) + 20, int(2500 * sf) + 40, seed=12),
    }
    rows = []
    for gname, pdf in graphs.items():
        g = Graph.from_pandas(spark, pdf)
        g.collect_adjacency()  # build representation outside the timings
        for k in ks:
            for vname, order in ORDERS:
                res = run_timed(
                    f"{vname} k={k}",
                    preprocess=lambda order=order: resolve_order(g, order),
                    kernel=lambda od, k=k: kclique_count(g, k, order=od),
                    count=lambda out: out,
                )
                row = res.row()
                row["graph"] = gname
                rows.append(row)
    print_table("Fig. 5: k-clique listing — reorder vs mining time", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
