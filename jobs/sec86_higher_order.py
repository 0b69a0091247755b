"""§8.6 reproduction — subtleties of higher-order structure.

Two synthetic graphs matched on n, m, m/n (the paper's Livemocha vs
Flickr-photo pair) whose *origins* differ: planted-clique (clique-rich)
vs caveman (dense but non-clique clusters). The table shows near-equal
coarse statistics but wildly different 4-clique counts — the paper's
point that origin, not size/sparsity, drives mining cost. ``order_s``
times the DGR ordering and ``mine4_s`` the 4-clique count under it.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.graphs import generators as gen
from repro.mining.kclique import kclique_count
from repro.orderings.degeneracy import degeneracy_order


def run(spark: SparkSession, sf: float = 1.0) -> list[dict]:
    # tuned so n and m land close to each other
    graphs = {
        "flickr-photo analog (planted cliques)": gen.planted_cliques(
            int(45 * sf) + 2, 8, int(1200 * sf) + 20, int(2400 * sf) + 40, seed=81),
        "livemocha analog (caveman)": gen.caveman(
            int(24 * sf) + 2, 50, 0.105, int(900 * sf) + 10, seed=82),
    }
    rows = []
    for gname, pdf in graphs.items():
        g = Graph.from_pandas(spark, pdf)
        s = g.stats()
        res = run_timed(
            gname,
            preprocess=lambda: degeneracy_order(g),
            kernel=lambda order: kclique_count(g, 4, order=order),
            count=lambda out: out,
        )
        rows.append(
            {
                "graph": gname,
                "n": s["n"],
                "m": s["m"],
                "m/n": round(s["m_over_n"], 2),
                "T": s["T"],
                "4cliques": res.pattern_count,
                "order_s": round(res.preprocess_s, 3),
                "mine4_s": round(res.runtime_s, 3),
            }
        )
    print_table("§8.6: similar n/m, very different 4-clique structure", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
