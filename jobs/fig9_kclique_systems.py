"""Fig. 9 reproduction — k-clique listing across "systems".

The paper ranks GMS ≥ GBBS ≫ Danisch-edge ≫ pattern-matching
frameworks (Peregrine/RStream, 10–100× slower). The in-repo analogs
(DESIGN.md substitutions):

  GMS            node-parallel + ADG ordering      (this paper's variant)
  GBBS(analog)   node-parallel + exact DGR         (GBBS supports this exact scheme)
  Danisch(analog) edge-parallel + exact DGR        (the edge-centric original)
  Framework(analog) unoriented exhaustive search   (abstraction-overhead regime)
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.mining.bron_kerbosch import resolve_order
from repro.mining.kclique import kclique_count, kclique_count_naive


def run(spark: SparkSession, sf: float = 1.0, ks=(4, 5)) -> list[dict]:
    graphs = {
        "planted (sc-ht analog)": gen.planted_cliques(
            int(25 * sf) + 2, 8, int(600 * sf) + 20, int(1500 * sf) + 40, seed=71),
        "BA (dblp analog)": gen.barabasi_albert(int(800 * sf) + 10, 5, seed=72),
    }
    systems = [
        ("GMS", dict(order="adg", strategy="node")),
        ("GBBS(analog)", dict(order="dgr", strategy="node")),
        ("Danisch(analog)", dict(order="dgr", strategy="edge")),
    ]
    rows = []
    for gname, pdf in graphs.items():
        g = Graph.from_pandas(spark, pdf)
        g.collect_adjacency()  # build representation outside the timings
        for k in ks:
            for sname, kw in systems:
                rec = WorkDepthRecorder()
                res = run_timed(
                    f"{sname} k={k}",
                    preprocess=lambda kw=kw: resolve_order(g, kw["order"]),
                    kernel=lambda od, k=k, kw=kw, rec=rec: kclique_count(
                        g, k, order=od, strategy=kw["strategy"], recorder=rec),
                    count=lambda out: out,
                )
                row = res.row()
                row["graph"] = gname
                row["work_proxy"] = rec.set_elements_touched
                rows.append(row)
            rec = WorkDepthRecorder()
            res = run_timed(
                f"Framework(analog) k={k}",
                kernel=lambda k=k, rec=rec: kclique_count_naive(
                    g, k, recorder=rec),
                count=lambda out: out,
            )
            row = res.row()
            row["graph"] = gname
            row["work_proxy"] = rec.set_elements_touched
            rows.append(row)
    print_table("Fig. 9: k-clique listing across system analogs", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
