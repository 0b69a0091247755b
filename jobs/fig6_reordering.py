"""Fig. 6 reproduction — reordering analysis on a youtube-like graph.

Compares DGR, DEG and ADG at ε ∈ {0.5, 0.1, 0.01}: reordering time
alone, and the downstream Bron–Kerbosch (Eppstein-variant, i.e. the
ordered BK kernel) time under that ordering — the two stacked bars of
Fig. 6.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.mining.bron_kerbosch import bk_maximal_cliques
from repro.orderings.adg import adg_order
from repro.orderings.degeneracy import degeneracy_order
from repro.orderings.degree import degree_order


def run(spark: SparkSession, sf: float = 1.0) -> list[dict]:
    # youtube regime: very low m/n and T, heavy degree tail
    pdf = gen.barabasi_albert(int(2000 * sf) + 20, 3, seed=21)
    g = Graph.from_pandas(spark, pdf)
    g.collect_adjacency()  # build representation outside the timings
    variants = [
        ("DGR", lambda rec: degeneracy_order(g, recorder=rec)),
        ("DEG", lambda rec: degree_order(g)),
        ("GMS (ADG, eps=0.5)", lambda rec: adg_order(g, epsilon=0.5, recorder=rec)),
        ("GMS (ADG, eps=0.1)", lambda rec: adg_order(g, epsilon=0.1, recorder=rec)),
        ("GMS (ADG, eps=0.01)",
         lambda rec: adg_order(g, epsilon=0.01, recorder=rec)),
    ]
    rows = []
    for name, mk in variants:
        rec = WorkDepthRecorder()
        res = run_timed(
            name,
            preprocess=lambda mk=mk, rec=rec: mk(rec),
            kernel=lambda od: bk_maximal_cliques(
                g, order=od, set_repr="bitmap").collect(),
        )
        row = res.row()
        row["reorder_s"] = row.pop("preprocess_s")
        row["bk_s"] = row.pop("kernel_s")
        row["reorder_jobs"] = row.pop("preprocess_jobs")
        row["bk_jobs"] = row.pop("kernel_jobs")
        # rounds = the deterministic depth proxy (DEG is a single sort)
        row["reorder_rounds"] = rec.iterations if rec.iterations else 1
        rows.append(row)
    print_table("Fig. 6: reordering (DGR/DEG/ADG-eps) + downstream BK", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
