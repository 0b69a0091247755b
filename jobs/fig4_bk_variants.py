"""Figs. 1/4/11 reproduction — Bron–Kerbosch variant ablation.

For graphs spanning the paper's structural regimes, runs the five BK
variants of Fig. 4 and reports per-variant reorder time, kernel time,
total time, maximal-clique count, and the algorithmic-throughput metric
(maximal cliques per second — the Fig. 1/11 y-axis):

  BK-DAS(analog)   ID order, sorted-array sets   (tuned external baseline)
  BK-GMS-DEG       degree order, bitmap sets
  BK-GMS-DGR       exact degeneracy order, bitmap sets (Eppstein variant)
  BK-GMS-ADG       (2+ε)-approx degeneracy order, bitmap sets  [this paper]
  BK-GMS-ADG-S     ADG + precomputed-subgraph optimisation     [this paper]
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.graphs import generators as gen
from repro.mining.bron_kerbosch import bk_maximal_cliques, resolve_order

VARIANTS = [
    ("BK-DAS(analog)", dict(order="none", set_repr="sorted", subgraph_opt=False)),
    ("BK-GMS-DEG", dict(order="deg", set_repr="bitmap", subgraph_opt=False)),
    ("BK-GMS-DGR", dict(order="dgr", set_repr="bitmap", subgraph_opt=False)),
    ("BK-GMS-ADG", dict(order="adg", set_repr="bitmap", subgraph_opt=False)),
    ("BK-GMS-ADG-S", dict(order="adg", set_repr="bitmap", subgraph_opt=True)),
]


def graphs_for(sf: float):
    return {
        "planted-cliques (flickr-like)": gen.planted_cliques(
            int(40 * sf) + 2, 8, int(1000 * sf) + 20, int(2500 * sf) + 40, seed=1),
        "caveman (livemocha-like)": gen.caveman(
            int(20 * sf) + 2, 40, 0.3, int(900 * sf) + 10, seed=2),
        "BA social (orkut-like)": gen.barabasi_albert(int(1500 * sf) + 10, 6, seed=3),
        "hub-clique (gupta3-like)": gen.hub_clique(
            int(1200 * sf) + 50, 30, int(2000 * sf) + 30, seed=4),
        "grid road (usa-like)": gen.grid_road(int(40 * max(sf, 0.2)) + 4,
                                              int(40 * max(sf, 0.2)) + 4),
    }


def run(spark: SparkSession, sf: float = 1.0) -> list[dict]:
    rows = []
    for gname, pdf in graphs_for(sf).items():
        g = Graph.from_pandas(spark, pdf)
        g.collect_adjacency()  # build representation outside the timings
        for vname, kw in VARIANTS:
            res = run_timed(
                vname,
                preprocess=lambda kw=kw: resolve_order(g, kw["order"]),
                kernel=lambda order_df, kw=kw: bk_maximal_cliques(
                    g, order=order_df, set_repr=kw["set_repr"],
                    subgraph_opt=kw["subgraph_opt"]).collect(),
            )
            row = res.row()
            row["graph"] = gname
            rows.append(row)
    print_table("Fig. 4 / Fig. 1: BK variants — runtime & clique throughput",
                rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
