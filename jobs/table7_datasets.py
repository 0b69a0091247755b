"""Table 7 reproduction — dataset statistics for the synthetic suite.

Prints, per synthetic family (each standing in for one Table-7 regime):
n, m, m/n, max degree, T (triangles), T/n, and T̂ (max triangles per
vertex — the T-skew column), plus the regime note explaining which
paper row it substitutes.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table
from repro.graphs.generators import TABLE7_SUITE


def run(spark: SparkSession, sf: float = 1.0) -> list[dict]:
    rows = []
    for name, (factory, note) in sorted(TABLE7_SUITE.items()):
        g = Graph.from_pandas(spark, factory(sf=sf))
        s = g.stats()
        rows.append(
            {
                "graph": name,
                "n": s["n"],
                "m": s["m"],
                "m/n": round(s["m_over_n"], 2),
                "d_max": s["max_deg"],
                "T": s["T"],
                "T/n": round(s["T_over_n"], 2),
                "T_max(v)": s["T_max_per_vertex"],
                "regime": note,
            }
        )
    print_table("Table 7 (synthetic substitutes): dataset statistics", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
