"""Fig. 8a reproduction — synthetic Kronecker sweep of graph sparsity.

Power-law Kronecker (R-MAT) graphs at two scales; sweep average degree
m/n and report preprocessing (DGR reordering) time vs mining (BK)
time separately, plus the reordering's cost in the paper's own unit:
DGR's rounds and work proxy (2m + Σ|U_i| elements read, ``peel.py``).
Paper finding: mining dominates for very sparse graphs; reordering
starts to dominate as m/n grows (Kronecker graphs lack large cliques,
so mining stays cheap while reorder cost grows ∝ m/n).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table, run_timed
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.mining.bron_kerbosch import bk_maximal_cliques
from repro.orderings.degeneracy import degeneracy_order


def run(spark: SparkSession, sf: float = 1.0,
        scales=(9, 10), degrees=(1, 2, 4, 8, 16)) -> list[dict]:
    rows = []
    for scale in scales:
        for avg_deg in degrees:
            pdf = gen.rmat(scale, float(avg_deg), seed=41)
            g = Graph.from_pandas(spark, pdf)
            g.collect_adjacency()  # build representation outside the timings
            rec = WorkDepthRecorder()
            res = run_timed(
                f"scale={scale} d={avg_deg}",
                preprocess=lambda: degeneracy_order(g, rec),
                kernel=lambda od: bk_maximal_cliques(
                    g, order=od, set_repr="bitmap").collect(),
            )
            row = res.row()
            row["n"] = 1 << scale
            row["m"] = len(pdf)
            row["m/n"] = round(len(pdf) / (1 << scale), 2)
            row["preprocessing_time"] = row.pop("preprocess_s")
            row["mining_time"] = row.pop("kernel_s")
            row["dgr_rounds"] = rec.iterations
            row["preprocessing_work"] = rec.set_elements_touched
            rows.append(row)
    print_table("Fig. 8a: Kronecker sparsity sweep — preprocess vs mine", rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
