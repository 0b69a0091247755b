"""Tables 5/6 empirical validation — work/depth proxies vs the bounds.

The concurrency analysis cannot be "rerun" on hardware, but its
predictions are observable (paper §7, Lemma 7.1):

* ADG depth: #rounds = O(log n) for fixed ε → measured rounds should
  grow ~linearly in log2(n) while exact peeling rounds grow faster;
* ADG work: O(m) → the elements the per-round degree updates read,
  Σ over rounds of (|live degrees| + Σ_{b ∈ batch} |N(b)|) = 2m + Σ|U_i|,
  stays within a constant multiple of m+n (the benchmark gates it at
  4·(m+n); a per-round recomputation of every degree would read
  O(m·rounds));
* approximation quality: max #later-ranked neighbours ≤ (2+2ε)·d.

One row per graph size over an ER family with constant average degree.
"""
from __future__ import annotations

import math

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.graphs.reference import ref_degeneracy
from repro.orderings.adg import adg_order
from repro.orderings.degeneracy import degeneracy_order


def _later_bound(pdf, order):
    adj: dict[int, set[int]] = {}
    for s, d in pdf.itertuples(index=False, name=None):
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    return max(
        sum(1 for u in nbrs if order.get(u, 0) > order.get(v, 0))
        for v, nbrs in adj.items()
    )


def run(spark: SparkSession, sf: float = 1.0, sizes=(200, 400, 800, 1600),
        eps: float = 0.1) -> list[dict]:
    rows = []
    for n in sizes:
        n = int(n * max(sf, 0.25))
        pdf = gen.gnm(n, 4 * n, seed=91)
        g = Graph.from_pandas(spark, pdf)
        rec_adg, rec_dgr = WorkDepthRecorder(), WorkDepthRecorder()
        order_df = adg_order(g, epsilon=eps, recorder=rec_adg)
        degeneracy_order(g, recorder=rec_dgr)
        order = {r["vertex"]: r["rank"] for r in order_df.collect()}
        d = ref_degeneracy(pdf)
        rows.append(
            {
                "n": g.num_vertices(),
                "m": g.num_edges(),
                "log2(n)": round(math.log2(max(g.num_vertices(), 2)), 1),
                "ADG_rounds": rec_adg.iterations,
                "DGR_rounds": rec_dgr.iterations,
                "ADG_work_proxy": rec_adg.set_elements_touched,
                "work/(m+n)": round(rec_adg.set_elements_touched
                                    / (g.num_vertices() + g.num_edges()), 2),
                "degeneracy_d": d,
                "max_later_nbrs": _later_bound(pdf, order),
                "(2+2eps)*d": round((2 + 2 * eps) * d, 1),
            }
        )
    print_table("Tables 5/6: ADG O(log n) depth & O(m) work, (2+eps) quality",
                rows)
    return rows


if __name__ == "__main__":
    from _common import main

    main(run)
