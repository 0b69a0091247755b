"""Fig. 8c reproduction — set-centric representation memory footprints.

For three graphs matching the paper's h-wen (web), s-ork (social) and
v-usa (road) regimes, the adjacency is collected once and one set per
neighbourhood is built with each kernel-side representation (sorted,
bitmap, hash): the sets' own ``nbytes()``, the bytes tracemalloc still
sees after the build, and its peak during the build. Plus the
Log(Graph)-style compression sizes of the same adjacency (Appendix B).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.core.metrics import print_table
from repro.graphs import generators as gen
from repro.reprs.layouts import compression_sizes, representation_sizes


def _mb(b: int) -> float:
    return round(b / 1e6, 6)


def run(spark: SparkSession, sf: float = 1.0) -> list[dict]:
    graphs = {
        "web (h-wen analog, RMAT)": gen.rmat(11, 6.0, seed=61),
        "social (s-ork analog, BA)": gen.barabasi_albert(int(2000 * sf) + 20,
                                                         8, seed=62),
        "road (v-usa analog, grid)": gen.grid_road(int(45 * max(sf, 0.2)) + 4,
                                                   int(45 * max(sf, 0.2)) + 4),
    }
    rows, crows = [], []
    for gname, pdf in graphs.items():
        nbrs = Graph.from_pandas(spark, pdf).collect_adjacency()
        for rep, s in representation_sizes(nbrs).items():
            rows.append({"graph": gname, "representation": rep,
                         "nbytes_MB": _mb(s["nbytes_b"]),
                         "traced_MB": _mb(s["traced_b"]),
                         "peak_MB": _mb(s["peak_b"])})
        crows.append({"graph": gname, **{k: _mb(v) for k, v in
                                         compression_sizes(nbrs).items()}})
    print_table("Fig. 8c: measured set sizes and construction peaks (MB)", rows)
    print_table("App. B: Log(Graph)-style compression sizes (MB)", crows)
    return rows + crows


if __name__ == "__main__":
    from _common import main

    main(run)
