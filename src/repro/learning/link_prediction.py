"""Link prediction + accuracy assessment (paper §6.7).

The paper's protocol, verbatim in set algebra:

  E_sparse = E ∖ E_rndm  (E_rndm ⊆ E random held-out links)
  score every candidate pair e ∈ (V×V) ∖ E_sparse with similarity S
  E_predict = top-|E_rndm| scored pairs
  eff(S)   = |E_predict ∩ E_rndm|

Candidates are restricted to distance-2 pairs in the sparse graph (the
only pairs any common-neighbour-based S can score non-zero), which is
the standard tractable candidate set.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.learning.similarity import similarity


def split_edges(graph: Graph, holdout_frac: float, seed: int = 0
                ) -> tuple[Graph, DataFrame]:
    """(sparse graph, held-out edges E_rndm) — disjoint, union = E.

    Each edge's draw is a hash of (src, dst, seed), so the split does not
    depend on partition layout and ``held``/``sparse`` complement each
    other however often they are evaluated.
    """
    if not (0 < holdout_frac < 1):
        raise ValueError("holdout_frac must be in (0, 1)")
    r = F.pmod(F.xxhash64("src", "dst", F.lit(seed)), F.lit(1 << 30)) / (1 << 30)
    tagged = graph.edges.withColumn("r", r)
    held = tagged.where(F.col("r") < holdout_frac).drop("r")
    sparse = tagged.where(F.col("r") >= holdout_frac).drop("r")
    return Graph(sparse), held


def candidate_pairs(sparse: Graph) -> DataFrame:
    """Distance-2 non-adjacent pairs (u < v) in the sparse graph."""
    e = sparse.symmetric_edges()
    wedges = (
        e.select(F.col("src").alias("u"), F.col("dst").alias("w"))
        .join(e.select(F.col("src").alias("w"), F.col("dst").alias("v")), "w")
        .where(F.col("u") < F.col("v"))
        .select("u", "v")
        .distinct()
    )
    return wedges.join(
        sparse.edges.select(F.col("src").alias("u"), F.col("dst").alias("v")),
        ["u", "v"],
        "left_anti",
    )


def predict_links(
    graph: Graph,
    holdout_frac: float = 0.1,
    measure: str = "jaccard",
    seed: int = 0,
) -> dict:
    """Run the full §6.7 protocol; returns eff, |E_rndm|, precision."""
    sparse, held = split_edges(graph, holdout_frac, seed)
    n_held = held.count()
    if n_held == 0:
        return {"measure": measure, "eff": 0, "n_held": 0, "precision": 0.0}
    cands = candidate_pairs(sparse)
    scored = similarity(sparse, cands, measures=(measure,))
    top = (
        scored.orderBy(F.col(measure).desc(), F.col("u").asc(), F.col("v").asc())
        .limit(n_held)
    )
    hits = top.join(
        held.select(F.col("src").alias("u"), F.col("dst").alias("v")), ["u", "v"]
    ).count()
    return {
        "measure": measure,
        "eff": int(hits),          # |E_predict ∩ E_rndm| — the paper's eff
        "n_held": int(n_held),
        "precision": hits / n_held,
    }
