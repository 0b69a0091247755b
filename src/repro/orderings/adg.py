"""(2+ε)-approximate degeneracy ordering — ADG, paper Algorithm 5 (§6.1).

Each iteration removes *in one parallel batch* every vertex whose
degree in the remaining induced subgraph U is ≤ (1+ε)·avg_deg(U). At
least a constant fraction of U leaves each round (at most 1/(1+ε) of U
can exceed the threshold by Markov's inequality), so the number of
rounds is O(log n) for any ε > 0 — the paper's Lemma 7.1 — versus the
Θ(n)-round worst case of exact peeling. Every vertex then has at most
(2+2ε)·d̂ neighbours ranked later, the (2+ε)-approximation property
tests assert.

Set-algebra view (5+): the per-round batch is R = {v ∈ U : deg_U(v) ≤
(1+ε)δ̂_U}; U ← U ∖ R is a set difference; deg_U is a set cardinality.
ADG is a threshold rule over the shared peeling engine in ``peel.py``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder
from repro.orderings.peel import peel


def adg_order(
    graph: Graph,
    epsilon: float = 0.1,
    recorder: WorkDepthRecorder | None = None,
) -> DataFrame:
    """(vertex, rank) — approximate degeneracy ordering, Algorithm 5.

    Batch i gets ranks before batch i+1; within a batch ranks follow
    vertex ID (the paper assigns the whole batch the same priority, so
    any internal order is valid).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")

    def threshold(lo: int, s: int, u: int) -> float:
        # The paper removes v when |N_U(v)|/2 ≤ (1+ε)δ̂_U, δ̂_U = (Σ deg/2)/|U|;
        # doubled, deg ≤ 2(1+ε)δ̂_U. Never below the min, so no batch is empty.
        return max(2 * ((1 + epsilon) * ((s / 2) / u)), lo)

    return peel(graph, threshold, recorder).select("vertex", "rank")
