"""Subgraph isomorphism — VF2-style backtracking with GMS enhancements
(paper §6.4, Fig. 7).

The target graph is "shared memory" in the paper's setting, so
``Graph.per_root`` broadcasts it (adjacency + candidate sets) to all
Spark tasks; the search tree is parallelised over root assignments of
the first query vertex(es).

Baseline (``optimized=False``) ≈ parallel VF3-Light: label-filtered
candidates, pairwise adjacency feasibility checks, node-parallel roots.

GMS enhancements (each a Fig. 7 ablation knob):
* ``work_split=2`` — roots are *pairs* of assignments for the first two
  plan vertices → many more, smaller prefixes, dealt round-robin over
  the tasks by ``Graph.per_root``.
* ``optimized=True`` — (a) per-query-vertex candidate sets precomputed
  once (label + degree filter; the paper's "precompute scheme"), and
  (b) candidate generation by *intersecting neighbour sets* of already
  placed vertices with numpy sorted-array intersections (the
  vectorised/"SIMD" binary-search analog) instead of scanning
  label-candidates and checking adjacency pairwise.

Both induced and non-induced matching are supported (§A): induced
additionally requires query non-edges to map to target non-edges.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.graph import Graph

if TYPE_CHECKING:  # per-root kernels import this module in every Python worker
    import pandas as pd


def _plan(query_edges: pd.DataFrame, query_labels: pd.DataFrame) -> tuple[list[int], dict]:
    """Connected search order: max-degree first, then max placed-connectivity."""
    qadj: dict[int, set[int]] = {int(v): set() for v in query_labels["vertex"]}
    for s, d in query_edges[["src", "dst"]].itertuples(index=False, name=None):
        qadj[int(s)].add(int(d))
        qadj[int(d)].add(int(s))
    verts = sorted(qadj)
    first = max(verts, key=lambda v: (len(qadj[v]), -v))
    order = [first]
    rest = [v for v in verts if v != first]
    while rest:
        nxt = max(rest, key=lambda v: (len(qadj[v] & set(order)), len(qadj[v]), -v))
        order.append(nxt)
        rest.remove(nxt)
    return order, qadj


def _extensions(order, qadj, tadj, cand_sets, assignment, induced, optimized
                ) -> list[int]:
    """Feasible targets for the next plan vertex under a partial assignment."""
    depth = len(assignment)
    q = order[depth]
    placed_nbrs = [p for p in order[:depth] if p in qadj[q]]
    placed_non = [p for p in order[:depth] if p not in qadj[q]]
    used = set(assignment.values())
    vectorised = optimized and bool(placed_nbrs)
    if vectorised:
        # set-algebra candidate generation: ∩ of neighbour arrays of the
        # already-placed neighbours, then intersect the precomputed
        # label/degree candidate set (numpy merge intersections).
        cand = tadj[assignment[placed_nbrs[0]]]
        for p in placed_nbrs[1:]:
            cand = np.intersect1d(cand, tadj[assignment[p]], assume_unique=True)
        cand = np.intersect1d(cand, cand_sets[q], assume_unique=True)
    else:
        cand = cand_sets[q]

    out = []
    for t in cand.tolist():
        if t in used:
            continue
        # VF2-style pairwise feasibility on query edges
        if not vectorised and any(not _adjacent(tadj, assignment[p], t)
                                  for p in placed_nbrs):
            continue
        if induced and any(_adjacent(tadj, assignment[p], t) for p in placed_non):
            continue
        out.append(t)
    return out


def _search(order, qadj, tadj, cand_sets, assignment, induced, optimized):
    """Complete a partial assignment (dict q→t); returns #completions."""
    if len(assignment) == len(order):
        return 1
    q = order[len(assignment)]
    total = 0
    for t in _extensions(order, qadj, tadj, cand_sets, assignment, induced,
                         optimized):
        assignment[q] = t
        total += _search(order, qadj, tadj, cand_sets, assignment, induced,
                         optimized)
        del assignment[q]
    return total


def _adjacent(tadj: dict[int, np.ndarray], a: int, b: int) -> bool:
    arr = tadj[a]
    i = arr.searchsorted(b)  # the method skips np.searchsorted's dispatch
    return bool(i < arr.size and arr[i] == b)


def si_count(
    spark: SparkSession,
    target: Graph,
    target_labels: pd.DataFrame,
    query_edges: pd.DataFrame,
    query_labels: pd.DataFrame,
    induced: bool = True,
    optimized: bool = False,
    work_split: int = 1,
    num_partitions: int | None = None,
) -> int:
    """Number of label-respecting embeddings of the query in the target."""
    if work_split not in (1, 2):
        raise ValueError("work_split must be 1 or 2")
    order, qadj = _plan(query_edges, query_labels)
    qlab = {int(v): int(l) for v, l in
            query_labels[["vertex", "label"]].itertuples(index=False, name=None)}
    # broadcast the target (the paper's shared-memory graph)
    tlab = {int(v): int(l) for v, l in
            target_labels[["vertex", "label"]].itertuples(index=False, name=None)}
    # label-only (degree 0) targets go into a copy: the graph's adjacency is shared
    tadj = {**dict.fromkeys(tlab, np.empty(0, np.int64)), **target.collect_adjacency()}

    # precomputed candidate sets per query vertex: label match, and with
    # the optimisation also the degree lower bound
    cand_sets = {
        q: np.asarray([t for t in sorted(tadj) if tlab.get(t, -1) == qlab[q]
                       and (not optimized or tadj[t].size >= len(qadj[q]))],
                      dtype=np.int64)
        for q in order
    }

    # root prefixes of length ``work_split``, grown by the search's own step
    prefixes = [(t,) for t in cand_sets[order[0]].tolist()]
    if work_split == 2 and len(order) > 1:
        prefixes = [(t0, t1) for (t0,) in prefixes
                    for t1 in _extensions(order, qadj, tadj, cand_sets,
                                          {order[0]: t0}, induced, optimized)]
    shared = dict(order=order, qadj=qadj, tadj=tadj, cand_sets=cand_sets,
                  induced=induced, optimized=optimized)
    return int(target.per_root(
        shared, prefixes,
        lambda s, prefix: [_search(assignment=dict(zip(s["order"], prefix)), **s)],
        num_partitions).sum())
