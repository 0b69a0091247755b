"""The benchmark's workloads: inputs made from a seed, oracle counts, and
the operations of one pass.

Each input graph has a fixed shape, made by a generator with a fixed seed;
the benchmark's ``--seed`` draws a random relabelling of its vertex IDs.
Every seed therefore mines the same patterns in the same number of peeling
rounds, so runs with different seeds are comparable, while the program
still sees different inputs: ties in every ordering, the orientation, the
hash partitioning and the per-root task layout all follow the vertex IDs.

An operation is one (graph, variant) mining call. Untraced, it is the one
public call a user would make (ordering inside it, then mining, then
gather). Traced, the same work is split at the layer boundaries: the
ordering is forced and timed on its own, the orientation is timed by a
standalone ``Graph.oriented`` call, then the mining kernel, then gather.
The kernel span still includes the orientation the kernel does itself.

Workloads and why each was chosen (paper §4.3, Figs. 4–7):

* ``peel`` — DGR and ADG orderings, each followed by 4-clique counting on
  a Barabási–Albert graph, all in Catalyst. The orderings' peeling rounds
  do most of the work and no Python kernel runs.
* ``kernels`` — the two per-root Python kernels. Bron–Kerbosch (subgraph
  optimisation on, DEG order) on a caveman graph of dense non-clique
  communities, once with bitmap and once with hash sets (Fig. 4); then
  the baseline and the all-optimisations variant of induced subgraph
  isomorphism on a labelled Erdős–Rényi target (Fig. 7), whose collect of
  the target, broadcast and RDD map share no code with BK. Ordering is
  negligible here.
"""
from __future__ import annotations

import importlib.util
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx
import numpy as np
import pandas as pd

from repro.core.graph import Graph
from repro.core.sets import make_set_factory
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.mining.bron_kerbosch import bk_maximal_cliques
from repro.mining.kclique import kclique_count
from repro.mining.subgraph_iso import si_count
from repro.orderings.adg import adg_order
from repro.orderings.degeneracy import degeneracy_order
from repro.orderings.degree import degree_order

EPSILON = 0.1
K = 4
SHAPE_SEED = 1  # generator seed of every input graph's shape
SI_VARIANTS = {
    "base": dict(optimized=False, work_split=1),
    "all": dict(optimized=True, work_split=2),
}


@dataclass
class Input:
    edges: pd.DataFrame
    labels: pd.DataFrame | None = None

    @property
    def n(self) -> int:
        """Vertices with at least one edge, i.e. the roots of a per-root kernel."""
        return int(pd.unique(self.edges[["src", "dst"]].values.ravel()).size)


@dataclass
class Op:
    graph: str                                   # key into the workload's inputs
    untraced: Callable[[Graph], int]             # -> patterns mined
    traced: Callable[["Tracer", Graph], int]     # noqa: F821 (tracing.Tracer)


@dataclass
class Workload:
    inputs: Callable[[int, bool], dict[str, Input]]      # (seed, smoke) -> inputs
    ops: Callable[[object, dict[str, Input]], list[Op]]  # (spark, inputs) -> a pass
    # Traced runs only: measures layers once per pass, outside the pass time.
    probe: Callable[..., None] | None = None             # (tracer, inputs, graphs)


def _relabel(seed: int, edges: pd.DataFrame,
             labels: pd.DataFrame | None = None) -> Input:
    """The same graph with vertex IDs permuted by a seeded random permutation."""
    ids = edges[["src", "dst"]].to_numpy()
    n = int(ids.max()) + 1 if labels is None else len(labels)
    perm = np.random.default_rng(seed).permutation(n)
    new = perm[ids]
    edges = pd.DataFrame({"src": new.min(axis=1), "dst": new.max(axis=1)})
    edges = edges.sort_values(["src", "dst"], ignore_index=True)
    if labels is not None:
        labels = pd.DataFrame({"vertex": perm[labels["vertex"].to_numpy()],
                               "label": labels["label"].to_numpy()})
        labels = labels.sort_values("vertex", ignore_index=True)
    return Input(edges, labels)


def _fig7_query() -> tuple[pd.DataFrame, pd.DataFrame]:
    """The labelled 4-vertex query of ``jobs/fig7_subgraph_iso.py``."""
    path = Path(__file__).resolve().parent.parent / "jobs" / "fig7_subgraph_iso.py"
    spec = importlib.util.spec_from_file_location("fig7_subgraph_iso", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod._query()


# Expected patterns of every operation on a graph, from repro.graphs.reference.
ORACLES: dict[str, Callable[[Input], int]] = {
    "ba": lambda inp: ref.ref_kclique_count(inp.edges, K),
    "cave": lambda inp: sum(1 for _ in nx.find_cliques(ref.nx_graph(inp.edges))),
    "er": lambda inp: ref.ref_subgraph_iso_count(
        inp.edges, inp.labels, *_fig7_query(), induced=True),
}


# -- the ordering and orientation layers, shared by both workloads ---------------


def _order(graph: Graph, name: str, rec: WorkDepthRecorder):
    if name == "dgr":
        return degeneracy_order(graph, recorder=rec)
    if name == "adg":
        return adg_order(graph, epsilon=EPSILON, recorder=rec)
    return degree_order(graph)


def _traced_order(tr, graph: Graph, name: str):
    """Force and time the ordering, then time a standalone orientation."""
    rec = WorkDepthRecorder()
    with tr.span(f"order.s.{name}", f"order.jobs.{name}"):
        order = _order(graph, name, rec).localCheckpoint(eager=True)
    if name != "deg":
        tr.count(f"order.rounds.{name}", rec.iterations)
        tr.count(f"order.work.{name}", rec.set_elements_touched)
    with tr.span("orient.s", "orient.jobs"):
        graph.oriented(order).localCheckpoint(eager=True)
    return order


# -- peel ------------------------------------------------------------------------


def _kclique_op(o: str) -> Op:
    def traced(tr, g):
        order = _traced_order(tr, g, o)
        rec = WorkDepthRecorder()  # adds one aggregation job per level
        with tr.span(f"kclique.s.{o}", f"kclique.jobs.{o}"):
            n = kclique_count(g, K, order=order, recorder=rec)
        tr.count(f"kclique.work.{o}", rec.set_elements_touched)
        return n

    return Op("ba", lambda g: kclique_count(g, K, order=o, epsilon=EPSILON), traced)


def _peel_inputs(seed: int, smoke: bool) -> dict[str, Input]:
    n, m = (40, 3) if smoke else (120, 5)
    return {"ba": _relabel(seed, gen.barabasi_albert(n, m, seed=SHAPE_SEED))}


# -- kernels ---------------------------------------------------------------------


def _root_skew(rows, n_roots: int) -> float:
    """max / mean maximal cliques per root, over every root of the graph."""
    per_root = Counter(r["root"] for r in rows)
    return max(per_root.values()) / (len(rows) / n_roots) if rows else 0.0


def _bk_op(n_roots: int, set_repr: str) -> Op:
    kw = dict(set_repr=set_repr, subgraph_opt=True)

    def traced(tr, g):
        order = _traced_order(tr, g, "deg")
        with tr.span(f"bk.s.{set_repr}", f"bk.jobs.{set_repr}"):
            out = bk_maximal_cliques(g, order=order, **kw).localCheckpoint(eager=True)
        with tr.span(f"gather.s.{set_repr}"):
            rows = out.collect()
        tr.count(f"gather.rows.{set_repr}", len(rows))
        tr.count(f"bk.root_skew.{set_repr}", _root_skew(rows, n_roots))
        return len(rows)

    return Op("cave", lambda g: len(bk_maximal_cliques(g, order="deg", **kw).collect()),
              traced)


def _si_op(spark, labels: pd.DataFrame, variant: str) -> Op:
    query = _fig7_query()

    def untraced(g):
        return si_count(spark, g, labels, *query, induced=True, **SI_VARIANTS[variant])

    def traced(tr, g):
        with tr.span(f"si.s.{variant}", f"si.jobs.{variant}"):
            return untraced(g)

    return Op("er", untraced, traced)


def _kernels_inputs(seed: int, smoke: bool) -> dict[str, Input]:
    cave = (2, 12, 0.5, 4) if smoke else (3, 70, 0.5, 40)
    er = (60, 0.1) if smoke else (500, 0.03)
    edges, labels = gen.labeled_erdos_renyi(*er, 2, seed=SHAPE_SEED)
    return {"cave": _relabel(seed, gen.caveman(*cave, seed=SHAPE_SEED)),
            "er": _relabel(seed, edges, labels)}


def _kernels_ops(spark, inputs: dict[str, Input]) -> list[Op]:
    return ([_bk_op(inputs["cave"].n, r) for r in ("bitmap", "hash")]
            + [_si_op(spark, inputs["er"].labels, v) for v in SI_VARIANTS])


def _kernels_probe(tr, inputs: dict[str, Input], graphs: dict[str, Graph]) -> None:
    """The set layer replayed outside Spark, and SI's collect of the target.

    ``repro.core.sets``: ∩, |∩| and ∖ over every edge's neighbourhood pair
    of the BK graph, per representation, through ``make_set_factory``.
    """
    g = ref.nx_graph(inputs["cave"].edges)
    nbrs = {v: sorted(g[v]) for v in g}
    pairs = list(g.edges())
    elems = 3 * sum(len(nbrs[u]) + len(nbrs[v]) for u, v in pairs)
    for r in ("sorted", "bitmap", "hash"):
        make = make_set_factory(r, max(nbrs) + 1)
        sets = {v: make(a) for v, a in nbrs.items()}
        t0 = time.perf_counter()
        for u, v in pairs:
            a, b = sets[u], sets[v]
            a.intersect(b)
            a.intersect_count(b)
            a.diff(b)
        dt = time.perf_counter() - t0
        tr.timing(f"sets.op_us.{r}", dt / (3 * len(pairs)) * 1e6)
        tr.count(f"sets.ops.{r}", 3 * len(pairs))
        tr.count(f"sets.elems.{r}", elems)
        tr.count(f"sets.nbytes.{r}", sum(s.nbytes() for s in sets.values()))
    with tr.span("si.collect_s"):  # every si_count call starts with it
        graphs["er"].adjacency().collect()


WORKLOADS = {
    # DGR first: the warm-up runs the first operation, and DGR's rounds
    # cover every query shape ADG's rounds use.
    "peel": Workload(_peel_inputs, lambda spark, inputs: [_kclique_op("dgr"),
                                                          _kclique_op("adg")]),
    "kernels": Workload(_kernels_inputs, _kernels_ops, _kernels_probe),
}
