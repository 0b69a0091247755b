"""Bron–Kerbosch maximal clique listing vs networkx + brute-force oracles.

Every GMS knob combination (ordering × set representation × subgraph
optimisation) must produce the identical set of maximal cliques — the
paper's core modularity claim ("different set representations do not
impact the formulations").
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.graphs import generators as gen
from repro.graphs.reference import brute_maximal_cliques, ref_maximal_cliques
from repro.mining.bron_kerbosch import bk_maximal_cliques, resolve_order
from repro.orderings.degeneracy import degeneracy_order
from repro.orderings.degree import degree_order


def _cliques(df):
    return {frozenset(r["clique"]) for r in df.collect()}


def _assert_rooted_at_min(rows, order):
    """Each row's root is its clique's (rank, vertex)-minimum member."""
    rank = {r["vertex"]: r["rank"] for r in order.collect()}
    for r in rows:
        assert r["root"] == min(r["clique"], key=lambda v: (rank[v], v)), r


@pytest.fixture(scope="module")
def er_graph(spark):
    pdf = gen.erdos_renyi(60, 0.12, seed=21)
    return pdf, Graph.from_pandas(spark, pdf)


@pytest.fixture(scope="module")
def planted_graph(spark):
    pdf = gen.planted_cliques(3, 6, 50, 80, seed=22)
    return pdf, Graph.from_pandas(spark, pdf)


def test_single_triangle(spark):
    pdf = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 2]})
    got = _cliques(bk_maximal_cliques(Graph.from_pandas(spark, pdf)))
    assert got == {frozenset({0, 1, 2})}


def test_path_graph_maximal_edges(spark):
    pdf = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
    got = _cliques(bk_maximal_cliques(Graph.from_pandas(spark, pdf)))
    assert got == {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}


def test_matches_brute_force_tiny(spark):
    pdf = gen.erdos_renyi(12, 0.4, seed=23)
    g = Graph.from_pandas(spark, pdf)
    assert _cliques(bk_maximal_cliques(g)) == brute_maximal_cliques(pdf)


@pytest.mark.parametrize("order", ["none", "deg", "dgr", "adg"])
def test_all_orderings_match_networkx(er_graph, order):
    pdf, g = er_graph
    got = _cliques(bk_maximal_cliques(g, order=order))
    assert got == ref_maximal_cliques(pdf)


@pytest.fixture(scope="module")
def wide_graph(spark):
    """A 70-clique hub: root neighbourhoods are wider than one 64-bit word."""
    pdf = gen.hub_clique(200, 70, 300, seed=25)
    return pdf, Graph.from_pandas(spark, pdf)


@pytest.mark.parametrize("set_repr,graph", [
    *(pytest.param(r, "er_graph", id=r) for r in ("sorted", "bitmap", "hash")),
    *(pytest.param(r, "wide_graph", id=f"{r}-wide")
      for r in ("sorted", "bitmap", "hash")),
])
def test_all_set_reprs_match_networkx(request, set_repr, graph):
    pdf, g = request.getfixturevalue(graph)
    got = _cliques(bk_maximal_cliques(g, order="adg", set_repr=set_repr))
    assert got == ref_maximal_cliques(pdf)


@pytest.mark.parametrize("subgraph_opt", [False, True])
def test_subgraph_opt_invariant(planted_graph, subgraph_opt):
    pdf, g = planted_graph
    got = _cliques(bk_maximal_cliques(g, order="adg", subgraph_opt=subgraph_opt))
    assert got == ref_maximal_cliques(pdf)


def test_adg_s_full_variant(planted_graph):
    """BK-GMS-ADG-S: ADG order + subgraph opt + bitmap sets (the paper's best)."""
    pdf, g = planted_graph
    got = _cliques(
        bk_maximal_cliques(g, order="adg", set_repr="bitmap", subgraph_opt=True)
    )
    assert got == ref_maximal_cliques(pdf)


def test_each_clique_reported_once(er_graph):
    pdf, g = er_graph
    rows = bk_maximal_cliques(g, order="dgr").collect()
    cliques = [frozenset(r["clique"]) for r in rows]
    assert len(cliques) == len(set(cliques))


def test_root_is_min_ranked_member(er_graph):
    """Each clique is emitted at its minimum member under the DGR order."""
    pdf, g = er_graph
    order = degeneracy_order(g).localCheckpoint(eager=True)
    _assert_rooted_at_min(bk_maximal_cliques(g, order=order).collect(), order)


def test_bk_count(planted_graph):
    pdf, g = planted_graph
    assert bk_maximal_cliques(g, order="adg").count() == len(ref_maximal_cliques(pdf))


def test_unknown_order_rejected(er_graph):
    _, g = er_graph
    with pytest.raises(ValueError):
        bk_maximal_cliques(g, order="best").collect()


def test_custom_order_dataframe(er_graph):
    """resolve_order passes explicit (vertex, rank) DataFrames through.

    With every rank 0, ties fall back to the vertex ID.
    """
    pdf, g = er_graph
    od = degree_order(g)
    assert resolve_order(g, od) is od
    for order in (od, od.withColumn("rank", F.lit(0).cast("long"))):
        rows = bk_maximal_cliques(g, order=order).collect()
        assert {frozenset(r["clique"]) for r in rows} == ref_maximal_cliques(pdf)
        _assert_rooted_at_min(rows, order)


def test_warm_call_launches_at_most_two_jobs(er_graph, count_jobs):
    """Collect the ranks, run the kernel: no orientation, no second collect."""
    pdf, g = er_graph
    g.collect_adjacency()
    order = degeneracy_order(g).localCheckpoint(eager=True)
    rows, jobs = count_jobs(lambda: bk_maximal_cliques(g, order=order).collect())
    assert {frozenset(r["clique"]) for r in rows} == ref_maximal_cliques(pdf)
    assert jobs <= 2


def test_warm_call_by_name_launches_one_job(er_graph, count_jobs):
    """DEG sorts the collected adjacency on the driver: only the kernel runs."""
    pdf, g = er_graph
    g.collect_adjacency()
    rows, jobs = count_jobs(lambda: bk_maximal_cliques(g, order="deg").collect())
    assert {frozenset(r["clique"]) for r in rows} == ref_maximal_cliques(pdf)
    assert jobs <= 1


def test_dense_block_single_clique(spark):
    """A complete K6 yields exactly one maximal clique."""
    import itertools

    edges = list(itertools.combinations(range(6), 2))
    pdf = pd.DataFrame(edges, columns=["src", "dst"])
    got = _cliques(bk_maximal_cliques(Graph.from_pandas(spark, pdf)))
    assert got == {frozenset(range(6))}


def test_caveman_graph_all_variants_agree(spark):
    pdf = gen.caveman(3, 15, 0.4, 10, seed=24)
    g = Graph.from_pandas(spark, pdf)
    expected = ref_maximal_cliques(pdf)
    for order in ("none", "adg"):
        for sg in (False, True):
            for set_repr in ("sorted", "bitmap", "hash"):
                got = _cliques(bk_maximal_cliques(
                    g, order=order, set_repr=set_repr, subgraph_opt=sg))
                assert got == expected, (order, sg, set_repr)


def test_independent_of_partitioning(spark, er_graph, at_1_and_64_partitions):
    """Cliques and their roots do not depend on shuffle or kernel partitions."""
    pdf, _ = er_graph

    def cliques():
        g = Graph.from_pandas(spark, pdf)
        return [sorted((r["root"], tuple(r["clique"]))
                       for r in bk_maximal_cliques(g, num_partitions=p).collect())
                for p in (None, 3)]

    got = [rows for per_setting in at_1_and_64_partitions(cliques) for rows in per_setting]
    assert all(rows == got[0] for rows in got[1:])


@pytest.mark.parametrize("order", ["none", "deg", "dgr", "adg"])
def test_edgeless_graph_has_no_cliques(spark, order):
    """Self-loops are dropped, so the graph has no vertices and no cliques."""
    pdf = pd.DataFrame({"src": [0, 1], "dst": [0, 1]})
    got = _cliques(bk_maximal_cliques(Graph.from_pandas(spark, pdf), order=order))
    assert got == ref_maximal_cliques(pdf[pdf["src"] != pdf["dst"]]) == set()
