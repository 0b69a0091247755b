"""Tests for the set-centric Graph representation (repro.core.graph)."""
import networkx as nx
import pandas as pd
import pytest

from repro.core.graph import Graph, ranked_after
from repro.graphs import generators as gen
from repro.graphs.reference import nx_graph


@pytest.fixture(scope="module")
def tri_graph(spark):
    # triangle 0-1-2 plus a pendant 3 and an isolated-ish edge 4-5
    pdf = pd.DataFrame({"src": [0, 1, 0, 2, 4], "dst": [1, 2, 2, 3, 5]})
    return Graph.from_pandas(spark, pdf)


def test_canonicalisation_dedup_selfloops(spark):
    pdf = pd.DataFrame(
        {"src": [1, 2, 2, 3, 1], "dst": [2, 1, 2, 3, 2]}  # dup both ways + loops
    )
    g = Graph.from_pandas(spark, pdf)
    rows = sorted(tuple(r) for r in g.edges.collect())
    assert rows == [(1, 2)]


def test_counts(tri_graph):
    assert tri_graph.num_vertices() == 6
    assert tri_graph.num_edges() == 5


def test_adjacency_sorted_arrays(tri_graph):
    adj = {r["vertex"]: r["nbrs"] for r in tri_graph.adjacency().collect()}
    assert adj[0] == [1, 2]
    assert adj[2] == [0, 1, 3]
    assert adj[5] == [4]
    for nbrs in adj.values():
        assert nbrs == sorted(nbrs)


def test_degrees_match_duckdb(spark, tri_graph):
    from repro.oracle import assert_equivalent

    pdf = tri_graph.edges.toPandas()
    deg = spark.createDataFrame(
        [(v, a.size) for v, a in tri_graph.collect_adjacency().items()],
        "vertex long, deg long")
    assert_equivalent(
        deg,
        """
        SELECT vertex, count(*)::BIGINT AS deg FROM (
          SELECT src AS vertex FROM e UNION ALL SELECT dst FROM e
        ) GROUP BY vertex
        """,
        e=pdf,
    )


def test_symmetric_edges_double(tri_graph):
    assert tri_graph.symmetric_edges().count() == 2 * tri_graph.num_edges()


def test_oriented_by_identity_order(tri_graph):
    from repro.orderings.degree import identity_order

    out = {r["vertex"]: r["out_nbrs"]
           for r in tri_graph.oriented(identity_order(tri_graph)).collect()}
    assert out[0] == [1, 2]
    assert out[1] == [2]
    assert out[2] == [3]
    assert out[3] == []
    # every edge appears exactly once across out-neighbourhoods
    assert sum(len(v) for v in out.values()) == tri_graph.num_edges()


def test_oriented_includes_sinks_with_empty_sets(tri_graph):
    from repro.orderings.degree import degree_order

    out = tri_graph.oriented(degree_order(tri_graph))
    assert out.count() == tri_graph.num_vertices()
    assert sum(len(r["out_nbrs"]) for r in out.collect()) == tri_graph.num_edges()


@pytest.mark.parametrize("order", ["deg", "zero"])
def test_ranked_after_matches_oriented(spark, order):
    """The kernels' N+(v) equals Catalyst's, also when every rank ties."""
    from repro.orderings.degree import degree_order

    g = Graph.from_pandas(spark, gen.erdos_renyi(40, 0.2, seed=14))
    nbrs = g.collect_adjacency()
    order_df = (degree_order(g) if order == "deg"
                else spark.createDataFrame([(v, 0) for v in nbrs], "vertex long, rank long"))
    rank = {r["vertex"]: r["rank"] for r in order_df.collect()}
    got = {v: s[ranked_after(rank, v, s)].tolist() for v, s in nbrs.items()}
    assert got == {r["vertex"]: r["out_nbrs"] for r in g.oriented(order_df).collect()}


def test_stats_on_known_graph(tri_graph):
    s = tri_graph.stats()
    assert s["n"] == 6 and s["m"] == 5
    assert s["T"] == 1
    assert s["max_deg"] == 3
    assert s["T_max_per_vertex"] == 1
    assert s["m_over_n"] == pytest.approx(5 / 6)


def test_stats_match_networkx_on_random_graph(spark):
    pdf = gen.erdos_renyi(120, 0.08, seed=13)
    g = Graph.from_pandas(spark, pdf)
    s = g.stats()
    nxg = nx_graph(pdf)
    assert s["n"] == nxg.number_of_nodes()
    assert s["m"] == nxg.number_of_edges()
    assert s["T"] == sum(nx.triangles(nxg).values()) // 3
    assert s["max_deg"] == max(d for _, d in nxg.degree())


@pytest.mark.parametrize("n_roots,num_partitions", [
    (0, None), (3, None), (50, None), (3, 7), (50, 7),
])
def test_per_root_deals_each_root_once(spark, tri_graph, n_roots, num_partitions):
    """Roots go round-robin into min(#roots, num_partitions or cores) tasks."""
    roots = list(range(100, 100 + n_roots))
    rdd = tri_graph.per_root("shared", roots, lambda s, r: [(r, s)], num_partitions)
    n = max(1, min(n_roots, num_partitions or spark.sparkContext.defaultParallelism))
    assert rdd.getNumPartitions() == n
    assert rdd.glom().collect() == [[(r, "shared") for r in roots[i::n]]
                                    for i in range(n)]


def test_adjacency_has_one_partition_per_core(spark):
    """A cached plan keeps its shuffle partitions, unless adjacency coalesces."""
    before = spark.conf.get("spark.sql.shuffle.partitions")
    try:
        spark.conf.set("spark.sql.shuffle.partitions", "64")
        g = Graph.from_pandas(spark, gen.erdos_renyi(60, 0.1, seed=3))
        parts = g.adjacency().rdd.getNumPartitions()
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", before)
    assert parts <= spark.sparkContext.defaultParallelism


def test_warm_stats_launches_one_job(spark, count_jobs):
    """The per-vertex triangle kernel over the adjacency collected before."""
    pdf = gen.erdos_renyi(120, 0.08, seed=13)
    g = Graph.from_pandas(spark, pdf)
    g.collect_adjacency()
    s, jobs = count_jobs(g.stats)
    assert s["T"] == sum(nx.triangles(nx_graph(pdf)).values()) // 3
    assert jobs <= 1


def test_collect_adjacency_collects_once(spark, count_jobs):
    """Later calls return the first call's dict and launch no job."""
    g = Graph.from_pandas(spark, gen.erdos_renyi(60, 0.1, seed=3))
    first = g.collect_adjacency()
    again, jobs = count_jobs(g.collect_adjacency)
    assert again is first
    assert jobs == 0


def test_stats_independent_of_shuffle_partitions(spark, at_1_and_64_partitions):
    pdf = gen.planted_cliques(3, 5, 60, 100, seed=4)
    got = at_1_and_64_partitions(lambda: Graph.from_pandas(spark, pdf).stats())
    assert got[0] == got[1]
    assert got[0]["T_max_per_vertex"] == max(nx.triangles(nx_graph(pdf)).values())


def test_collect_adjacency_in_ascending_vertex_order(spark, at_1_and_64_partitions):
    """No caller sees the adjacency's row order.

    A graph this small leaves Spark's hash aggregate in hash order.
    """
    pdf = gen.erdos_renyi(60, 0.1, seed=3)
    got = at_1_and_64_partitions(
        lambda: list(Graph.from_pandas(spark, pdf).collect_adjacency()))
    assert got[0] == got[1] == sorted(nx_graph(pdf).nodes)
