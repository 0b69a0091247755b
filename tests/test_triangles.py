"""Triangle counting (k-clique with k = 3) vs networkx and DuckDB oracles."""
import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.graphs import generators as gen
from repro.graphs.reference import ref_triangle_count, ref_triangles_per_vertex
from repro.mining.kclique import kclique_count
from repro.mining.triangles import triangle_counts_per_vertex


@pytest.mark.parametrize(
    "pdf,expected",
    [
        (pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 2]}), 1),  # one triangle
        (pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]}), 0),  # path
        (pd.DataFrame({"src": [0, 0, 0, 1, 1, 2], "dst": [1, 2, 3, 2, 3, 3]}), 4),  # K4
    ],
)
def test_triangle_count_small(spark, pdf, expected):
    assert kclique_count(Graph.from_pandas(spark, pdf), 3, order="deg") == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_count_matches_networkx_er(spark, seed):
    pdf = gen.erdos_renyi(90, 0.1, seed=seed)
    g = Graph.from_pandas(spark, pdf)
    assert kclique_count(g, 3, order="deg") == ref_triangle_count(pdf)


def test_triangle_count_matches_networkx_planted(spark):
    pdf = gen.planted_cliques(3, 5, 60, 100, seed=4)
    g = Graph.from_pandas(spark, pdf)
    assert kclique_count(g, 3, order="deg") == ref_triangle_count(pdf)


def test_per_vertex_matches_networkx(spark):
    pdf = gen.erdos_renyi(70, 0.12, seed=5)
    g = Graph.from_pandas(spark, pdf)
    assert triangle_counts_per_vertex(g) == ref_triangles_per_vertex(pdf)


def test_per_vertex_zero_for_triangle_free(spark):
    pdf = gen.grid_road(6, 6)
    g = Graph.from_pandas(spark, pdf)
    got = triangle_counts_per_vertex(g)
    assert len(got) == 36 and set(got.values()) == {0}


def test_triangle_count_matches_duckdb(spark):
    """Relational triangle count: 3-way self-join on canonical edges."""
    from repro.oracle import assert_equivalent

    pdf = gen.erdos_renyi(60, 0.15, seed=6)
    g = Graph.from_pandas(spark, pdf)
    got = spark.createDataFrame([(kclique_count(g, 3, order="deg"),)], "t long")
    assert_equivalent(
        got,
        """
        SELECT count(*)::BIGINT AS t
        FROM e a JOIN e b ON a.dst = b.src JOIN e c
          ON c.src = a.src AND c.dst = b.dst
        """,
        e=pdf,
    )


def test_warm_count_launches_at_most_four_jobs(spark, count_jobs):
    """Collect the adjacency for the degree order, run the kernel."""
    pdf = gen.planted_cliques(3, 5, 60, 100, seed=4)
    g = Graph.from_pandas(spark, pdf)
    g.adjacency().count()
    t, jobs = count_jobs(lambda: kclique_count(g, 3, order="deg"))
    assert t == ref_triangle_count(pdf)
    assert jobs <= 4


def test_per_vertex_independent_of_shuffle_partitions(spark, at_1_and_64_partitions):
    """Same counts, in the same key order, at 1 and 64 shuffle partitions."""
    pdf = gen.planted_cliques(3, 5, 60, 100, seed=4)
    got = at_1_and_64_partitions(
        lambda: list(triangle_counts_per_vertex(Graph.from_pandas(spark, pdf)).items()))
    assert got[0] == got[1] == sorted(ref_triangles_per_vertex(pdf).items())
