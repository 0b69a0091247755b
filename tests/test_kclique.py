"""k-clique counting vs brute-force oracle (paper Alg. 7)."""
import pandas as pd
import pytest
from itertools import combinations

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.graphs.reference import ref_kclique_count
from repro.mining.kclique import kclique_count, kclique_count_naive
from repro.orderings.degeneracy import degeneracy_order


@pytest.fixture(scope="module")
def er_graph(spark):
    pdf = gen.erdos_renyi(50, 0.15, seed=31)
    return pdf, Graph.from_pandas(spark, pdf)


@pytest.fixture(scope="module")
def planted_graph(spark):
    pdf = gen.planted_cliques(3, 6, 40, 60, seed=32)
    return pdf, Graph.from_pandas(spark, pdf)


def test_k1_is_n(er_graph):
    pdf, g = er_graph
    assert kclique_count(g, 1) == g.num_vertices()


def test_k2_is_m(er_graph):
    pdf, g = er_graph
    assert kclique_count(g, 2) == g.num_edges()


def test_k3_is_triangles(er_graph):
    """The oriented count equals the unoriented per-vertex counts over 3."""
    pdf, g = er_graph
    from repro.mining.triangles import triangle_counts_per_vertex

    assert kclique_count(g, 3) == sum(triangle_counts_per_vertex(g).values()) // 3


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("strategy", ["node", "edge"])
def test_counts_match_bruteforce(er_graph, k, strategy):
    pdf, g = er_graph
    assert kclique_count(g, k, strategy=strategy) == ref_kclique_count(pdf, k)


@pytest.mark.parametrize("order", ["none", "deg", "dgr", "adg"])
def test_order_invariance(planted_graph, order):
    """Any total order orientation counts each clique exactly once."""
    pdf, g = planted_graph
    assert kclique_count(g, 4, order=order) == ref_kclique_count(pdf, 4)


def test_k6_on_planted(planted_graph):
    pdf, g = planted_graph
    assert kclique_count(g, 6, order="dgr") == ref_kclique_count(pdf, 6)


def test_zero_cliques_on_road(spark):
    """A triangle-free grid, and an edgeless graph (self-loops are dropped)."""
    pdf = gen.grid_road(8, 8)
    g = Graph.from_pandas(spark, pdf)
    assert kclique_count(g, 3) == 0
    assert kclique_count(g, 4) == 0
    edgeless = Graph.from_pandas(spark, pd.DataFrame({"src": [0, 1], "dst": [0, 1]}))
    for k in (3, 4):
        assert kclique_count(edgeless, k, strategy="node") == 0
        assert kclique_count(edgeless, k, strategy="edge") == 0
        assert kclique_count_naive(edgeless, k) == 0


def test_k4_plus_pendant(spark):
    # K4 on {0..3} plus pendant: exactly one 4-clique, four triangles
    edges = list(combinations(range(4), 2)) + [(3, 4)]
    pdf = pd.DataFrame(edges, columns=["src", "dst"])
    g = Graph.from_pandas(spark, pdf)
    assert kclique_count(g, 3) == 4
    assert kclique_count(g, 4) == 1


def test_invalid_args(er_graph):
    _, g = er_graph
    with pytest.raises(ValueError):
        kclique_count(g, 0)
    with pytest.raises(ValueError):
        kclique_count(g, 4, strategy="hyper")


def test_recorder_tracks_levels(er_graph):
    pdf, g = er_graph
    rec = WorkDepthRecorder()
    kclique_count(g, 5, recorder=rec)
    # levels: grow 3→4 plus the final count round (edge strategy starts at 2)
    assert rec.iterations == 3
    assert rec.set_elements_touched > 0


def test_recorder_launches_no_extra_jobs(planted_graph, count_jobs):
    """Each task returns its levels' sums with its count, so recording adds no job.

    Σ|C| at a level lists every clique one vertex larger than the
    vertices chosen so far, so the recorded work is a sum of clique counts.
    """
    pdf, g = planted_graph
    order = degeneracy_order(g).localCheckpoint(eager=True)
    t3, t4, t5 = (ref_kclique_count(pdf, k) for k in (3, 4, 5))
    rec = WorkDepthRecorder()
    plain = count_jobs(lambda: kclique_count(g, 5, order=order, strategy="node"))
    recorded = count_jobs(lambda: kclique_count(g, 5, order=order, strategy="node",
                                                recorder=rec))
    assert recorded == plain == (t5, plain[1])
    # node frontier: levels 2, 3, 4 hold t3, t4, t5; the final count adds t5
    assert (rec.iterations, rec.set_elements_touched) == (4, t3 + t4 + 2 * t5)

    rec = WorkDepthRecorder()
    plain = count_jobs(lambda: kclique_count_naive(g, 4))
    recorded = count_jobs(lambda: kclique_count_naive(g, 4, recorder=rec))
    assert recorded == plain == (t4, plain[1])
    # unoriented: every clique is found once per vertex sequence
    assert (rec.iterations, rec.set_elements_touched) == (3, 6 * t3 + 2 * 24 * t4)


def test_recorder_when_a_level_is_empty(spark):
    """No 4-clique: the upper levels are empty, yet every level is recorded."""
    pdf = pd.DataFrame({"src": [0, 1, 0, 5], "dst": [1, 2, 2, 6]})  # triangle + edge
    g = Graph.from_pandas(spark, pdf)
    rec = WorkDepthRecorder()
    assert kclique_count(g, 5, strategy="node", recorder=rec) == 0
    assert (rec.iterations, rec.set_elements_touched) == (4, 1)  # the triangle
    rec = WorkDepthRecorder()
    assert kclique_count_naive(g, 5, recorder=rec) == 0
    assert (rec.iterations, rec.set_elements_touched) == (4, 6)


def test_independent_of_shuffle_partitions(spark, planted_graph, at_1_and_64_partitions):
    """Counts do not depend on spark.sql.shuffle.partitions."""
    pdf, _ = planted_graph

    def counts():
        g = Graph.from_pandas(spark, pdf)
        return kclique_count(g, 4, strategy="node"), kclique_count(g, 4, strategy="edge")

    got = at_1_and_64_partitions(counts)
    assert got[0] == got[1] == (ref_kclique_count(pdf, 4),) * 2


def test_warm_call_launches_at_most_two_jobs(planted_graph, count_jobs):
    """Collect the ranks, run the kernel: no orientation, no second collect."""
    pdf, g = planted_graph
    g.collect_adjacency()
    order = degeneracy_order(g).localCheckpoint(eager=True)
    n, jobs = count_jobs(lambda: kclique_count(g, 4, order=order))
    assert n == ref_kclique_count(pdf, 4)
    assert jobs <= 2


def test_warm_call_by_name_launches_at_most_one_job(planted_graph, count_jobs):
    """DGR peels on the driver, so only the kernel's job runs."""
    pdf, g = planted_graph
    g.collect_adjacency()
    n, jobs = count_jobs(lambda: kclique_count(g, 4, order="dgr"))
    assert n == ref_kclique_count(pdf, 4)
    assert jobs <= 1
