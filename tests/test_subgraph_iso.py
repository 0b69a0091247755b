"""Subgraph isomorphism vs the networkx GraphMatcher oracle (paper §6.4)."""
import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.graphs import generators as gen
from repro.graphs.reference import ref_maximal_cliques, ref_subgraph_iso_count
from repro.mining.bron_kerbosch import bk_maximal_cliques
from repro.mining.subgraph_iso import si_count


def _triangle_query(label=(0, 0, 0)):
    qe = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 2]})
    ql = pd.DataFrame({"vertex": [0, 1, 2], "label": list(label)})
    return qe, ql


def _path_query(label=(0, 0, 0)):
    qe = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    ql = pd.DataFrame({"vertex": [0, 1, 2], "label": list(label)})
    return qe, ql


@pytest.fixture(scope="module")
def labeled_target(spark):
    edges, labels = gen.labeled_erdos_renyi(40, 0.15, 2, seed=41)
    return edges, labels, Graph.from_pandas(spark, edges)


@pytest.mark.parametrize("induced", [True, False])
@pytest.mark.parametrize("optimized", [False, True])
def test_triangle_query_matches_networkx(spark, labeled_target, induced, optimized):
    edges, labels, g = labeled_target
    qe, ql = _triangle_query()
    got = si_count(spark, g, labels, qe, ql, induced=induced, optimized=optimized)
    want = ref_subgraph_iso_count(edges, labels, qe, ql, induced=induced)
    assert got == want


@pytest.mark.parametrize("induced", [True, False])
def test_path_query_matches_networkx(spark, labeled_target, induced):
    edges, labels, g = labeled_target
    qe, ql = _path_query()
    got = si_count(spark, g, labels, qe, ql, induced=induced, optimized=True)
    want = ref_subgraph_iso_count(edges, labels, qe, ql, induced=induced)
    assert got == want


def test_labels_restrict_matches(spark, labeled_target):
    edges, labels, g = labeled_target
    qe, ql = _triangle_query(label=(0, 1, 0))
    got = si_count(spark, g, labels, qe, ql, induced=True, optimized=True)
    want = ref_subgraph_iso_count(edges, labels, qe, ql, induced=True)
    assert got == want


@pytest.mark.parametrize("optimized,work_split", [
    pytest.param(True, 1, id="1"), pytest.param(True, 2, id="2"),
    pytest.param(False, 1, id="baseline-1"), pytest.param(False, 2, id="baseline-2"),
])
def test_work_split_invariant(spark, labeled_target, optimized, work_split):
    """Work splitting changes parallel decomposition, never the count."""
    edges, labels, g = labeled_target
    qe, ql = _triangle_query()
    got = si_count(spark, g, labels, qe, ql, induced=True, optimized=optimized,
                   work_split=work_split)
    want = ref_subgraph_iso_count(edges, labels, qe, ql, induced=True)
    assert got == want


def test_square_query(spark, labeled_target):
    edges, labels, g = labeled_target
    qe = pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3]})
    ql = pd.DataFrame({"vertex": [0, 1, 2, 3], "label": [0, 0, 0, 0]})
    for induced in (True, False):
        got = si_count(spark, g, labels, qe, ql, induced=induced, optimized=True)
        want = ref_subgraph_iso_count(edges, labels, qe, ql, induced=induced)
        assert got == want


def test_no_match_when_label_absent(spark, labeled_target):
    edges, labels, g = labeled_target
    qe, ql = _triangle_query(label=(7, 7, 7))  # label 7 never appears
    assert si_count(spark, g, labels, qe, ql) == 0


def test_work_split_validation(spark, labeled_target):
    edges, labels, g = labeled_target
    qe, ql = _triangle_query()
    with pytest.raises(ValueError):
        si_count(spark, g, labels, qe, ql, work_split=3)


def test_single_vertex_query(spark, labeled_target):
    edges, labels, g = labeled_target
    qe = pd.DataFrame({"src": pd.Series([], dtype="int64"),
                       "dst": pd.Series([], dtype="int64")})
    ql = pd.DataFrame({"vertex": [0], "label": [1]})
    got = si_count(spark, g, labels, qe, ql)
    assert got == int((labels["label"] == 1).sum())


def test_independent_of_shuffle_partitions(spark, labeled_target, at_1_and_64_partitions):
    """Counts do not depend on spark.sql.shuffle.partitions."""
    edges, labels, _ = labeled_target
    qe = pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3]})
    ql = pd.DataFrame({"vertex": [0, 1, 2, 3], "label": [0, 0, 0, 0]})

    def counts():
        g = Graph.from_pandas(spark, edges)
        return [si_count(spark, g, labels, qe, ql, optimized=True, work_split=w)
                for w in (1, 2)]

    got = at_1_and_64_partitions(counts)
    assert got[0] == got[1]
    assert got[0][0] == got[0][1] == ref_subgraph_iso_count(edges, labels, qe, ql)


def test_label_only_vertices_stay_out_of_the_shared_adjacency(spark):
    """SI adds label-only (isolated) targets to its own copy of the adjacency.

    The graph's ``collect_adjacency`` is shared by every later call on it:
    had SI added the isolated vertices there, BK would list each as a
    maximal clique of its own.
    """
    edges, labels = gen.labeled_erdos_renyi(40, 0.15, 2, seed=41)
    isolated = pd.DataFrame({"vertex": [40, 41, 42], "label": [0, 0, 1]})
    labels = pd.concat([labels, isolated], ignore_index=True)
    g = Graph.from_pandas(spark, edges)
    before = {v: a.tolist() for v, a in g.collect_adjacency().items()}
    qe = pd.DataFrame({"src": pd.Series([], dtype="int64"),
                       "dst": pd.Series([], dtype="int64")})
    ql = pd.DataFrame({"vertex": [0], "label": [0]})
    assert si_count(spark, g, labels, qe, ql) == int((labels["label"] == 0).sum())
    assert {v: a.tolist() for v, a in g.collect_adjacency().items()} == before
    cliques = {frozenset(r["clique"]) for r in bk_maximal_cliques(g).collect()}
    assert cliques == ref_maximal_cliques(edges)
