"""Tests for DEG / DGR / ADG orderings and k-cores.

Covers the correctness claims the paper's §6.1/§7 rely on:
exact core numbers (vs networkx), the degeneracy-ordering invariant
(≤ d later neighbours), the ADG (2+ε) approximation property, and the
O(log n)-vs-Θ(rounds) depth separation (Lemma 7.1 / Table 5).
"""
import itertools
import math

import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.graphs.reference import nx_graph, ref_core_numbers, ref_degeneracy
from repro.orderings.adg import adg_order
from repro.orderings.degeneracy import core_decomposition, degeneracy_order
from repro.orderings.degree import degree_order, identity_order


def _order_map(df):
    return {r["vertex"]: r["rank"] for r in df.collect()}


def _degeneracy(g):
    """The graph degeneracy d = max core number, 0 on an empty graph."""
    return max((r["core"] for r in core_decomposition(g).collect()), default=0)


def _check_is_permutation(order, n):
    assert len(order) == n
    assert sorted(order.values()) == list(range(n))


def _later_neighbour_bound(pdf, order):
    """max over v of #neighbours ranked after v."""
    adj = {}
    for s, d in pdf.itertuples(index=False, name=None):
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    return max(
        sum(1 for u in nbrs if order[u] > order[v]) for v, nbrs in adj.items()
    )


@pytest.fixture(scope="module")
def ba_graph(spark):
    pdf = gen.barabasi_albert(150, 3, seed=1)
    return pdf, Graph.from_pandas(spark, pdf)


# ---------------- degree / identity / triangle orders ---------------------

def test_degree_order_is_permutation(ba_graph):
    pdf, g = ba_graph
    order = _order_map(degree_order(g))
    _check_is_permutation(order, g.num_vertices())


def test_degree_order_sorted_by_degree(ba_graph):
    """Ascending degree, ties by vertex ID."""
    pdf, g = ba_graph
    degs = dict(nx_graph(pdf).degree())
    order = _order_map(degree_order(g))
    assert sorted(order, key=order.get) == sorted(degs, key=lambda v: (degs[v], v))


def test_identity_order(ba_graph):
    _, g = ba_graph
    order = _order_map(identity_order(g))
    by_rank = sorted(order, key=order.get)
    assert by_rank == sorted(by_rank)


# ---------------- exact degeneracy / cores --------------------------------

@pytest.mark.parametrize("seed", [2, 3])
def test_core_numbers_match_networkx(spark, seed):
    pdf = gen.erdos_renyi(80, 0.08, seed=seed)
    g = Graph.from_pandas(spark, pdf)
    got = {r["vertex"]: r["core"] for r in core_decomposition(g).collect()}
    assert got == ref_core_numbers(pdf)


def test_core_numbers_planted_clique(spark):
    pdf = gen.planted_cliques(2, 6, 50, 60, seed=4)
    g = Graph.from_pandas(spark, pdf)
    got = {r["vertex"]: r["core"] for r in core_decomposition(g).collect()}
    assert got == ref_core_numbers(pdf)


def test_degeneracy_value(spark):
    pdf = gen.barabasi_albert(100, 3, seed=5)
    assert _degeneracy(Graph.from_pandas(spark, pdf)) == ref_degeneracy(pdf)


def test_degeneracy_order_invariant(ba_graph):
    """Each vertex has ≤ d neighbours later in the DGR order."""
    pdf, g = ba_graph
    order = _order_map(degeneracy_order(g))
    _check_is_permutation(order, g.num_vertices())
    assert _later_neighbour_bound(pdf, order) <= ref_degeneracy(pdf)


def test_kcore_matches_networkx(spark):
    import networkx as nx

    pdf = gen.erdos_renyi(70, 0.1, seed=6)
    g = Graph.from_pandas(spark, pdf)
    cores = core_decomposition(g).collect()
    for k in (2, 3):
        got = {r["vertex"] for r in cores if r["core"] >= k}
        expected = set(nx.k_core(nx_graph(pdf), k).nodes())
        assert got == expected


def test_empty_graph_core_decomposition(spark):
    g = Graph(spark.createDataFrame([], "src long, dst long"))
    assert core_decomposition(g).count() == 0
    assert _degeneracy(g) == 0


# ---------------- ADG (Algorithm 5) ---------------------------------------

@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
def test_adg_is_permutation(spark, eps):
    pdf = gen.erdos_renyi(80, 0.08, seed=7)
    g = Graph.from_pandas(spark, pdf)
    order = _order_map(adg_order(g, epsilon=eps))
    _check_is_permutation(order, g.num_vertices())


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_adg_approximation_property(spark, eps):
    """(2+ε)-approx: ≤ (2+2ε)·d neighbours ranked later, for every vertex.

    The threshold (1+ε)·avg_half with avg_half ≤ d gives the 2(1+ε)d
    bound of Besta et al. [24] cited by the paper.
    """
    pdf = gen.barabasi_albert(120, 4, seed=8)
    g = Graph.from_pandas(spark, pdf)
    order = _order_map(adg_order(g, epsilon=eps))
    d = ref_degeneracy(pdf)
    assert _later_neighbour_bound(pdf, order) <= math.ceil((2 + 2 * eps) * d)


def test_adg_rejects_negative_epsilon(spark):
    pdf = gen.erdos_renyi(20, 0.2, seed=1)
    with pytest.raises(ValueError):
        adg_order(Graph.from_pandas(spark, pdf), epsilon=-0.5)


def test_adg_fewer_rounds_than_exact_peeling(spark):
    """Lemma 7.1 empirically: ADG rounds ~ O(log n) ≤ peeling rounds."""
    pdf = gen.barabasi_albert(200, 3, seed=9)
    g = Graph.from_pandas(spark, pdf)
    rec_adg, rec_dgr = WorkDepthRecorder(), WorkDepthRecorder()
    adg_order(g, epsilon=0.1, recorder=rec_adg)
    degeneracy_order(g, recorder=rec_dgr)
    assert rec_adg.iterations <= rec_dgr.iterations
    assert rec_adg.iterations <= 4 * math.ceil(math.log2(g.num_vertices()) + 1)


def test_adg_work_proxy_linear(spark):
    """ADG's degree updates read O(m+n) elements in total (Lemma 7.1).

    Each round reads the live degrees and the batch's neighbourhoods. The
    batches' neighbourhoods sum to 2m and the first round's live degrees
    to n; recomputing every degree each round would read O(m·rounds).
    """
    pdf = gen.erdos_renyi(100, 0.06, seed=10)
    g = Graph.from_pandas(spark, pdf)
    rec = WorkDepthRecorder()
    adg_order(g, epsilon=0.1, recorder=rec)
    n, m = g.num_vertices(), g.num_edges()
    assert 2 * m + n <= rec.set_elements_touched <= 4 * (m + n)


@pytest.mark.parametrize("pdf", [
    pd.DataFrame({"src": range(8), "dst": [(i + 1) % 8 for i in range(8)]}),
    pd.DataFrame(list(itertools.combinations(range(6), 2)), columns=["src", "dst"]),
], ids=["cycle", "clique"])
def test_adg_eps0_regular_graph_one_round(spark, pdf):
    """On a regular graph every degree equals the average: one batch."""
    rec = WorkDepthRecorder()
    order = _order_map(adg_order(Graph.from_pandas(spark, pdf), epsilon=0.0,
                                 recorder=rec))
    assert rec.iterations == 1
    assert order == {v: v for v in order}  # one batch, ranked by vertex ID


def test_path_core_numbers(spark):
    pdf = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
    got = {r["vertex"]: r["core"]
           for r in core_decomposition(Graph.from_pandas(spark, pdf)).collect()}
    assert got == ref_core_numbers(pdf)


# ---------------- the shared peeling engine --------------------------------

def test_peel_launches_no_job(spark, count_jobs):
    """Every round runs on the driver's collected adjacency."""
    g = Graph.from_pandas(spark, gen.barabasi_albert(120, 5, seed=1))
    g.collect_adjacency()  # the representation, built before the ordering
    for order in (degeneracy_order, adg_order):
        rec = WorkDepthRecorder()
        _, jobs = count_jobs(lambda: order(g, recorder=rec))
        assert rec.iterations > 1
        assert jobs == 0, order.__name__


def test_peel_rounds_and_work_on_triangle_with_pendant(spark):
    """DGR on a triangle {0, 1, 2} plus the pendant edge 0-3, counted by hand.

    Round 1 reads the 4 live degrees, removes B = {3} (core 1) and reads
    N(3) = {0}. Round 2 reads the 3 live degrees, all 2, removes B =
    {0, 1, 2} (core 2) and reads their 3 + 2 + 2 neighbour entries. In
    all: 2m + Σ|U_i| = 8 + 7 = 15 elements.
    """
    pdf = pd.DataFrame({"src": [0, 0, 1, 0], "dst": [1, 2, 2, 3]})
    rec = WorkDepthRecorder()
    rows = core_decomposition(Graph.from_pandas(spark, pdf), rec).collect()
    assert [(r["vertex"], r["rank"], r["core"]) for r in sorted(rows, key=lambda r: r["rank"])
            ] == [(3, 0, 1), (0, 1, 2), (1, 2, 2), (2, 3, 2)]
    assert (rec.iterations, rec.set_elements_touched) == (2, 15)


def test_collecting_an_order_launches_no_job(spark, count_jobs):
    """BK and k-clique collect the order on the driver: it is a local relation."""
    g = Graph.from_pandas(spark, gen.barabasi_albert(120, 5, seed=1))
    for order in (degeneracy_order, adg_order):
        df = order(g)
        rows, jobs = count_jobs(df.collect)
        assert len(rows) == 120
        assert jobs == 0, order.__name__


def test_orderings_independent_of_shuffle_partitions(spark, at_1_and_64_partitions):
    pdf = gen.barabasi_albert(120, 4, seed=8)

    def orders():
        g = Graph.from_pandas(spark, pdf)
        return sorted(core_decomposition(g).collect()), sorted(adg_order(g).collect())

    got = at_1_and_64_partitions(orders)
    assert got[0] == got[1]
