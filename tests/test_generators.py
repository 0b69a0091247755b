"""Tests for the synthetic graph generators (Table 7 dataset substitutes)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs.reference import nx_graph, ref_triangle_count


def _assert_canonical(pdf: pd.DataFrame):
    assert list(pdf.columns) == ["src", "dst"]
    assert (pdf["src"] < pdf["dst"]).all(), "edges must be canonical src<dst"
    assert not pdf.duplicated().any(), "edges must be deduplicated"
    assert pdf["src"].dtype == np.int64 and pdf["dst"].dtype == np.int64


def test_erdos_renyi_canonical_and_sized():
    pdf = gen.erdos_renyi(200, 0.05, seed=1)
    _assert_canonical(pdf)
    expected_m = 0.05 * 200 * 199 / 2
    assert 0.6 * expected_m <= len(pdf) <= 1.2 * expected_m


def test_erdos_renyi_deterministic():
    a = gen.erdos_renyi(100, 0.05, seed=3)
    b = gen.erdos_renyi(100, 0.05, seed=3)
    pd.testing.assert_frame_equal(a, b)


def test_erdos_renyi_seed_changes_graph():
    a = gen.erdos_renyi(100, 0.05, seed=3)
    b = gen.erdos_renyi(100, 0.05, seed=4)
    assert not a.equals(b)


def test_gnm_exact_edge_count():
    pdf = gen.gnm(150, 400, seed=0)
    _assert_canonical(pdf)
    assert len(pdf) == 400


def test_rmat_power_law_skew():
    pdf = gen.rmat(9, 4.0, seed=2)
    _assert_canonical(pdf)
    n = 1 << 9
    assert pdf[["src", "dst"]].to_numpy().max() < n
    degs = pd.concat([pdf["src"], pdf["dst"]]).value_counts()
    # power-law-ish: max degree far above the average degree
    assert degs.max() > 4 * degs.mean()


def test_barabasi_albert_structure():
    pdf = gen.barabasi_albert(300, 3, seed=5)
    _assert_canonical(pdf)
    g = nx_graph(pdf)
    assert g.number_of_nodes() >= 295
    degs = pd.concat([pdf["src"], pdf["dst"]]).value_counts()
    assert degs.max() > 3 * degs.mean()  # preferential-attachment hubs


def test_planted_cliques_contain_cliques():
    pdf = gen.planted_cliques(4, 5, 100, 150, seed=7)
    _assert_canonical(pdf)
    # at least 4 * C(5,3) triangles exist from the planted cliques alone
    assert ref_triangle_count(pdf) >= 4 * 10 - 12  # allow clique overlap losses


def test_caveman_triangles_but_few_big_cliques():
    pdf = gen.caveman(4, 30, 0.3, 20, seed=8)
    _assert_canonical(pdf)
    assert ref_triangle_count(pdf) > 20
    from repro.graphs.reference import ref_maximal_cliques

    biggest = max(len(c) for c in ref_maximal_cliques(pdf))
    assert biggest < 30  # dense but non-clique communities (§8.6 regime)


def test_grid_road_regime():
    pdf = gen.grid_road(12, 12)
    _assert_canonical(pdf)
    n, m = 144, len(pdf)
    assert m == 2 * 12 * 11  # grid edge count
    assert ref_triangle_count(pdf) == 0  # road-like: no triangles
    assert m / n < 2.1


def test_hub_clique_t_skew():
    pdf = gen.hub_clique(500, 12, 400, seed=9)
    _assert_canonical(pdf)
    from repro.graphs.reference import ref_triangles_per_vertex

    per_v = ref_triangles_per_vertex(pdf)
    mx = max(per_v.values())
    avg = sum(per_v.values()) / len(per_v)
    assert mx >= 10 * max(avg, 1e-9)  # enormous T-skew regime


def test_labeled_er_labels_cover_vertices():
    edges, labels = gen.labeled_erdos_renyi(80, 0.1, 3, seed=3)
    _assert_canonical(edges)
    assert set(labels["vertex"]) == set(range(80))
    assert set(labels["label"]) <= {0, 1, 2}


@pytest.mark.parametrize("family", sorted(gen.TABLE7_SUITE))
def test_table7_suite_members_generate(family):
    factory, note = gen.TABLE7_SUITE[family]
    pdf = factory(sf=0.2, seed=11)
    _assert_canonical(pdf)
    assert len(pdf) > 10
    assert isinstance(note, str) and note
