"""Representation/compression sizing, metrics harness, work-depth."""
import math

import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.core.metrics import RunResult, print_table, run_timed
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.reprs.layouts import compression_sizes, representation_sizes


@pytest.fixture(scope="module")
def rep_graph(spark):
    pdf = gen.barabasi_albert(120, 4, seed=71)
    return pdf, Graph.from_pandas(spark, pdf)


# ----------------------------- representation sizes -----------------------

def test_sorted_size_is_csr(rep_graph):
    pdf, g = rep_graph
    sizes = representation_sizes(g)
    n, m = g.num_vertices(), g.num_edges()
    assert sizes["SortedSet"]["size_b"] == 2 * m * 8 + n * 8  # 2m words + offsets


def test_bitmap_larger_for_sparse_graph(spark):
    """Dense bitvectors waste space when deg ≪ n/64 (paper §5.2)."""
    pdf = gen.gnm(3000, 2000, seed=73)  # avg degree ≈ 1.3 ≪ n/64
    g = Graph.from_pandas(spark, pdf)
    sizes = representation_sizes(g)
    assert sizes["BitmapSet"]["size_b"] > sizes["SortedSet"]["size_b"]


def test_bitmap_smaller_for_dense_small_graph(rep_graph):
    """...but wins when neighbourhoods are dense relative to n (§5.2)."""
    pdf, g = rep_graph  # n=120: a 16-byte bitvector beats 8B/neighbour
    sizes = representation_sizes(g)
    assert sizes["BitmapSet"]["size_b"] < sizes["SortedSet"]["size_b"]


def test_roaring_never_worse_than_either(rep_graph):
    pdf, g = rep_graph
    sizes = representation_sizes(g)
    assert sizes["RoaringLike"]["size_b"] <= sizes["SortedSet"]["size_b"]
    assert sizes["RoaringLike"]["size_b"] <= sizes["BitmapSet"]["size_b"]


def test_roaring_peak_highest_of_array_reps(rep_graph):
    """Fig. 8c: RoaringSet construction peak exceeds either plain container."""
    pdf, g = rep_graph
    sizes = representation_sizes(g)
    assert sizes["RoaringLike"]["peak_b"] > sizes["SortedSet"]["peak_b"]
    assert sizes["RoaringLike"]["peak_b"] > sizes["BitmapSet"]["peak_b"]


def test_das_baseline_peak_exceeds_csr(rep_graph):
    pdf, g = rep_graph
    sizes = representation_sizes(g)
    assert sizes["DasBaseline"]["peak_b"] > sizes["SortedSet"]["peak_b"]


def test_peak_exceeds_steady_state(rep_graph):
    pdf, g = rep_graph
    for name, s in representation_sizes(g).items():
        assert s["peak_b"] >= s["size_b"], name


# ----------------------------- compression --------------------------------

def test_bit_packing_compresses(rep_graph):
    pdf, g = rep_graph
    c = compression_sizes(g)
    assert c["bit_packed_b"] < c["raw_csr_b"]
    n = g.num_vertices()
    ratio = c["bit_packed_b"] / c["raw_csr_b"]
    assert ratio == pytest.approx(math.ceil(math.log2(n)) / 64, rel=0.1)


def test_varint_gap_beats_raw(rep_graph):
    pdf, g = rep_graph
    c = compression_sizes(g)
    assert 0 < c["varint_gap_b"] < c["raw_csr_b"]


def test_varint_gap_exact_tiny(spark):
    # single neighbourhood {1, 300}: gaps (1, 299) → 1 + 2 varint bytes,
    # counted once per direction of the edge
    pdf = pd.DataFrame({"src": [1, 1], "dst": [300, 2]})
    g = Graph.from_pandas(spark, pdf)
    c = compression_sizes(g)
    # neighbourhoods: 1->[2,300] (1B + 2B gaps: gap1=2(1B), gap2=298(2B)),
    # 2->[1] (1B), 300->[1] (1B)
    assert c["varint_gap_b"] == 3 + 1 + 1


# ----------------------------- metrics harness ----------------------------

def test_run_timed_counts_and_times():
    r = run_timed("x", kernel=lambda: [1, 2, 3])
    assert r.pattern_count == 3
    assert r.runtime_s >= 0
    assert r.preprocess_s == 0.0


def test_run_timed_with_preprocess():
    r = run_timed(
        "y",
        preprocess=lambda: 10,
        kernel=lambda prep: list(range(prep)),
        count=len,
    )
    assert r.pattern_count == 10
    assert r.total_s == r.runtime_s + r.preprocess_s


def test_throughput_definition():
    r = RunResult(name="z", runtime_s=2.0, pattern_count=10, preprocess_s=0.0)
    assert r.throughput == pytest.approx(5.0)
    row = r.row()
    assert row["variant"] == "z" and row["patterns"] == 10


def test_print_table_renders():
    out = print_table("t", [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
    assert "== t ==" in out and "22" in out


def test_print_table_empty():
    assert "(no rows)" in print_table("t", [])


# ----------------------------- work/depth recorder ------------------------

def test_recorder_accumulates():
    rec = WorkDepthRecorder()
    rec.round()
    rec.round()
    rec.touch(5)
    rec.touch(7)
    assert rec.iterations == 2
    assert rec.set_elements_touched == 12
    assert rec.row()["iterations(depth proxy)"] == 2
