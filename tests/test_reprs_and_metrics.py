"""Representation/compression sizing, metrics harness, work-depth."""
import math
import tracemalloc

import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.core.metrics import RunResult, count_jobs, print_table, run_timed
from repro.core.sets import SET_REPRS
from repro.core.work_depth import WorkDepthRecorder
from repro.graphs import generators as gen
from repro.orderings.adg import adg_order
from repro.reprs.layouts import compression_sizes, representation_sizes


@pytest.fixture(scope="module")
def rep_graph(spark):
    pdf = gen.barabasi_albert(120, 4, seed=71)
    g = Graph.from_pandas(spark, pdf)
    return g, g.collect_adjacency()


# ----------------------------- representation sizes -----------------------

def test_sizes_are_the_set_classes_nbytes(rep_graph):
    """Fig. 8c reports the kernels' own sets, one per neighbourhood."""
    _, nbrs = rep_graph
    sizes = representation_sizes(nbrs)
    assert set(sizes) == set(SET_REPRS)
    for name, cls in SET_REPRS.items():
        want = sum(cls(a).nbytes() for a in nbrs.values())
        assert sizes[name]["nbytes_b"] == want, name


def test_sorted_size_is_csr(rep_graph):
    g, nbrs = rep_graph
    assert representation_sizes(nbrs)["sorted"]["nbytes_b"] == 2 * g.num_edges() * 8


def test_bitmap_larger_for_sparse_graph(spark):
    """Bitmaps waste space when IDs are wide and degrees small (paper §5.2)."""
    pdf = gen.gnm(3000, 2000, seed=73)  # avg degree ≈ 1.3, IDs up to 3000
    sizes = representation_sizes(Graph.from_pandas(spark, pdf).collect_adjacency())
    assert sizes["bitmap"]["nbytes_b"] > sizes["sorted"]["nbytes_b"]


def test_bitmap_smaller_for_dense_small_graph(rep_graph):
    """...but win when neighbourhoods are dense relative to n (§5.2)."""
    _, nbrs = rep_graph  # n=120: at most a 15-byte int beats 8 B/neighbour
    sizes = representation_sizes(nbrs)
    assert sizes["bitmap"]["nbytes_b"] < sizes["sorted"]["nbytes_b"]


def test_peak_exceeds_steady_state(rep_graph):
    _, nbrs = rep_graph
    for name, s in representation_sizes(nbrs).items():
        assert s["peak_b"] >= s["traced_b"] >= s["nbytes_b"] > 0, name


@pytest.mark.parametrize("tracing", [False, True])
def test_sizes_restore_tracing_state(rep_graph, tracing):
    _, nbrs = rep_graph
    if tracing:
        tracemalloc.start()
    try:
        representation_sizes(nbrs)
        assert tracemalloc.is_tracing() == tracing
    finally:
        tracemalloc.stop()


# ----------------------------- compression --------------------------------

def test_bit_packing_compresses(rep_graph):
    _, nbrs = rep_graph
    c = compression_sizes(nbrs)
    assert c["bit_packed_b"] < c["raw_csr_b"]
    ratio = c["bit_packed_b"] / c["raw_csr_b"]
    assert ratio == pytest.approx(math.ceil(math.log2(len(nbrs))) / 64, rel=0.1)


def test_varint_gap_beats_raw(rep_graph):
    _, nbrs = rep_graph
    c = compression_sizes(nbrs)
    assert 0 < c["varint_gap_b"] < c["raw_csr_b"]


def test_varint_gap_exact_tiny(spark):
    # neighbourhoods: 1->[2,300] (gaps 2 and 298: 1B + 2B),
    # 2->[1] (1B), 300->[1] (1B)
    pdf = pd.DataFrame({"src": [1, 1], "dst": [300, 2]})
    c = compression_sizes(Graph.from_pandas(spark, pdf).collect_adjacency())
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


def test_run_timed_counts_jobs_per_stage(rep_graph):
    """Peeling the collected adjacency launches no job; counting edges does."""
    g, _ = rep_graph
    r = run_timed("j", preprocess=lambda: adg_order(g),
                  kernel=lambda order: g.edges.count(), count=lambda m: m)
    assert r.pattern_count == g.num_edges()
    assert (r.preprocess_jobs, r.row()["preprocess_jobs"]) == (0, 0)
    assert r.kernel_jobs == r.row()["kernel_jobs"] >= 1


def test_count_jobs_restores_the_job_group(rep_graph):
    """A count leaves no stale group or description, and nests inside another."""
    g, _ = rep_graph
    sc = g.edges.sparkSession.sparkContext
    props = ("spark.jobGroup.id", "spark.job.description")
    before = [sc.getLocalProperty(k) for k in props]

    def inner_then_count():
        _, inner = count_jobs(sc, g.edges.count)
        g.edges.count()  # after the inner count: in the outer group again
        return inner

    inner, outer = count_jobs(sc, inner_then_count)
    assert inner >= 1 and outer >= 1
    assert [sc.getLocalProperty(k) for k in props] == before


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
