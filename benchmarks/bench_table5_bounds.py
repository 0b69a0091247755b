"""Benchmark: Tables 5/6 empirical work/depth-bound validation."""
import math

from benchmarks._jobs import job_kwargs, load_job

table5 = load_job("table5_bounds")


def test_bench_table5_bounds(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: table5.run(spark, **job_kwargs("table5_bounds")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 3
    for r in rows:
        # Lemma 7.1 depth: rounds within a small multiple of log2 n
        assert r["ADG_rounds"] <= 4 * (r["log2(n)"] + 1)
        assert r["ADG_rounds"] <= r["DGR_rounds"]
        # O(m) work proxy: elements read by the degree updates, linear in m+n
        assert r["ADG_work_proxy"] <= 4 * (r["m"] + r["n"])
        # (2+eps) approximation quality
        assert r["max_later_nbrs"] <= math.ceil(r["(2+2eps)*d"])
