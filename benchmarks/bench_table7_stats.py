"""Benchmark: Table 7 dataset-statistics computation (triangle kernels)."""
from benchmarks._jobs import job_kwargs, load_job

table7 = load_job("table7_datasets")


def test_bench_table7_stats(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: table7.run(spark, **job_kwargs("table7_datasets")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 8
    # regime sanity: the road graph must be triangle-free, the planted
    # family triangle-rich
    by = {r["graph"]: r for r in rows}
    assert by["usa-roads-like (grid)"]["T"] == 0
    assert by["flickr-like (planted cliques)"]["T"] > 100
