"""Benchmark: Fig. 8b scaling / machine-efficiency analysis."""
from benchmarks._jobs import job_kwargs, load_job

fig8b = load_job("fig8b_scaling")


def test_bench_fig8b_scaling(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig8b.run(spark, **job_kwargs("fig8b_scaling")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 3
    assert len({r["patterns"] for r in rows}) == 1
    # speedups exist but flatten: measured speedup below ideal at p=16
    p16 = [r for r in rows if r["variant"] == "partitions=16"][0]
    assert p16["speedup_vs_p1"] < p16["ideal_speedup"]
