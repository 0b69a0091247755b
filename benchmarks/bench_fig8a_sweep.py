"""Benchmark: Fig. 8a Kronecker sparsity sweep (preprocess vs mine)."""
from benchmarks._jobs import job_kwargs, load_job

fig8a = load_job("fig8a_synthetic_sweep")


def test_bench_fig8a_sweep(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig8a.run(spark, **job_kwargs("fig8a_synthetic_sweep")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 6
    # paper shape, in the paper's own unit: the reorder cost (DGR's work
    # proxy, elements read) grows with m/n within each scale, at least
    # ~proportionally to m. Wall-clock shares are not asserted: at this
    # size the ordering takes milliseconds against a kernel's Spark job.
    for scale_rows in ([r for r in rows if r["n"] == 256],
                       [r for r in rows if r["n"] == 512]):
        scale_rows.sort(key=lambda r: r["m/n"])
        work = [r["preprocessing_work"] for r in scale_rows]
        assert all(a < b for a, b in zip(work, work[1:]))
        growth = scale_rows[-1]["m"] / scale_rows[0]["m"]
        assert work[-1] / work[0] >= growth * 0.8
