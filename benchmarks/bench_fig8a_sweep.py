"""Benchmark: Fig. 8a Kronecker sparsity sweep (preprocess vs mine)."""
from benchmarks._jobs import job_kwargs, load_job

fig8a = load_job("fig8a_synthetic_sweep")


def test_bench_fig8a_sweep(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig8a.run(spark, **job_kwargs("fig8a_synthetic_sweep")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 6
    # paper shape: preprocessing share grows with m/n within each scale
    for scale_rows in ([r for r in rows if r["n"] == 256],
                       [r for r in rows if r["n"] == 512]):
        scale_rows.sort(key=lambda r: r["m/n"])
        frac = [r["preprocessing_time"] /
                max(r["preprocessing_time"] + r["mining_time"], 1e-9)
                for r in scale_rows]
        assert frac[-1] >= frac[0] * 0.8  # monotone-ish growth
