"""Benchmark: Fig. 8c representation memory footprints (measured sets)."""
from benchmarks._jobs import job_kwargs, load_job

fig8c = load_job("fig8c_memory")


def test_bench_fig8c_memory(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig8c.run(spark, **job_kwargs("fig8c_memory")),
        rounds=1, iterations=1,
    )
    reps = [r for r in rows if "representation" in r]
    assert len(reps) == 3 * 3
    by = {(r["graph"].split()[0], r["representation"]): r for r in reps}
    # paper (v-usa): bitmaps are the outlier on the sparse road graph
    assert by["road", "bitmap"]["nbytes_MB"] > by["road", "sorted"]["nbytes_MB"]
    ratio = {g: by[g, "bitmap"]["nbytes_MB"] / by[g, "sorted"]["nbytes_MB"]
             for g in ("web", "social", "road")}
    assert max(ratio, key=ratio.get) == "road", ratio
    # a built set holds at least the bytes its class reports
    for r in reps:
        assert r["traced_MB"] >= r["nbytes_MB"], r
