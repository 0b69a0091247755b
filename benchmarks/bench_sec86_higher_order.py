"""Benchmark: §8.6 higher-order structure subtleties."""
from benchmarks._jobs import job_kwargs, load_job

sec86 = load_job("sec86_higher_order")


def test_bench_sec86_higher_order(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: sec86.run(spark, **job_kwargs("sec86_higher_order")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 2
    planted = next(r for r in rows if "planted" in r["graph"])
    caveman = next(r for r in rows if "caveman" in r["graph"])
    # matched coarse stats: sizes within 2x of each other
    assert 0.5 <= planted["m"] / caveman["m"] <= 2.0
    # but clique-rich origin has far more 4-cliques (paper: 2000x; shape: >5x)
    assert planted["4cliques"] > 5 * max(caveman["4cliques"], 1)
