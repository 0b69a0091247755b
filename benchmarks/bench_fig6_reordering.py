"""Benchmark: Fig. 6 reordering analysis (DGR vs DEG vs ADG-ε)."""
from benchmarks._jobs import job_kwargs, load_job

fig6 = load_job("fig6_reordering")


def test_bench_fig6_reordering(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig6.run(spark, **job_kwargs("fig6_reordering")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 5
    by = {r["variant"]: r for r in rows}
    # clique counts identical across orderings
    assert len({r["patterns"] for r in rows}) == 1
    # ADG beats exact DGR on the deterministic depth proxy (Fig. 6 core
    # claim; at this scale wall-clock is round-overhead-dominated, so the
    # round count is the faithful observable — Lemma 7.1)
    for eps in ("0.5", "0.1", "0.01"):
        adg = by[f"GMS (ADG, eps={eps})"]
        assert adg["reorder_rounds"] <= by["DGR"]["reorder_rounds"]
