"""Benchmark: Fig. 5 k-clique listing under DEG/DGR/ADG reorderings."""
from benchmarks._jobs import job_kwargs, load_job

fig5 = load_job("fig5_kclique")


def test_bench_fig5_kclique(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig5.run(spark, **job_kwargs("fig5_kclique")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 2 * 2 * 3
    # counts must agree across orderings for each (graph, k)
    from collections import defaultdict

    counts = defaultdict(set)
    for r in rows:
        k = r["variant"].split("k=")[1]
        counts[(r["graph"], k)].add(r["patterns"])
    assert all(len(v) == 1 for v in counts.values())
    # ADG reorder time ≤ DGR reorder time for each graph/k (paper claim)
    per = {(r["graph"], r["variant"]): r for r in rows}
    for (g, var), r in per.items():
        if var.startswith("KC-ADG"):
            dgr = per[(g, var.replace("ADG", "DGR"))]
            assert r["preprocess_s"] <= dgr["preprocess_s"] * 1.5
