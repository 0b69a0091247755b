"""Benchmark: Fig. 4/1 BK variant ablation (the paper's headline result)."""
from benchmarks._jobs import job_kwargs, load_job

fig4 = load_job("fig4_bk_variants")


def test_bench_fig4_bk_variants(benchmark, spark):
    rows = benchmark.pedantic(
        lambda: fig4.run(spark, **job_kwargs("fig4_bk_variants")),
        rounds=1, iterations=1,
    )
    assert len(rows) == 5 * len(fig4.VARIANTS)
    # all variants agree on the number of maximal cliques per graph
    from collections import defaultdict

    counts = defaultdict(set)
    for r in rows:
        counts[r["graph"]].add(r["patterns"])
    for gname, cs in counts.items():
        assert len(cs) == 1, f"variant disagreement on {gname}: {cs}"
    # shape check (paper): ADG total ≤ DGR total on most graphs — the
    # reordering itself must be faster
    adg_faster = 0
    per_graph = defaultdict(dict)
    for r in rows:
        per_graph[r["graph"]][r["variant"]] = r
    for gname, v in per_graph.items():
        if v["BK-GMS-ADG"]["preprocess_s"] <= v["BK-GMS-DGR"]["preprocess_s"]:
            adg_faster += 1
    assert adg_faster >= 3, "ADG reordering should beat exact DGR broadly"
