"""Smoke test of the benchmark at tiny sizes.

Every workload must emit every metric ``BENCHMARK.json`` names, measure
(non-zero) each per-layer metric of the layers it exercises, and fail no
operation. Run from the repository root:

    python3 -m pytest gmsbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

_PEEL = ["represent.s", "represent.jobs", "orient.s", "orient.jobs"] + [
    f"{m}.{o}" for o in ("dgr", "adg") for m in (
        "order.s", "order.jobs", "order.rounds", "order.work",
        "kclique.s", "kclique.jobs", "kclique.work")]
_KERNELS = ["represent.s", "represent.jobs", "order.s.deg", "order.jobs.deg",
            "orient.s", "orient.jobs", "si.collect_s"] + [
    f"{m}.{r}" for r in ("bitmap", "hash") for m in (
        "bk.s", "bk.jobs", "bk.root_skew", "gather.s", "gather.rows")] + [
    f"sets.{m}.{r}" for r in ("sorted", "bitmap", "hash")
    for m in ("op_us", "ops", "elems", "nbytes")] + [
    f"si.{m}.{v}" for v in ("base", "all") for m in ("s", "jobs")]
EXERCISED = {"peel": _PEEL, "kernels": _KERNELS}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "gmsbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_every_workload_has_its_layers_listed():
    assert set(EXERCISED) == set(WORKLOADS)
    declared = {m["name"] for m in DECLARED["per_layer"]}
    exercised = {n for names in EXERCISED.values() for n in names}
    assert exercised | {"trace.overhead_s"} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, trace=0)["metrics"]
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert metrics["ok_ops"]["value"] == 1.0  # no failed operation


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = _result(workload, trace=1)["metrics"]
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    for name, m in metrics.items():
        if name in EXERCISED[workload]:
            assert m["value"] > 0, name
        elif name != "trace.overhead_s":
            assert m["value"] == 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "gmsbench", tmp_path / "gmsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
