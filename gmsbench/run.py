"""GraphMineSuite benchmark: one workload per run, end-to-end or by layer.

Run from the repository root:

    python3 gmsbench/run.py --workload peel --seed 1 --seconds 25 --trace 0

Workloads are ``peel`` and ``kernels`` (see ``workloads.py``). Each is a
closed loop: one thread issues each operation only after the
previous one has finished, in passes over the workload's operations. A
run makes one pass, and another while the next should end within
``--seconds``. Spark runs as ``local[4]`` with the session settings of
``jobs/_common.get_spark``.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` — Spark session start + input generation and oracle counts +
  the median of three repetitions of ``Graph.from_pandas`` and
  ``adjacency().count()`` over the workload's graphs + warm-up (the
  workload's first operation);
* ``total_s`` — median wall time of one pass (ordering + mining + gather);
* ``patterns_per_s`` — patterns mined in one pass / ``total_s``;
* ``ok_ops`` — share of operations that returned the oracle's count;
* ``driver_peak_rss_mb`` — peak RSS of this process, which gathers results.

``--trace 1`` makes one untraced pass, then one traced pass, and prints
the per-layer metrics named in ``BENCHMARK.json``: spans and Spark job
counts around each public call. ``trace.overhead_s`` is the traced pass
minus the untraced pass. A metric of a layer the workload does not
exercise reads 0. Counts that differ between the set-up repetitions are
listed in the identity line under ``unrepeated_counts``.

The last line of standard output is the result as one JSON object; the
line before it records the run's identity (Spark settings, seed, source)
and every sample behind the medians.
``--smoke`` shrinks every input to a few dozen vertices.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SPARK_CONF = {  # jobs/_common.get_spark
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
SETUP_REPS = 3


def _prepare_environment(tmp: Path) -> None:
    """Make ``repro`` importable here and in Spark's Python workers; keep
    Spark's and Python's temporary files inside ``tmp``. Must run before
    pyspark starts the JVM."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {MASTER}",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "pyspark-shell",
    ])


def _start_spark():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("gmsbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (it exits on EOF of its stdin)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def _identity(args, spark) -> dict:
    conf = spark.sparkContext.getConf()
    digest = hashlib.sha256()
    for d in ("src", "gmsbench"):
        for p in sorted((ROOT / d).rglob("*.py")):
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "driver_memory": conf.get("spark.driver.memory"),
        "spark_conf": {k: spark.conf.get(k) for k in SPARK_CONF},
        "spark_version": spark.version,
        "python": sys.version.split()[0],
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, never searched)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    """Set-up, then passes over one workload's operations."""

    def __init__(self, spark, workload, seed: int, smoke: bool):
        from tracing import Tracer

        self.spark = spark
        self.w = workload
        self.setup_tracer = Tracer(spark.sparkContext, enabled=False)
        self.tracer = Tracer(spark.sparkContext, enabled=False)
        self.seed, self.smoke = seed, smoke
        self.attempted = self.failed = 0
        self.op_s: list[list[float]] = []  # per pass, per operation

    def setup(self, traced: bool) -> dict:
        from repro.core.graph import Graph
        from workloads import ORACLES

        t0 = time.perf_counter()
        self.inputs = self.w.inputs(self.seed, self.smoke)
        self.expected = {k: ORACLES[k](inp) for k, inp in self.inputs.items()}
        self.ops = self.w.ops(self.spark, self.inputs)
        t1 = time.perf_counter()
        self.setup_tracer.enabled = traced
        reps = []
        for _ in range(SETUP_REPS):
            self.setup_tracer.new_round()
            r0 = time.perf_counter()
            graphs = {}
            for k, inp in self.inputs.items():
                with self.setup_tracer.span("represent.s", "represent.jobs"):
                    graphs[k] = Graph.from_pandas(self.spark, inp.edges)
                    graphs[k].adjacency().count()
            reps.append(time.perf_counter() - r0)
        self.graphs = graphs
        # Warm-up: the workload's first operation, checked like any other. A
        # tiny graph is not enough: it left the first full-size BK call about
        # a third slower than the next.
        t2 = time.perf_counter()
        self.attempt(self.ops[0], traced=False)
        t3 = time.perf_counter()
        return {"inputs_oracle_s": t1 - t0, "represent_s": reps,
                "warmup_s": t3 - t2}

    def attempt(self, op, traced: bool) -> int:
        """Patterns mined by one operation; 0, and counted failed, if it raised
        or disagreed with the oracle."""
        self.attempted += 1
        try:
            got = op.traced(self.tracer, self.graphs[op.graph]) if traced \
                else op.untraced(self.graphs[op.graph])
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            got = None
        if got == self.expected[op.graph]:
            return got
        self.failed += 1
        print(f"operation on {op.graph!r} returned {got}, "
              f"the oracle says {self.expected[op.graph]}", file=sys.stderr)
        return 0

    def run_pass(self, traced: bool) -> tuple[float, int]:
        """(wall time, patterns mined) of one pass over the operations."""
        if traced:
            self.tracer.enabled = True
            self.tracer.new_round()
        patterns = 0
        t0 = time.perf_counter()
        op_s = []
        for op in self.ops:
            t = time.perf_counter()
            patterns += self.attempt(op, traced)
            op_s.append(time.perf_counter() - t)
        dt = time.perf_counter() - t0
        self.op_s.append(op_s)
        if traced and self.w.probe is not None:
            self.w.probe(self.tracer, self.inputs, self.graphs)
        return dt, patterns


def _measure(runner: Runner, seconds: float, traced: bool, setup_s: float,
             detail: dict) -> dict[str, float]:
    if not traced:
        # Start another pass only if it should end within the budget.
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() + passes[-1][0] <= deadline:
            passes.append(runner.run_pass(traced=False))
        times = [t for t, _ in passes]
        total = statistics.median(times)
        detail["pass_s"] = times
        return {
            "setup_s": setup_s,
            "total_s": total,
            "patterns_per_s": statistics.median(p for _, p in passes) / total,
            "ok_ops": 1 - runner.failed / runner.attempted,
            "driver_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    untraced_s, _ = runner.run_pass(traced=False)
    traced_s, _ = runner.run_pass(traced=True)
    detail["pass_s"] = {"untraced": untraced_s, "traced": traced_s}
    setup, detail["unrepeated_counts"] = runner.setup_tracer.summary()
    layers, _ = runner.tracer.summary()
    return {**setup, **layers, "trace.overhead_s": traced_s - untraced_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    tmp = ROOT / ".gmsbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    _prepare_environment(tmp)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spark = None
    try:
        t0 = time.perf_counter()
        spark = _start_spark()
        session_s = time.perf_counter() - t0
        runner = Runner(spark, WORKLOADS[args.workload], args.seed, args.smoke)
        detail = {"session_s": session_s, **runner.setup(traced=bool(args.trace))}
        setup_s = (session_s + detail["inputs_oracle_s"] + detail["warmup_s"]
                   + statistics.median(detail["represent_s"]))
        measured = _measure(runner, args.seconds, bool(args.trace), setup_s, detail)
        detail["op_s"] = runner.op_s
        identity = _identity(args, spark)
    finally:
        if spark is not None:
            _stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run's temporary files are still there
            pass

    unknown = set(measured) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {n: {"value": float(measured.get(n, 0)), "unit": u}
               for n, u in units.items()}
    print(json.dumps({"identity": identity, "detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
