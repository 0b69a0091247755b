"""GMS performance metrics (paper §4.3).

* plain runtime (total, plus a fine-grained preprocessing fraction —
  the "Fraction needed for reordering" bars of Figs. 4/5);
* the novel *algorithmic throughput*: patterns mined per second
  (maximal cliques/s, k-cliques/s, ...), the metric
  Fig. 1 / Fig. 11 plot.

``run_timed`` is the single harness every job uses so that numbers in
EXPERIMENTS.md are produced the same way everywhere. Next to each
stage's time it records the stage's Spark job count (``count_jobs``).
"""
from __future__ import annotations

import time
import uuid
from dataclasses import dataclass

from pyspark import SparkContext
from pyspark.sql import SparkSession

# The thread-local properties ``SparkContext.setJobGroup`` sets.
_JOB_GROUP_PROPERTIES = ("spark.jobGroup.id", "spark.job.description",
                         "spark.job.interruptOnCancel")


def count_jobs(sc: SparkContext | None, fn):
    """(fn(), number of Spark jobs fn launched), counted by a job group.

    Without a SparkContext no job can run, so the count is 0. The
    thread's job-group properties are restored afterwards, so later jobs
    carry no stale group or description and an enclosing count still
    sees its own group.
    """
    if sc is None:
        return fn(), 0
    saved = {k: sc.getLocalProperty(k) for k in _JOB_GROUP_PROPERTIES}
    group = f"count-jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        for k, v in saved.items():
            sc.setLocalProperty(k, v)
    # Job-start events reach the status tracker asynchronously.
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@dataclass
class RunResult:
    """One measured algorithm execution."""

    name: str
    runtime_s: float
    pattern_count: int
    preprocess_s: float = 0.0
    preprocess_jobs: int = 0
    kernel_jobs: int = 0

    @property
    def total_s(self) -> float:
        return self.runtime_s + self.preprocess_s

    @property
    def throughput(self) -> float:
        """Algorithmic throughput: patterns mined per second (total time)."""
        return self.pattern_count / self.total_s if self.total_s > 0 else 0.0

    def row(self) -> dict:
        return {
            "variant": self.name,
            "preprocess_s": round(self.preprocess_s, 3),
            "kernel_s": round(self.runtime_s, 3),
            "total_s": round(self.total_s, 3),
            "preprocess_jobs": self.preprocess_jobs,
            "kernel_jobs": self.kernel_jobs,
            "patterns": self.pattern_count,
            "throughput_per_s": round(self.throughput, 1),
        }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def run_timed(name: str, kernel, preprocess=None, count=len) -> RunResult:
    """Time ``preprocess()`` (optional) then ``kernel(prep_result)``.

    ``kernel`` must force its own Spark actions (return a materialised
    result); ``count`` maps the kernel result to a pattern count. Each
    stage's Spark jobs are counted on the active session's SparkContext.
    """
    session = SparkSession.getActiveSession()
    sc = session.sparkContext if session is not None else None
    prep_out, prep_s, prep_jobs = None, 0.0, 0
    if preprocess is not None:
        (prep_out, prep_s), prep_jobs = count_jobs(sc, lambda: _timed(preprocess))
    run = (lambda: kernel(prep_out)) if preprocess is not None else kernel
    (out, runtime), jobs = count_jobs(sc, lambda: _timed(run))
    return RunResult(name=name, runtime_s=runtime, pattern_count=count(out),
                     preprocess_s=prep_s, preprocess_jobs=prep_jobs, kernel_jobs=jobs)


def print_table(title: str, rows: list[dict]) -> str:
    """Render rows as a fixed-width text table (job outputs, EXPERIMENTS.md)."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    lines = [f"== {title} ==",
             " | ".join(str(c).ljust(widths[c]) for c in cols),
             "-+-".join("-" * widths[c] for c in cols)]
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    out = "\n".join(lines) + "\n"
    print(out)
    return out
