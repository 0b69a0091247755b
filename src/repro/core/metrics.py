"""GMS performance metrics (paper §4.3).

* plain runtime (total, plus a fine-grained preprocessing fraction —
  the "Fraction needed for reordering" bars of Figs. 4/5);
* the novel *algorithmic throughput*: patterns mined per second
  (maximal cliques/s, k-cliques/s, ...), the metric
  Fig. 1 / Fig. 11 plot.

``run_timed`` is the single harness every job uses so that numbers in
EXPERIMENTS.md are produced the same way everywhere.
"""
from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class RunResult:
    """One measured algorithm execution."""

    name: str
    runtime_s: float
    pattern_count: int
    preprocess_s: float = 0.0

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
            "patterns": self.pattern_count,
            "throughput_per_s": round(self.throughput, 1),
        }


def run_timed(name: str, kernel, preprocess=None, count=len) -> RunResult:
    """Time ``preprocess()`` (optional) then ``kernel(prep_result)``.

    ``kernel`` must force its own Spark actions (return a materialised
    result); ``count`` maps the kernel result to a pattern count.
    """
    prep_out, prep_s = None, 0.0
    if preprocess is not None:
        t0 = time.perf_counter()
        prep_out = preprocess()
        prep_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = kernel(prep_out) if preprocess is not None else kernel()
    runtime = time.perf_counter() - t0
    return RunResult(name=name, runtime_s=runtime, pattern_count=count(out),
                     preprocess_s=prep_s)


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
