"""Empirical work/depth proxies (paper §7, Tables 5–6; Fig. 8b analog).

The paper's concurrency analysis predicts e.g. O(m) work / O(log² n)
depth for ADG versus Θ(n)-round exact peeling. On a shared-nothing
Spark runtime the faithful *observable* analogs are:

* depth proxy  — number of synchronous driver iterations (each is a
  round of parallel work, i.e. one layer of the dependency chain);
* work proxy   — total set elements touched by set operations
  (Σ |A|+|B| over ∩/∖ calls), matching the unit in which the paper
  states its bounds.

PAPI stalled-cycle counters (Fig. 8b) are not observable under
gVisor/JVM, so machine-efficiency analysis is replaced by
(work proxy / wall-clock) at varying parallelism.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WorkDepthRecorder:
    """Accumulates work/depth proxies across one algorithm run."""

    iterations: int = 0          # depth proxy: synchronous rounds
    set_elements_touched: int = 0  # work proxy: Σ operand sizes of set ops

    def round(self) -> None:
        self.iterations += 1

    def touch(self, n: int) -> None:
        self.set_elements_touched += int(n)
