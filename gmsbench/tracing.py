"""Spans and counts recorded by the benchmark around calls into the program.

A ``Tracer`` records, per named metric, one value per *round* (one pass
over a workload's operations, or one repetition of a set-up step). Within
a round, values of the same name are summed, so e.g. ``orient.s`` is the
orientation time of every operation in the pass. Across rounds, each
metric is reduced to its median, and ``summary`` also returns the counts
that did not repeat exactly.

A span times one call and, through a Spark job group, counts the jobs it
launched. Spans are flat: the benchmark opens them around each public call
(ordering, orientation, mining kernel, gather), never inside the program.
A disabled tracer records nothing, so the untraced run pays no cost.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, sc, enabled: bool):
        self.sc = sc
        self.enabled = enabled
        self.rounds: list[dict[str, float]] = []
        self.times: set[str] = set()
        self._groups = 0

    def new_round(self) -> None:
        self.rounds.append({})

    def _add(self, name: str, value: float) -> None:
        cur = self.rounds[-1]
        cur[name] = cur.get(name, 0) + value

    @contextmanager
    def span(self, time_name: str, jobs_name: str | None = None):
        """Time the enclosed call; count its Spark jobs under ``jobs_name``."""
        if not self.enabled:
            yield
            return
        self._groups += 1
        group = f"gmsbench-{id(self)}-{self._groups}"
        self.sc.setJobGroup(group, time_name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.timing(time_name, dt)
            if jobs_name is not None:
                # Job-start events reach the status store asynchronously.
                self.sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
                self._add(jobs_name,
                          len(self.sc.statusTracker().getJobIdsForGroup(group)))

    def timing(self, name: str, seconds: float) -> None:
        """A measured time, reduced to its median over rounds."""
        if self.enabled:
            self.times.add(name)
            self._add(name, seconds)

    def count(self, name: str, value: float) -> None:
        """A deterministic count (or ratio of counts) observed in this round."""
        if self.enabled:
            self._add(name, value)

    def summary(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """(median of each metric over rounds, the counts that varied)."""
        names = {n for r in self.rounds for n in r}
        out: dict[str, float] = {}
        unrepeated = {}
        for n in sorted(names):
            vals = [r.get(n, 0) for r in self.rounds]
            out[n] = statistics.median(vals)
            if n not in self.times and len(set(vals)) > 1:
                unrepeated[n] = vals
        return out, unrepeated
