"""Graph-representation storage analysis (paper §6.8, §8.9, Appendix B).

Both functions take the adjacency ``{vertex: sorted int64 array}``
returned by ``Graph.collect_adjacency()``.

``representation_sizes`` is the Fig. 8c measurement: it builds one set
per neighbourhood with every class in ``core.sets.SET_REPRS`` — the sets
the BK and SI kernels run — and reports what the build took, not a
formula. ``compression_sizes`` gives the Log(Graph)/WebGraph-style sizes
of the same neighbourhoods (App. B): raw 64-bit IDs, bit packing
(⌈log2 n⌉ bits per ID), and gap + varint encoding.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np

from repro.core.sets import SET_REPRS


def _build(cls, nbrs: dict[int, np.ndarray]) -> dict[str, int]:
    """Build ``cls`` per neighbourhood under tracemalloc; keep the caller's tracing."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    sets = [cls(a) for a in nbrs.values()]
    current, peak = tracemalloc.get_traced_memory()
    if started:
        tracemalloc.stop()
    return {"nbytes_b": sum(s.nbytes() for s in sets),  # the class's own size
            "traced_b": current - before,  # still allocated after the build
            "peak_b": peak - before}  # high-water mark during the build


def representation_sizes(nbrs: dict[int, np.ndarray]) -> dict[str, dict[str, int]]:
    """Per ``SET_REPRS`` name: ``nbytes_b``, ``traced_b`` and ``peak_b``."""
    return {name: _build(cls, nbrs) for name, cls in SET_REPRS.items()}


def _varint_gap_bytes(a: np.ndarray) -> int:
    """Bytes of one sorted neighbourhood gap-encoded with varints (7 bits/byte)."""
    gaps = np.maximum(np.diff(a, prepend=0), 1)
    return int((np.floor(np.log2(gaps)) // 7 + 1).sum())


def compression_sizes(nbrs: dict[int, np.ndarray]) -> dict[str, int]:
    """Adjacency-data bytes under Log(Graph)-style compression schemes."""
    arcs = sum(a.size for a in nbrs.values())  # 2m: each edge in both lists
    pack_bits = max(1, math.ceil(math.log2(max(len(nbrs), 2))))
    return {
        "raw_csr_b": arcs * 8,
        "bit_packed_b": math.ceil(arcs * pack_bits / 8),  # Log(Graph) packing
        "varint_gap_b": sum(_varint_gap_bytes(a) for a in nbrs.values()),
    }
