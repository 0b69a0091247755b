"""Graph-representation storage analysis (paper §6.8, §8.9, Appendix B).

Both functions take ``Graph.collect_adjacency()``. ``representation_sizes``
is the Fig. 8c measurement: it builds one set per neighbourhood with every
class in ``core.sets.SET_REPRS`` — the sets the BK and SI kernels run — and
reports what the build took, not a formula. ``compression_sizes`` gives the
Log(Graph)/WebGraph-style sizes of the same neighbourhoods (App. B): raw
64-bit IDs, bit packing (⌈log2 n⌉ bits per ID), and gap + varint encoding.
"""
from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np

from repro.core import sets

# The build's blocks: traced under these files, but not by the snapshots.
_OWN = [tracemalloc.Filter(False, tracemalloc.__file__, all_frames=True),
        *(tracemalloc.Filter(True, f, all_frames=True) for f in (sets.__file__, __file__))]


def _own_bytes() -> int:
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(_OWN).traces)


def _build(cls, nbrs: dict[int, np.ndarray]) -> dict[str, int]:
    """Build ``cls`` per neighbourhood under tracemalloc; keep the caller's tracing.

    ``traced_b`` counts only blocks allocated under ``core/sets.py`` or this
    module (a caller's tracing must keep 16 frames), not the py4j threads'. A
    warm-up build and a full collection go first, so that no block the build
    reuses carries an older traceback. ``peak_b`` is unfiltered.
    """
    [cls(a) for a in nbrs.values()]  # the warm-up build
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start(16)
    gc_on = gc.isenabled()
    gc.collect()
    gc.disable()  # no collection runs during the build
    try:
        before = _own_bytes()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        built = [cls(a) for a in nbrs.values()]
        peak = tracemalloc.get_traced_memory()[1] - start
        traced = _own_bytes() - before
    finally:
        if gc_on:
            gc.enable()
        if started:
            tracemalloc.stop()
    return {"nbytes_b": sum(s.nbytes() for s in built),  # the class's own size
            "traced_b": traced, "peak_b": peak}


def representation_sizes(nbrs: dict[int, np.ndarray]) -> dict[str, dict[str, int]]:
    """Per ``SET_REPRS`` name: ``nbytes_b``, ``traced_b`` and ``peak_b``."""
    return {name: _build(cls, nbrs) for name, cls in sets.SET_REPRS.items()}


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
