"""GMS Set interface (paper §5.1–5.2, Listing 1): the kernel-side sets.

The Bron–Kerbosch, k-clique and triangle kernels, run per root by
``Graph.per_root``, do their set algebra with these classes.
Three implementations mirror the paper's SortedSet / RoaringSet / HashSet:
``SortedSet`` (sorted numpy arrays, merge-based ops — the CSR analog),
``BitmapSet`` (one Python int as a bitset, bulk bitwise ops and
``int.bit_count()`` — the roaring-bitmap analog), ``HashSet`` (Python
frozenset — Robin-Hood-hashtable analog). They share one interface so a
kernel is parameterised by the class alone. No set operation runs in
Catalyst; the peeling orderings update degrees with numpy on the driver
(``orderings/peel.py``).
"""
from __future__ import annotations

import numpy as np


class SortedSet:
    """Sorted contiguous integer array; merge-based ∩/∖ (paper's CSR sets)."""

    __slots__ = ("a",)

    def __init__(self, items=()):
        arr = np.asarray(list(items) if not isinstance(items, np.ndarray) else items,
                         dtype=np.int64)
        self.a = np.unique(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "SortedSet":
        s = cls.__new__(cls)
        s.a = arr
        return s

    def intersect(self, other: "SortedSet") -> "SortedSet":
        return self._wrap(np.intersect1d(self.a, other.a, assume_unique=True))

    def intersect_count(self, other: "SortedSet") -> int:
        return int(np.intersect1d(self.a, other.a, assume_unique=True).size)

    def diff(self, other: "SortedSet") -> "SortedSet":
        return self._wrap(np.setdiff1d(self.a, other.a, assume_unique=True))

    def union(self, other: "SortedSet") -> "SortedSet":
        return self._wrap(np.union1d(self.a, other.a))

    def add(self, x: int) -> "SortedSet":
        return self._wrap(np.union1d(self.a, np.int64(x)))

    def remove(self, x: int) -> "SortedSet":
        return self._wrap(self.a[self.a != x])

    def contains(self, x: int) -> bool:
        i = np.searchsorted(self.a, x)
        return bool(i < self.a.size and self.a[i] == x)

    def cardinality(self) -> int:
        return int(self.a.size)

    def to_list(self) -> list[int]:
        return [int(x) for x in self.a]

    def nbytes(self) -> int:
        return int(self.a.nbytes)

    def __iter__(self):
        return iter(self.to_list())

    def __bool__(self):
        return self.a.size > 0

    def __eq__(self, other):
        return isinstance(other, SortedSet) and np.array_equal(self.a, other.a)


class BitmapSet:
    """Bitset in one Python ``int``: element i is present iff bit i is set.

    The roaring-bitmap analog: bulk ∩/∪/∖ are single bitwise ops on an
    arbitrary-precision int, |·| is ``int.bit_count()`` and add/remove
    flip one bit. Elements are non-negative ints; with the paper's
    subgraph optimisation BK relabels each root's neighbourhood to
    0..|N(v)|-1, so the ints stay neighbourhood-sized, and without it
    they are as wide as the largest vertex ID.
    """

    __slots__ = ("bits",)

    def __init__(self, items=()):
        bits = 0
        for x in items:
            bits |= 1 << int(x)
        self.bits = bits

    @classmethod
    def _wrap(cls, bits: int) -> "BitmapSet":
        s = cls.__new__(cls)
        s.bits = bits
        return s

    def intersect(self, other: "BitmapSet") -> "BitmapSet":
        return self._wrap(self.bits & other.bits)

    def intersect_count(self, other: "BitmapSet") -> int:
        return (self.bits & other.bits).bit_count()

    def diff(self, other: "BitmapSet") -> "BitmapSet":
        return self._wrap(self.bits & ~other.bits)

    def union(self, other: "BitmapSet") -> "BitmapSet":
        return self._wrap(self.bits | other.bits)

    def add(self, x: int) -> "BitmapSet":
        return self._wrap(self.bits | (1 << int(x)))

    def remove(self, x: int) -> "BitmapSet":
        return self._wrap(self.bits & ~(1 << int(x)))

    def contains(self, x: int) -> bool:
        return bool((self.bits >> int(x)) & 1)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def to_list(self) -> list[int]:
        out, bits = [], self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def nbytes(self) -> int:
        return (self.bits.bit_length() + 7) // 8

    def __iter__(self):
        return iter(self.to_list())

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return isinstance(other, BitmapSet) and self.bits == other.bits


class HashSet:
    """Hashtable-backed set (paper's Robin Hood HashSet analog)."""

    __slots__ = ("s",)

    def __init__(self, items=()):
        self.s = frozenset(int(x) for x in items)

    @classmethod
    def _wrap(cls, s: frozenset) -> "HashSet":
        h = cls.__new__(cls)
        h.s = s
        return h

    def intersect(self, other: "HashSet") -> "HashSet":
        return self._wrap(self.s & other.s)

    def intersect_count(self, other: "HashSet") -> int:
        return len(self.s & other.s)

    def diff(self, other: "HashSet") -> "HashSet":
        return self._wrap(self.s - other.s)

    def union(self, other: "HashSet") -> "HashSet":
        return self._wrap(self.s | other.s)

    def add(self, x: int) -> "HashSet":
        return self._wrap(self.s | {int(x)})

    def remove(self, x: int) -> "HashSet":
        return self._wrap(self.s - {int(x)})

    def contains(self, x: int) -> bool:
        return int(x) in self.s

    def cardinality(self) -> int:
        return len(self.s)

    def to_list(self) -> list[int]:
        return sorted(self.s)

    def nbytes(self) -> int:
        # sys.getsizeof(frozenset) is interpreter-detail; 8B/slot with
        # ~1.6x open-addressing overhead is the comparable payload size.
        return int(len(self.s) * 8 * 1.6) + 64

    def __iter__(self):
        return iter(self.to_list())

    def __bool__(self):
        return bool(self.s)

    def __eq__(self, other):
        return isinstance(other, HashSet) and self.s == other.s


SET_REPRS = {"sorted": SortedSet, "bitmap": BitmapSet, "hash": HashSet}


def make_set_factory(repr_name: str, universe: int):
    """Return ``items -> Set`` for the named representation.

    ``universe`` no longer affects any representation: a ``BitmapSet``
    int grows with its largest element. This is the single point where
    a kernel picks its set representation (paper's 5+ modularity).
    """
    if repr_name not in SET_REPRS:
        raise ValueError(f"unknown set representation {repr_name!r}; "
                         f"expected one of {'|'.join(SET_REPRS)}")
    return SET_REPRS[repr_name]
