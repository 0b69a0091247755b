"""Unit tests for the GMS Set interface (repro.core.sets)."""
import numpy as np
import pytest

from repro.core.sets import BitmapSet, HashSet, SortedSet, make_set_factory

REPRS = ["sorted", "bitmap", "hash"]
UNIVERSE = 64


def _mk(repr_name, items):
    return make_set_factory(repr_name, UNIVERSE)(items)


@pytest.mark.parametrize("repr_name", REPRS)
class TestSetRepr:
    def test_roundtrip(self, repr_name):
        s = _mk(repr_name, [5, 1, 3, 3])
        assert s.to_list() == [1, 3, 5]

    def test_empty(self, repr_name):
        s = _mk(repr_name, [])
        assert s.to_list() == []
        assert s.cardinality() == 0
        assert not s

    def test_intersect(self, repr_name):
        a = _mk(repr_name, [1, 2, 3, 10])
        b = _mk(repr_name, [2, 10, 40])
        assert a.intersect(b).to_list() == [2, 10]

    def test_intersect_count(self, repr_name):
        a = _mk(repr_name, [1, 2, 3, 10])
        b = _mk(repr_name, [2, 10, 40])
        assert a.intersect_count(b) == 2

    def test_diff(self, repr_name):
        a = _mk(repr_name, [1, 2, 3, 10])
        b = _mk(repr_name, [2, 10, 40])
        assert a.diff(b).to_list() == [1, 3]

    def test_union(self, repr_name):
        a = _mk(repr_name, [1, 3])
        b = _mk(repr_name, [2, 3])
        assert a.union(b).to_list() == [1, 2, 3]

    def test_add_remove(self, repr_name):
        s = _mk(repr_name, [1, 2])
        assert s.add(5).to_list() == [1, 2, 5]
        assert s.remove(1).to_list() == [2]
        # add/remove return new sets (persistent style used by BK kernels)
        assert s.to_list() == [1, 2]

    def test_contains(self, repr_name):
        s = _mk(repr_name, [1, 7, 33])
        assert s.contains(7)
        assert not s.contains(8)

    def test_cardinality(self, repr_name):
        assert _mk(repr_name, range(0, 40, 3)).cardinality() == 14

    def test_iter(self, repr_name):
        assert list(_mk(repr_name, [9, 4])) == [4, 9]

    def test_eq(self, repr_name):
        assert _mk(repr_name, [1, 2]) == _mk(repr_name, [2, 1])
        assert _mk(repr_name, [1]) != _mk(repr_name, [2])

    def test_nbytes_positive(self, repr_name):
        assert _mk(repr_name, [1, 2, 3]).nbytes() > 0

    def test_randomised_against_python_sets(self, repr_name):
        g = np.random.default_rng(7)
        for _ in range(25):
            xa = set(g.integers(0, UNIVERSE, 12).tolist())
            xb = set(g.integers(0, UNIVERSE, 12).tolist())
            a, b = _mk(repr_name, xa), _mk(repr_name, xb)
            assert a.intersect(b).to_list() == sorted(xa & xb)
            assert a.diff(b).to_list() == sorted(xa - xb)
            assert a.union(b).to_list() == sorted(xa | xb)
            assert a.intersect_count(b) == len(xa & xb)


def test_cross_representation_agreement():
    """Same logical ops across all three representations (5+ modularity)."""
    items_a, items_b = [0, 5, 9, 63], [5, 9, 17]
    results = []
    for r in REPRS:
        a, b = _mk(r, items_a), _mk(r, items_b)
        results.append(
            (a.intersect(b).to_list(), a.diff(b).to_list(), a.union(b).to_list())
        )
    assert results[0] == results[1] == results[2]


def test_bitmap_popcount_large_words():
    s = BitmapSet(range(0, 130, 2))
    assert s.cardinality() == 65
    assert s.contains(128)
    assert not s.contains(127)


def test_make_set_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_set_factory("roaring", 10)


def test_sortedset_wraps_numpy():
    s = SortedSet(np.array([3, 1, 2, 2]))
    assert s.to_list() == [1, 2, 3]


def test_hashset_tolist_sorted():
    assert HashSet([9, 2, 5]).to_list() == [2, 5, 9]
