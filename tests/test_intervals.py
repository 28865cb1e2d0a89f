import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balmod.intervals import IntervalSet

sets = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    max_size=6,
).map(IntervalSet.from_pairs)


def as_set(s: IntervalSet) -> set[int]:
    return set(s.values())


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IntervalSet(((5, 8), (0, 2)))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            IntervalSet(((3, 3),))

    def test_from_pairs_merges(self):
        s = IntervalSet.from_pairs([(4, 7), (0, 2), (6, 9), (9, 9)])
        assert s.intervals == ((0, 2), (4, 9))

    def test_from_pairs_rejects_non_integer_bounds(self):
        # int() truncated (0.5, 2.7) to (0, 2)
        with pytest.raises(ValueError, match=r"^interval start 0\.5 at index 0 is not an integer$"):
            IntervalSet.from_pairs([(0.5, 2.7)])
        with pytest.raises(ValueError, match=r"^interval end 2\.7 at index 1 is not an integer$"):
            IntervalSet.from_pairs([(0, 1), (1, 2.7)])
        assert IntervalSet.from_pairs([(0.0, 2.0)]).intervals == ((0, 2),)

    def test_constructor_reads_bounds_as_whole_numbers(self):
        # the constructor kept the float bound
        with pytest.raises(ValueError, match=r"^interval start 0\.5 at index 0 is not an integer$"):
            IntervalSet(((0.5, 2),))
        with pytest.raises(ValueError, match=r"^interval end 2\.5 at index 1 is not an integer$"):
            IntervalSet(((0, 1), (2, 2.5)))
        s = IntervalSet(((np.int64(0), 2.0),))
        assert s.intervals == ((0, 2),) and all(type(b) is int for b in s.intervals[0])

    def test_from_pairs_reads_bounds_it_merges_away(self):
        with pytest.raises(ValueError, match=r"^interval end 2\.5 at index 0 is not an integer$"):
            IntervalSet.from_pairs([(0, 2.5), (2, 4)])

    def test_full_universe(self):
        s = IntervalSet.full(8)
        assert s.size == 9
        assert 0 in s and 8 in s and 9 not in s

    def test_full_reads_n_by_the_whole_number_rule(self):
        # n itself is named, not the end n + 1 the caller never passed
        with pytest.raises(ValueError, match=r"^n 8\.5 is not an integer$"):
            IntervalSet.full(8.5)
        s = IntervalSet.full(np.int64(8))
        assert s.intervals == ((0, 9),) and type(s.intervals[0][1]) is int


class TestOps:
    def test_intersect(self):
        a = IntervalSet.from_pairs([(0, 4), (6, 10)])
        b = IntervalSet.from_pairs([(2, 7)])
        assert a.intersect(b).intervals == ((2, 4), (6, 7))

    def test_membership(self):
        s = IntervalSet.from_pairs([(0, 2), (5, 9)])
        assert [i for i in range(10) if i in s] == [0, 1, 5, 6, 7, 8]

    def test_subset(self):
        a = IntervalSet.from_pairs([(1, 3)])
        b = IntervalSet.from_pairs([(0, 5)])
        assert a.issubset(b)
        assert not b.issubset(a)

    def test_min(self):
        assert IntervalSet.from_pairs([(3, 5), (7, 8)]).min() == 3
        with pytest.raises(ValueError):
            IntervalSet.empty().min()

    @given(sets, sets)
    def test_intersection_matches_set_semantics(self, a, b):
        assert as_set(a.intersect(b)) == as_set(a) & as_set(b)

    @given(sets, sets)
    def test_intersection_never_grows(self, a, b):
        assert a.intersect(b).size <= min(a.size, b.size)

    @given(sets)
    def test_values_sorted_and_sized(self, s):
        vals = list(s.values())
        assert vals == sorted(vals)
        assert len(vals) == s.size
