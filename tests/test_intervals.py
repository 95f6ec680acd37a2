"""Unit tests for repro.core.intervals."""

import pytest

from repro.core.intervals import (
    DynamicIntervalSet,
    Interval,
    IntervalIndex,
    are_disjoint,
    find_gaps,
    merge_intervals,
)


class TestInterval:
    def test_from_length(self):
        iv = Interval.from_length(10, 5)
        assert iv.start == 10 and iv.stop == 14
        assert iv.length == 5

    def test_from_length_zero_is_empty(self):
        iv = Interval.from_length(7, 0)
        assert iv.empty
        assert iv.length == 0

    def test_from_length_negative_raises(self):
        with pytest.raises(ValueError):
            Interval.from_length(0, -1)

    def test_intersects_overlapping(self):
        assert Interval(0, 9).intersects(Interval(9, 20))
        assert Interval(9, 20).intersects(Interval(0, 9))

    def test_intersects_adjacent_not(self):
        # Closed intervals: [0,9] and [10,19] share no byte.
        assert not Interval(0, 9).intersects(Interval(10, 19))

    def test_intersects_nested(self):
        assert Interval(0, 100).intersects(Interval(40, 50))

    def test_empty_never_intersects(self):
        empty = Interval.from_length(5, 0)
        assert not empty.intersects(Interval(0, 10))
        assert not Interval(0, 10).intersects(empty)

    def test_intersection(self):
        assert Interval(0, 10).intersection(Interval(5, 20)) == Interval(5, 10)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 4).intersection(Interval(6, 9)).empty

    def test_contains(self):
        iv = Interval(3, 7)
        assert iv.contains(3) and iv.contains(7)
        assert not iv.contains(2) and not iv.contains(8)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert not Interval(0, 10).contains_interval(Interval(8, 12))
        assert Interval(0, 10).contains_interval(Interval.from_length(5, 0))

    def test_shift(self):
        assert Interval(2, 5).shift(10) == Interval(12, 15)
        assert Interval(12, 15).shift(-12) == Interval(0, 3)

    def test_iter(self):
        assert list(Interval(2, 5)) == [2, 3, 4, 5]


class TestHelpers:
    def test_merge_overlapping(self):
        merged = merge_intervals([Interval(0, 5), Interval(3, 9), Interval(20, 25)])
        assert merged == [Interval(0, 9), Interval(20, 25)]

    def test_merge_adjacent(self):
        merged = merge_intervals([Interval(0, 4), Interval(5, 9)])
        assert merged == [Interval(0, 9)]

    def test_merge_drops_empty(self):
        merged = merge_intervals([Interval.from_length(3, 0), Interval(0, 1)])
        assert merged == [Interval(0, 1)]

    def test_find_gaps(self):
        gaps = find_gaps([Interval(2, 3), Interval(7, 8)], Interval(0, 10))
        assert gaps == [Interval(0, 1), Interval(4, 6), Interval(9, 10)]

    def test_find_gaps_full_cover(self):
        assert find_gaps([Interval(0, 10)], Interval(0, 10)) == []

    def test_find_gaps_empty_input(self):
        assert find_gaps([], Interval(0, 3)) == [Interval(0, 3)]

    def test_are_disjoint(self):
        assert are_disjoint([Interval(0, 4), Interval(5, 9)])
        assert not are_disjoint([Interval(0, 5), Interval(5, 9)])


class TestIntervalIndex:
    def make(self):
        return IntervalIndex([Interval(0, 4), Interval(10, 14), Interval(20, 29)])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            IntervalIndex([Interval(0, 5), Interval(5, 9)])

    def test_overlapping_middle(self):
        idx = self.make()
        assert idx.overlapping(Interval(3, 11)) == [0, 1]

    def test_overlapping_all(self):
        idx = self.make()
        assert idx.overlapping(Interval(0, 100)) == [0, 1, 2]

    def test_overlapping_none(self):
        idx = self.make()
        assert idx.overlapping(Interval(5, 9)) == []
        assert idx.overlapping(Interval(30, 40)) == []

    def test_overlapping_single_byte(self):
        idx = self.make()
        assert idx.overlapping(Interval(14, 14)) == [1]

    def test_overlapping_empty_query(self):
        idx = self.make()
        assert idx.overlapping(Interval.from_length(0, 0)) == []

    def test_payloads(self):
        idx = IntervalIndex([Interval(10, 14), Interval(0, 4)], payloads=[7, 9])
        # Sorted by start: [0,4] (payload 9) then [10,14] (payload 7).
        assert idx.overlapping(Interval(1, 1)) == [9]
        assert idx.overlapping(Interval(0, 20)) == [9, 7]


class TestDynamicIntervalSet:
    def test_add_and_intersect(self):
        s = DynamicIntervalSet()
        s.add(Interval(0, 4))
        assert s.intersects(Interval(4, 10))
        assert not s.intersects(Interval(5, 10))

    def test_merge_on_add(self):
        s = DynamicIntervalSet()
        s.add(Interval(0, 4))
        s.add(Interval(10, 14))
        s.add(Interval(5, 9))  # bridges the two
        assert s.intervals() == [Interval(0, 14)]

    def test_overlapping_add(self):
        s = DynamicIntervalSet()
        s.add(Interval(0, 10))
        s.add(Interval(5, 20))
        assert s.intervals() == [Interval(0, 20)]

    def test_first_intersection(self):
        s = DynamicIntervalSet()
        s.add(Interval(10, 14))
        s.add(Interval(20, 24))
        hit = s.first_intersection(Interval(12, 22))
        assert hit == Interval(12, 14)

    def test_first_intersection_none(self):
        s = DynamicIntervalSet()
        s.add(Interval(10, 14))
        assert s.first_intersection(Interval(0, 9)) is None
        assert s.first_intersection(Interval(15, 100)) is None

    def test_empty_add_ignored(self):
        s = DynamicIntervalSet()
        s.add(Interval.from_length(5, 0))
        assert len(s) == 0
        assert not s.intersects(Interval(0, 100))

    def test_many_unordered_adds(self):
        s = DynamicIntervalSet()
        for start in [50, 0, 30, 10, 40, 20]:
            s.add(Interval(start, start + 5))
        # [0,5],[10,15],... with 30/40/50 chains merged where adjacent?
        # 30..35, 40..45, 50..55 are separated by gaps of 4 bytes: no merge.
        assert sum(iv.length for iv in s.intervals()) == 36
        assert s.intersects(Interval(33, 33))
        assert not s.intersects(Interval(36, 39))
