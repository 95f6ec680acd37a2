"""Closed integer intervals and interval-set queries.

The paper reasons about copy commands through the closed byte intervals
they read (``[f, f+l-1]``) and write (``[t, t+l-1]``).  This module
provides a small :class:`Interval` value type with the exact overlap
predicate of Equation 1, plus an :class:`IntervalIndex` that answers
"which write intervals intersect this read interval?" in ``O(log n + k)``
by binary search over intervals sorted by start offset — the data
structure behind the paper's ``O(|C| log |C|)`` digraph construction.

All intervals here are closed and inclusive on both ends, matching the
paper's notation.  Empty intervals (length 0) are represented with
``stop < start`` and never intersect anything.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[start, stop]`` of byte offsets.

    ``length == 0`` is encoded as ``stop == start - 1``; such intervals
    intersect nothing and contain nothing.
    """

    start: int
    stop: int

    @classmethod
    def from_length(cls, start: int, length: int) -> "Interval":
        """Build the interval covering ``length`` bytes beginning at ``start``."""
        if length < 0:
            raise ValueError("interval length must be non-negative, got %d" % length)
        return cls(start, start + length - 1)

    @property
    def length(self) -> int:
        """Number of bytes covered (0 for an empty interval)."""
        return max(0, self.stop - self.start + 1)

    @property
    def empty(self) -> bool:
        """True when the interval covers no bytes."""
        return self.stop < self.start

    def intersects(self, other: "Interval") -> bool:
        """Equation 1 of the paper: do the closed intervals share a byte?"""
        if self.empty or other.empty:
            return False
        return self.start <= other.stop and other.start <= self.stop

    def intersection(self, other: "Interval") -> "Interval":
        """The (possibly empty) common sub-interval."""
        return Interval(max(self.start, other.start), min(self.stop, other.stop))

    def contains(self, offset: int) -> bool:
        """True when ``offset`` lies inside the closed interval."""
        return self.start <= offset <= self.stop

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely inside this interval."""
        if other.empty:
            return True
        return self.start <= other.start and other.stop <= self.stop

    def shift(self, delta: int) -> "Interval":
        """The interval translated by ``delta`` bytes."""
        return Interval(self.start + delta, self.stop + delta)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.empty:
            return "Interval(empty@%d)" % self.start
        return "Interval[%d, %d]" % (self.start, self.stop)


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Coalesce intervals into a minimal sorted list of disjoint intervals.

    Adjacent intervals (``a.stop + 1 == b.start``) are merged as well,
    since together they cover a contiguous byte range.
    """
    items = sorted(iv for iv in intervals if not iv.empty)
    merged: List[Interval] = []
    for iv in items:
        if merged and iv.start <= merged[-1].stop + 1:
            if iv.stop > merged[-1].stop:
                merged[-1] = Interval(merged[-1].start, iv.stop)
        else:
            merged.append(iv)
    return merged


def find_gaps(intervals: Iterable[Interval], span: Interval) -> List[Interval]:
    """Sub-intervals of ``span`` not covered by any of ``intervals``."""
    gaps: List[Interval] = []
    cursor = span.start
    for iv in merge_intervals(intervals):
        if iv.stop < span.start or iv.start > span.stop:
            continue
        if iv.start > cursor:
            gaps.append(Interval(cursor, min(iv.start - 1, span.stop)))
        cursor = max(cursor, iv.stop + 1)
        if cursor > span.stop:
            break
    if cursor <= span.stop:
        gaps.append(Interval(cursor, span.stop))
    return gaps


def are_disjoint(intervals: Iterable[Interval]) -> bool:
    """True when no two of the intervals share a byte."""
    items = sorted(iv for iv in intervals if not iv.empty)
    for prev, cur in zip(items, items[1:]):
        if cur.start <= prev.stop:
            return False
    return True


class IntervalIndex:
    """Query structure over a fixed set of *disjoint* intervals.

    The paper sorts copy commands by write offset and finds, for each read
    interval, the write intervals it intersects by binary search.  This
    class is that structure: it is built once from disjoint intervals
    (each carrying an opaque payload, typically the index of a copy
    command) and answers stabbing and overlap queries in
    ``O(log n + k)``.
    """

    def __init__(self, intervals: Sequence[Interval], payloads: Optional[Sequence[int]] = None):
        pairs = [
            (iv, (payloads[i] if payloads is not None else i))
            for i, iv in enumerate(intervals)
            if not iv.empty
        ]
        pairs.sort(key=lambda p: p[0].start)
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if b.start <= a.stop:
                raise ValueError(
                    "IntervalIndex requires disjoint intervals; %r overlaps %r" % (a, b)
                )
        self._intervals: List[Interval] = [p[0] for p in pairs]
        self._payloads: List[int] = [p[1] for p in pairs]
        self._starts: List[int] = [iv.start for iv in self._intervals]

    def __len__(self) -> int:
        return len(self._intervals)

    def overlapping(self, query: Interval) -> List[int]:
        """Payloads of all stored intervals intersecting ``query``, sorted by start.

        Because the stored intervals are disjoint, the intersecting ones
        form a contiguous run in start order; two binary searches locate
        the run's ends.
        """
        if query.empty or not self._intervals:
            return []
        # First interval that could intersect: the one containing
        # query.start, else the first starting after it.
        lo = bisect_right(self._starts, query.start) - 1
        if lo < 0 or self._intervals[lo].stop < query.start:
            lo += 1
        # Last candidate: the last interval starting at or before query.stop.
        hi = bisect_right(self._starts, query.stop)
        return self._payloads[lo:hi]


class DynamicIntervalSet:
    """Mutable set of disjoint intervals supporting insertion and queries.

    Used by the in-place applier to track the region of the buffer already
    written, and by the verifier to check Equation 2 incrementally.  Backed
    by a sorted list of merged intervals; insertion is ``O(n)`` worst case
    but amortizes well for the mostly-ordered insertions delta application
    produces.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._stops: List[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def intervals(self) -> List[Interval]:
        """Snapshot of the merged intervals, in start order."""
        return [Interval(a, b) for a, b in zip(self._starts, self._stops)]

    def intersects(self, query: Interval) -> bool:
        """True when any byte of ``query`` is in the set."""
        if query.empty or not self._starts:
            return False
        pos = bisect_right(self._starts, query.stop) - 1
        return pos >= 0 and self._stops[pos] >= query.start

    def first_intersection(self, query: Interval) -> Optional[Interval]:
        """The lowest-offset common bytes with ``query``, or ``None``."""
        if query.empty or not self._starts:
            return None
        pos = bisect_right(self._starts, query.start) - 1
        if pos < 0 or self._stops[pos] < query.start:
            pos += 1
        if pos >= len(self._starts) or self._starts[pos] > query.stop:
            return None
        hit = Interval(self._starts[pos], self._stops[pos]).intersection(query)
        return hit

    def add(self, iv: Interval) -> None:
        """Insert ``iv``, merging with any intervals it touches."""
        if iv.empty:
            return
        lo = bisect_left(self._stops, iv.start - 1)
        hi = bisect_right(self._starts, iv.stop + 1)
        if lo < hi:
            new_start = min(iv.start, self._starts[lo])
            new_stop = max(iv.stop, self._stops[hi - 1])
            del self._starts[lo:hi]
            del self._stops[lo:hi]
        else:
            new_start, new_stop = iv.start, iv.stop
        self._starts.insert(lo, new_start)
        self._stops.insert(lo, new_stop)
