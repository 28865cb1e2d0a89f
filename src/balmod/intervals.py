"""Sets of integers stored as sorted disjoint half-open intervals.

Used to track candidate prefix-inversion indices during erasure decoding; the
universe there is {0, .., n}, i.e. IntervalSet.full(n) covers n + 1 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .words import as_whole_number, as_whole_numbers


def _whole_pairs(pairs) -> tuple[tuple[int, int], ...]:
    pairs = list(pairs)
    return tuple(zip(as_whole_numbers([lo for lo, _ in pairs], "interval start"),
                     as_whole_numbers([hi for _, hi in pairs], "interval end")))


@dataclass(frozen=True)
class IntervalSet:
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", _whole_pairs(self.intervals))
        prev_hi = None
        for lo, hi in self.intervals:
            if lo >= hi:
                raise ValueError(f"empty or inverted interval [{lo}, {hi})")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = hi

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full(cls, n: int) -> "IntervalSet":
        return cls(((0, as_whole_number(n, "n") + 1),))

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        """Normalize arbitrary half-open pairs of whole numbers: drop empties,
        merge overlaps; every bound is read before any is dropped."""
        pairs = sorted((lo, hi) for lo, hi in _whole_pairs(pairs) if lo < hi)
        merged: list[tuple[int, int]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    @property
    def size(self) -> int:
        return sum(hi - lo for lo, hi in self.intervals)

    def __contains__(self, i: int) -> bool:
        lo_idx, hi_idx = 0, len(self.intervals)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            lo, hi = self.intervals[mid]
            if i < lo:
                hi_idx = mid
            elif i >= hi:
                lo_idx = mid + 1
            else:
                return True
        return False

    def values(self) -> Iterator[int]:
        for lo, hi in self.intervals:
            yield from range(lo, hi)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        a, b = 0, 0
        while a < len(self.intervals) and b < len(other.intervals):
            lo = max(self.intervals[a][0], other.intervals[b][0])
            hi = min(self.intervals[a][1], other.intervals[b][1])
            if lo < hi:
                out.append((lo, hi))
            if self.intervals[a][1] <= other.intervals[b][1]:
                a += 1
            else:
                b += 1
        return IntervalSet(tuple(out))

    def issubset(self, other: "IntervalSet") -> bool:
        return self.intersect(other).size == self.size

    def min(self) -> int:
        if not self.intervals:
            raise ValueError("empty set has no minimum")
        return self.intervals[0][0]
