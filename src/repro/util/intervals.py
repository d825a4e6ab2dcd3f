"""Half-open integer interval algebra.

The whole reproduction reasons about memory in terms of *byte ranges*
``[lo, hi)`` over a simulated 64-bit address space.  This module provides the
two value types everything else builds on:

* :class:`Interval` — an immutable half-open range.
* :class:`IntervalSet` — a normalized (sorted, disjoint, coalesced) set of
  intervals with union / intersection / difference, backed by ``bisect`` for
  :math:`O(\\log n)` point and range queries.

:class:`IntervalSet` is also each segment's read and write set: the
recorder drains its write-combining buffer into one through
:func:`coalesce_sorted_pairs`, and the analysis kernel pools the sets'
columns as they are.  The paper's interval tree
(:mod:`repro.util.itree`) is kept as a micro-benchmark subject and a test
oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open byte range ``[lo, hi)``.

    Invariant: ``lo < hi`` (empty intervals are never constructed; use
    :meth:`Interval.make` when the inputs may be degenerate).
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty or inverted interval [{self.lo}, {self.hi})")

    @staticmethod
    def make(lo: int, hi: int) -> Optional["Interval"]:
        """Return ``Interval(lo, hi)`` or ``None`` if the range is empty."""
        if lo >= hi:
            return None
        return Interval(lo, hi)

    @property
    def size(self) -> int:
        """Number of bytes covered."""
        return self.hi - self.lo

    def overlaps(self, other: "Interval") -> bool:
        """True when the two half-open ranges share at least one byte."""
        return self.lo < other.hi and other.lo < self.hi

    def touches(self, other: "Interval") -> bool:
        """True when the ranges overlap *or* are adjacent (coalescable)."""
        return self.lo <= other.hi and other.lo <= self.hi

    def contains(self, addr: int) -> bool:
        return self.lo <= addr < self.hi

    def covers(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely within ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """The overlapping sub-range, or ``None`` when disjoint."""
        return Interval.make(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def subtract(self, other: "Interval") -> Tuple["Interval", ...]:
        """``self`` minus ``other`` as 0, 1 or 2 disjoint pieces."""
        if not self.overlaps(other):
            return (self,)
        pieces: List[Interval] = []
        left = Interval.make(self.lo, min(self.hi, other.lo))
        right = Interval.make(max(self.lo, other.hi), self.hi)
        if left is not None:
            pieces.append(left)
        if right is not None:
            pieces.append(right)
        return tuple(pieces)

    def shift(self, delta: int) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:#x}, {self.hi:#x})"


class IntervalSet:
    """A normalized set of disjoint, coalesced, sorted intervals.

    All mutating operations keep the canonical form: intervals are sorted by
    ``lo``, pairwise disjoint, and never adjacent (adjacent inserts coalesce).
    Two :class:`IntervalSet` instances covering the same bytes therefore
    compare equal.
    """

    __slots__ = ("_los", "_his")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._los: List[int] = []
        self._his: List[int] = []
        for iv in intervals:
            self.add(iv.lo, iv.hi)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "IntervalSet":
        s = cls()
        for lo, hi in pairs:
            s.add(lo, hi)
        return s

    def copy(self) -> "IntervalSet":
        s = IntervalSet()
        s._los = list(self._los)
        s._his = list(self._his)
        return s

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._los)

    def __bool__(self) -> bool:
        return bool(self._los)

    def __iter__(self) -> Iterator[Interval]:
        for lo, hi in zip(self._los, self._his):
            yield Interval(lo, hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._los == other._los and self._his == other._his

    def __hash__(self) -> int:
        return hash((tuple(self._los), tuple(self._his)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(repr(iv) for iv in self)
        return f"IntervalSet({body})"

    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self._los, self._his))

    @property
    def total_bytes(self) -> int:
        """Sum of the sizes of all member intervals."""
        return sum(h - l for l, h in zip(self._los, self._his))

    @property
    def span(self) -> Optional[Interval]:
        """Hull of the whole set, or ``None`` when empty."""
        if not self._los:
            return None
        return Interval(self._los[0], self._his[-1])

    # -- queries -----------------------------------------------------------

    def contains_point(self, addr: int) -> bool:
        """True when ``addr`` is covered by some member interval."""
        i = bisect_right(self._los, addr) - 1
        return i >= 0 and addr < self._his[i]

    def overlaps_range(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi)`` shares at least one byte with the set."""
        if lo >= hi or not self._los:
            return False
        i = bisect_right(self._los, lo) - 1
        if i >= 0 and lo < self._his[i]:
            return True
        j = i + 1
        return j < len(self._los) and self._los[j] < hi

    def covers_range(self, lo: int, hi: int) -> bool:
        """True when every byte of ``[lo, hi)`` is in the set."""
        if lo >= hi:
            return True
        i = bisect_right(self._los, lo) - 1
        return i >= 0 and hi <= self._his[i]

    def overlapping(self, lo: int, hi: int) -> List[Interval]:
        """All member intervals overlapping ``[lo, hi)``, in address order."""
        out: List[Interval] = []
        if lo >= hi:
            return out
        i = bisect_right(self._los, lo) - 1
        if i < 0:
            i = 0
        n = len(self._los)
        while i < n and self._los[i] < hi:
            if self._his[i] > lo:
                out.append(Interval(self._los[i], self._his[i]))
            i += 1
        return out

    # -- mutation ----------------------------------------------------------

    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)``, coalescing with overlapping/adjacent members."""
        if lo >= hi:
            return
        # Find the window of members touching [lo, hi): those with
        # member.lo <= hi and member.hi >= lo.
        i = bisect_left(self._his, lo)          # first member with hi >= lo
        j = bisect_right(self._los, hi)         # first member with lo > hi
        if i < j:
            lo = min(lo, self._los[i])
            hi = max(hi, self._his[j - 1])
        self._los[i:j] = [lo]
        self._his[i:j] = [hi]

    def add_interval(self, iv: Interval) -> None:
        self.add(iv.lo, iv.hi)

    def remove(self, lo: int, hi: int) -> None:
        """Remove every byte of ``[lo, hi)`` from the set."""
        if lo >= hi or not self._los:
            return
        i = bisect_left(self._his, lo + 1)      # first member with hi > lo
        j = bisect_right(self._los, hi - 1)     # first member with lo >= hi
        if i >= j:
            return
        keep_los: List[int] = []
        keep_his: List[int] = []
        left = Interval.make(self._los[i], min(self._his[i], lo))
        right = Interval.make(max(self._los[j - 1], hi), self._his[j - 1])
        if left is not None:
            keep_los.append(left.lo)
            keep_his.append(left.hi)
        if right is not None:
            keep_los.append(right.lo)
            keep_his.append(right.hi)
        self._los[i:j] = keep_los
        self._his[i:j] = keep_his

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        out = self.copy()
        for lo, hi in zip(other._los, other._his):
            out.add(lo, hi)
        return out

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Linear-merge intersection of two normalized sets."""
        out = IntervalSet()
        a, b = 0, 0
        while a < len(self._los) and b < len(other._los):
            lo = max(self._los[a], other._los[b])
            hi = min(self._his[a], other._his[b])
            if lo < hi:
                out._los.append(lo)
                out._his.append(hi)
            if self._his[a] < other._his[b]:
                a += 1
            else:
                b += 1
        return out

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out = self.copy()
        for lo, hi in zip(other._los, other._his):
            out.remove(lo, hi)
        return out

    def intersects(self, other: "IntervalSet") -> bool:
        """True when the two sets share at least one byte (no allocation)."""
        a, b = 0, 0
        while a < len(self._los) and b < len(other._los):
            if max(self._los[a], other._los[b]) < min(self._his[a], other._his[b]):
                return True
            if self._his[a] < other._his[b]:
                a += 1
            else:
                b += 1
        return False


def coalesce_sorted_pairs(pairs: Iterable[Tuple[int, int]]
                          ) -> List[Tuple[int, int]]:
    """Coalesce a lo-sorted sequence of ``(lo, hi)`` pairs in one pass.

    Overlapping *and* adjacent pairs merge, so the result is in
    :class:`IntervalSet`'s canonical form.  Empty pairs are dropped.  O(n);
    the sort (if any) is the caller's.
    """
    out: List[Tuple[int, int]] = []
    cur_lo: Optional[int] = None
    cur_hi = 0
    for lo, hi in pairs:
        if lo >= hi:
            continue
        if cur_lo is None:
            cur_lo, cur_hi = lo, hi
        elif lo <= cur_hi:                      # overlap or adjacency
            if hi > cur_hi:
                cur_hi = hi
        else:
            out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    if cur_lo is not None:
        out.append((cur_lo, cur_hi))
    return out


def coalesce(pairs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Normalize an arbitrary list of ``(lo, hi)`` pairs (helper for tests)."""
    return IntervalSet.from_pairs(pairs).pairs()
