"""Self-balancing (AVL) interval tree with dense-access coalescing.

This is the per-segment access structure of the paper's Section III-B:
*"Two interval trees are attached to each segment to record read and write
access ... Such structure allows compactly accumulated dense memory accesses
and a light O(log n) complexity on most tree operations"*.

The recorder does not use it.  A segment keeps each access set as one
normalized flat list (:class:`repro.util.intervals.IntervalSet`): the
write-combining buffer drains sorted and coalesced, the numpy kernel pools
the lists as they are, and a saved trace stores them in that form.  The
coalescing and the interval count are the tree's, so the memory model is
unchanged.  The tree lives with the tests for two jobs: the Section III-B
micro-benchmarks (``benchmarks/test_datastructures.py``) time it, and the
recorder tests replay an access log through :meth:`IntervalTree.insert` as
the per-access oracle for the flat sets.

Design
------
* Nodes hold half-open ranges ``[lo, hi)`` keyed by ``lo`` and carry the AVL
  augmentation ``max_hi`` (maximum ``hi`` in the subtree) so overlap queries
  prune correctly.
* :meth:`IntervalTree.insert` *coalesces*: an inserted range that overlaps or
  is adjacent to existing nodes replaces them with their hull, so a segment
  that sweeps a dense array ends up with a single node regardless of access
  order — exactly the compaction Fig. 3 of the paper illustrates.
* Intersection between two trees (Algorithm 1's ``s1.w ∩ (s2.r ∪ s2.w)``
  test) walks the smaller tree and stabs the larger, giving
  :math:`O(m \\log n)` with early exit for the boolean variant.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.util.intervals import Interval, IntervalSet


class _Node:
    __slots__ = ("lo", "hi", "left", "right", "height", "max_hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1
        self.max_hi = hi


def _h(n: Optional[_Node]) -> int:
    return n.height if n else 0


def _mx(n: Optional[_Node]) -> int:
    return n.max_hi if n else -1


def _update(n: _Node) -> None:
    n.height = 1 + max(_h(n.left), _h(n.right))
    n.max_hi = max(n.hi, _mx(n.left), _mx(n.right))


def _rot_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rot_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _balance(n: _Node) -> _Node:
    _update(n)
    bf = _h(n.left) - _h(n.right)
    if bf > 1:
        assert n.left is not None
        if _h(n.left.left) < _h(n.left.right):
            n.left = _rot_left(n.left)
        return _rot_right(n)
    if bf < -1:
        assert n.right is not None
        if _h(n.right.right) < _h(n.right.left):
            n.right = _rot_right(n.right)
        return _rot_left(n)
    return n


class IntervalTree:
    """AVL interval tree over disjoint, coalesced half-open byte ranges."""

    __slots__ = ("_root", "_count", "_bytes")

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._count = 0
        self._bytes = 0

    # -- size accounting -----------------------------------------------------

    def __len__(self) -> int:
        """Number of (coalesced) interval nodes currently stored."""
        return self._count

    def __bool__(self) -> bool:
        return self._root is not None

    @property
    def total_bytes(self) -> int:
        """Total bytes covered (disjointness makes this exact)."""
        return self._bytes

    @property
    def height(self) -> int:
        return _h(self._root)

    # -- insertion -----------------------------------------------------------

    def insert(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)``, coalescing with touching nodes.

        Overlapping or adjacent nodes are removed and replaced by the hull of
        everything touched, keeping the stored ranges disjoint and maximal.
        Amortized :math:`O(\\log n)` — each removed node was inserted once.
        """
        if lo >= hi:
            return
        # Absorb every node touching [lo, hi) (overlap OR adjacency).
        while True:
            node = self._find_touching(self._root, lo, hi)
            if node is None:
                break
            lo = min(lo, node.lo)
            hi = max(hi, node.hi)
            self._delete(node.lo)
        self._root = self._insert_node(self._root, lo, hi)
        self._count += 1
        self._bytes += hi - lo

    def _find_touching(self, n: Optional[_Node], lo: int, hi: int) -> Optional[_Node]:
        """Some node with ``node.lo <= hi and node.hi >= lo``, else ``None``."""
        while n is not None:
            if _mx(n.left) >= lo:
                n = n.left
                continue
            if n.lo <= hi and n.hi >= lo:
                return n
            if n.lo > hi:
                return None
            n = n.right
        return None

    def _insert_node(self, n: Optional[_Node], lo: int, hi: int) -> _Node:
        if n is None:
            return _Node(lo, hi)
        if lo < n.lo:
            n.left = self._insert_node(n.left, lo, hi)
        else:
            n.right = self._insert_node(n.right, lo, hi)
        return _balance(n)

    def _delete(self, lo: int) -> None:
        removed_bytes = [0]
        self._root = self._delete_node(self._root, lo, removed_bytes)
        self._count -= 1
        self._bytes -= removed_bytes[0]

    def _delete_node(self, n: Optional[_Node], lo: int,
                     removed: List[int]) -> Optional[_Node]:
        if n is None:  # pragma: no cover - internal invariant
            raise KeyError(lo)
        if lo < n.lo:
            n.left = self._delete_node(n.left, lo, removed)
        elif lo > n.lo:
            n.right = self._delete_node(n.right, lo, removed)
        else:
            removed[0] = n.hi - n.lo
            if n.left is None:
                return n.right
            if n.right is None:
                return n.left
            # Replace with in-order successor.
            succ = n.right
            while succ.left is not None:
                succ = succ.left
            s_lo, s_hi = succ.lo, succ.hi
            dummy = [0]
            n.right = self._delete_node(n.right, s_lo, dummy)
            n.lo, n.hi = s_lo, s_hi
        return _balance(n)

    # -- queries ---------------------------------------------------------------

    def overlaps(self, lo: int, hi: int) -> bool:
        """True when ``[lo, hi)`` shares a byte with some stored range."""
        if lo >= hi:
            return False
        n = self._root
        while n is not None:
            if n.lo < hi and lo < n.hi:
                return True
            if n.left is not None and n.left.max_hi > lo:
                n = n.left
            elif n.lo < hi:
                n = n.right
            else:
                return False
        return False

    def contains_point(self, addr: int) -> bool:
        return self.overlaps(addr, addr + 1)

    def covers(self, lo: int, hi: int) -> bool:
        """True when every byte of ``[lo, hi)`` is stored.

        Because stored ranges are coalesced and disjoint, full coverage means
        a single node covers the query.
        """
        if lo >= hi:
            return True
        n = self._root
        while n is not None:
            if n.lo <= lo and hi <= n.hi:
                return True
            if n.left is not None and n.left.max_hi > lo:
                n = n.left
            elif n.lo <= lo:
                n = n.right
            else:
                return False
        return False

    def stab(self, lo: int, hi: int) -> List[Interval]:
        """All stored ranges overlapping ``[lo, hi)`` in address order."""
        out: List[Interval] = []
        self._stab(self._root, lo, hi, out)
        return out

    def _stab(self, n: Optional[_Node], lo: int, hi: int,
              out: List[Interval]) -> None:
        if n is None or lo >= hi:
            return
        if n.left is not None and n.left.max_hi > lo:
            self._stab(n.left, lo, hi, out)
        if n.lo < hi and lo < n.hi:
            out.append(Interval(n.lo, n.hi))
        if n.lo < hi:
            self._stab(n.right, lo, hi, out)

    # -- iteration / conversion -------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        yield from self._inorder(self._root)

    def _inorder(self, n: Optional[_Node]) -> Iterator[Interval]:
        if n is None:
            return
        yield from self._inorder(n.left)
        yield Interval(n.lo, n.hi)
        yield from self._inorder(n.right)

    def pairs(self) -> List[Tuple[int, int]]:
        return [(iv.lo, iv.hi) for iv in self]

    def to_set(self) -> IntervalSet:
        """Flatten into a normalized :class:`IntervalSet` (already disjoint)."""
        s = IntervalSet()
        for iv in self:
            s.add(iv.lo, iv.hi)
        return s

    # -- tree-tree operations (Algorithm 1 hot path) ----------------------------

    def intersects_tree(self, other: "IntervalTree") -> bool:
        """True when the two trees share at least one byte.

        Walks the smaller tree, stabbing the larger: :math:`O(m \\log n)` with
        early exit on the first hit.
        """
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        for iv in small:
            if large.overlaps(iv.lo, iv.hi):
                return True
        return False

    def intersection_tree(self, other: "IntervalTree") -> IntervalSet:
        """All bytes present in both trees, as a normalized set."""
        out = IntervalSet()
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        for iv in small:
            for hit in large.stab(iv.lo, iv.hi):
                cut = iv.intersect(hit)
                if cut is not None:
                    out.add(cut.lo, cut.hi)
        return out

    # -- validation (used by property tests) -------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural violation."""
        prev_hi = [None]

        def walk(n: Optional[_Node]) -> Tuple[int, int]:
            if n is None:
                return 0, -1
            lh, lmax = walk(n.left)
            assert n.lo < n.hi, "empty node range"
            if prev_hi[0] is not None:
                assert n.lo > prev_hi[0], "nodes overlap or are adjacent"
            prev_hi[0] = n.hi
            rh, rmax = walk(n.right)
            assert abs(lh - rh) <= 1, "AVL balance violated"
            h = 1 + max(lh, rh)
            mx = max(n.hi, lmax, rmax)
            assert n.height == h, "stale height"
            assert n.max_hi == mx, "stale max_hi"
            return h, mx

        walk(self._root)
