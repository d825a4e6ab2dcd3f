"""Order-maintenance list: label-bisecting inserts + O(1) order queries.

The building block of constant-time series-parallel happens-before indexes
(Bender et al., "Two simplified algorithms for maintaining order in a
list"; used the same way by DePa, arXiv:2204.14168, and by SP-order race
detectors).  Each element carries an integer label; ``a`` precedes ``b`` iff
``a.label < b.label``.

Cost.  An insert bisects the label gap between its neighbours: O(1) while
the gap has room.  Neighbours start ``2**60`` apart, so about 60 inserts
into one spot exhaust that gap, and then :meth:`OrderList._relabel`
renumbers the *whole* list with the fixed stride — O(n) per event.  A
workload that keeps inserting at one spot relabels every ~60 inserts, so n
inserts cost O(n²) in the worst case; this is *not* the amortized bound of
Bender et al., whose relabel touches only a local density range.
``relabel_count`` counts the events (the stats document publishes the E+H
total as ``graph.hb_relabels``).  ROADMAP.md open item 2(b) replaces the
global relabel with the local one.

The happens-before index (:mod:`repro.core.hbindex`) keeps two of these
("English" and "Hebrew" orders) and answers ordering queries by label
comparison in both.
"""

from __future__ import annotations

from typing import Iterator, Optional

#: Initial label stride: leaves ~60 bisections between fresh neighbours.
_STRIDE = 1 << 60


class OMNode:
    """One element of an :class:`OrderList` (opaque to callers)."""

    __slots__ = ("label", "prev", "next")

    def __init__(self, label: int) -> None:
        self.label = label
        self.prev: Optional["OMNode"] = None
        self.next: Optional["OMNode"] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<OMNode {self.label}>"


class OrderList:
    """Doubly-linked list over labeled nodes with midpoint insertion."""

    __slots__ = ("_head", "_tail", "_size", "relabel_count")

    def __init__(self) -> None:
        self._head: Optional[OMNode] = None
        self._tail: Optional[OMNode] = None
        self._size = 0
        self.relabel_count = 0        # observability: global renumber events

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[OMNode]:
        n = self._head
        while n is not None:
            yield n
            n = n.next

    # -- insertion -----------------------------------------------------------

    def insert_first(self) -> OMNode:
        """New node at the very front of the order."""
        if self._head is None:
            node = OMNode(0)
            self._head = self._tail = node
        else:
            node = OMNode(self._head.label - _STRIDE)
            node.next = self._head
            self._head.prev = node
            self._head = node
        self._size += 1
        return node

    def insert_last(self) -> OMNode:
        """New node at the very back of the order."""
        if self._tail is None:
            return self.insert_first()
        node = OMNode(self._tail.label + _STRIDE)
        node.prev = self._tail
        self._tail.next = node
        self._tail = node
        self._size += 1
        return node

    def insert_after(self, ref: OMNode) -> OMNode:
        """New node immediately after ``ref`` (before anything previously
        inserted after it — the 'stacking' discipline SP-order relies on)."""
        nxt = ref.next
        if nxt is None:
            return self.insert_last()
        if nxt.label - ref.label < 2:
            self._relabel()
            nxt = ref.next
            assert nxt is not None
        node = OMNode((ref.label + nxt.label) // 2)
        node.prev, node.next = ref, nxt
        ref.next = node
        nxt.prev = node
        self._size += 1
        return node

    def insert_before(self, ref: OMNode) -> OMNode:
        """New node immediately before ``ref`` (after anything previously
        inserted before it — the mirror of :meth:`insert_after`)."""
        prv = ref.prev
        if prv is None:
            if self._head is ref:
                node = OMNode(ref.label - _STRIDE)
                node.next = ref
                ref.prev = node
                self._head = node
                self._size += 1
                return node
            raise ValueError("reference node not in list")
        if ref.label - prv.label < 2:
            self._relabel()
            prv = ref.prev
            assert prv is not None
        node = OMNode((prv.label + ref.label) // 2)
        node.prev, node.next = prv, ref
        prv.next = node
        ref.prev = node
        self._size += 1
        return node

    # -- removal / repositioning ---------------------------------------------

    def remove(self, node: OMNode) -> None:
        """Unlink ``node``; it must not be used as a reference afterwards."""
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = node.next = None
        self._size -= 1

    def move_after(self, node: OMNode, ref: OMNode) -> None:
        """Reposition ``node`` to immediately after ``ref`` in place.

        The node object keeps its identity (callers hold references to it);
        only its label and links change.
        """
        if ref is node or ref.next is node:
            return
        self.remove(node)
        nxt = ref.next
        if nxt is None:
            node.label = ref.label + _STRIDE
            node.prev = ref
            ref.next = node
            self._tail = node
        else:
            if nxt.label - ref.label < 2:
                self._relabel()
                nxt = ref.next
                assert nxt is not None
            node.label = (ref.label + nxt.label) // 2
            node.prev, node.next = ref, nxt
            ref.next = node
            nxt.prev = node
        self._size += 1

    # -- order query ---------------------------------------------------------

    @staticmethod
    def precedes(a: OMNode, b: OMNode) -> bool:
        return a.label < b.label

    # -- internals ------------------------------------------------------------

    def _relabel(self) -> None:
        """Renumber every node with a fresh stride: O(n), once per
        exhausted gap (see the module docstring)."""
        self.relabel_count += 1
        label = 0
        n = self._head
        while n is not None:
            n.label = label
            label += _STRIDE
            n = n.next

    def check_invariants(self) -> None:
        """Raise on any broken link or non-monotone labeling (tests)."""
        seen = 0
        prev = None
        n = self._head
        while n is not None:
            assert n.prev is prev, "broken prev link"
            if prev is not None:
                assert prev.label < n.label, "labels not strictly increasing"
            prev = n
            n = n.next
            seen += 1
        assert prev is self._tail, "broken tail"
        assert seen == self._size, "size out of sync"
