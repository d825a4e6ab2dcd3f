"""O(1) happens-before index over the segment graph (DePa-style labels).

The bitmask reachability DP in :class:`repro.core.segments.SegmentGraph` is
exact for every DAG but costs O(n²/64) words and a full recompute whenever
an edge lands after the previous materialization.  For the fork-join subset
of OpenMP programs — tasks, taskwaits, taskgroups, parallel regions,
barriers — happens-before is answerable in O(1) from *order-maintenance
labels*, the construction of DePa (Westrick et al., arXiv:2204.14168) and of
the SP-order race detectors (Bender et al.; Utterback et al.,
arXiv:1901.00622).

Two total orders are maintained (:class:`repro.util.omlist.OrderList`):

* the **E order** ("English"): left-to-right depth-first order — a fork's
  task child precedes the continuation;
* the **H order** ("Hebrew"): right-to-left depth-first order — the
  continuation (and everything it ever does) precedes the task child.

For segments of a series-parallel graph the invariant is::

    a happens-before b   <=>   a <E b  and  a <H b
    a parallel with b    <=>   a <E b  xor  a <H b

Maintenance discipline — O(1) per event while the order lists have label
room between the neighbours involved; when a gap runs out the list
relabels globally in O(n) (:mod:`repro.util.omlist`; the count is
published as ``graph.hb_relabels``), so this is not amortized O(1):

* a **root** goes last in E and first in H (mutually-parallel roots end up
  on opposite sides of each order);
* a **fork child** is inserted immediately after the fork segment in E
  (later children stack closer to the fork, reversing their order) and
  immediately before the fork's *end marker* in H (later children land
  after earlier children's entire subtrees — markers are extra list nodes
  that never correspond to segments);
* any other new segment is placed **sequentially** after the source of its
  first incoming edge, in both orders;
* a later in-edge ``u -> v`` whose label order disagrees triggers a
  **join reposition**: while ``v`` has no outgoing edges it may be moved to
  immediately after its label-maximal predecessor in each order (this is
  how taskwait/taskgroup/barrier joins and the sequenced-task continuation
  edge are absorbed).

Shapes outside the fork-join fragment — task *dependences*,
``mutexinoutset`` serialization edges, ``detach`` completion nodes, or a
late in-edge to a segment that already has successors — cannot generally be
embedded in two orders.  The first such event marks the index **inexact**
and every query returns ``None``; callers (``SegmentGraph.ordered``) then
fall back to the bitmask DP, which remains the correctness oracle.  The
``checked`` mode of :class:`~repro.core.segments.SegmentGraph` cross-checks
every O(1) answer against the DP and is used by the property tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.util.omlist import OMNode, OrderList


class HbIndex:
    """Incrementally maintained two-order happens-before labels."""

    def __init__(self) -> None:
        self._e = OrderList()
        self._h = OrderList()
        #: segment id -> (E node, H node)
        self._pos: Dict[int, Tuple[OMNode, OMNode]] = {}
        #: fork segment id -> its H-order end marker
        self._marker: Dict[int, OMNode] = {}
        self._preds: Dict[int, List[int]] = {}
        self._out: Dict[int, int] = {}
        self.exact = True
        self.inexact_reason: Optional[str] = None
        self.queries = 0              # observability (bench counters)
        self.fallbacks = 0

    # -- maintenance ---------------------------------------------------------

    def mark_inexact(self, reason: str) -> None:
        """Permanently degrade to the bitmask fallback for this run."""
        if self.exact:
            self.exact = False
            self.inexact_reason = reason

    def place_root(self, sid: int) -> None:
        """A segment with no predecessors (a thread's serial strand)."""
        if sid in self._pos:
            return
        self._pos[sid] = (self._e.insert_last(), self._h.insert_first())
        self._preds[sid] = []

    def fork_child(self, fork_sid: int, child_sid: int) -> None:
        """Place ``child`` as a parallel branch forked off ``fork``.

        Call *before* the corresponding ``add_edge(fork, child)`` so the
        generic edge handler sees a consistent placement.  Both the task
        child and the continuation of a task-creating split are fork
        children; so are a team's implicit tasks (off the region fork
        segment) and the post-barrier segments (off the barrier join node).
        """
        if not self.exact:
            return
        fork_pos = self._pos.get(fork_sid)
        if fork_pos is None or child_sid in self._pos:
            self.mark_inexact("fork from unplaced segment")
            return
        fe, fh = fork_pos
        marker = self._marker.get(fork_sid)
        if marker is None:
            marker = self._marker[fork_sid] = self._h.insert_after(fh)
        self._pos[child_sid] = (self._e.insert_after(fe),
                                self._h.insert_before(marker))
        self._preds[child_sid] = []

    def on_edge(self, src_sid: int, dst_sid: int) -> None:
        """Observe one happens-before edge (called from ``add_edge``)."""
        if not self.exact:
            return
        src = self._pos.get(src_sid)
        if src is None:
            self.mark_inexact("edge from unplaced segment")
            return
        self._out[src_sid] = self._out.get(src_sid, 0) + 1
        dst = self._pos.get(dst_sid)
        if dst is None:
            # first in-edge: sequential placement after the source
            self._pos[dst_sid] = (self._e.insert_after(src[0]),
                                  self._h.insert_after(src[1]))
            self._preds[dst_sid] = [src_sid]
            return
        self._preds[dst_sid].append(src_sid)
        if src[0].label < dst[0].label and src[1].label < dst[1].label:
            return                      # already consistent
        if self._out.get(dst_sid, 0):
            # dst has successors placed relative to it: moving it would
            # strand them — not expressible incrementally
            self.mark_inexact("late in-edge to a segment with successors")
            return
        self._reposition_after_preds(dst_sid)

    def _reposition_after_preds(self, sid: int) -> None:
        """Move ``sid`` immediately after its label-maximal predecessor in
        each order (the join rule)."""
        e_node, h_node = self._pos[sid]
        preds = self._preds[sid]
        best_e = max((self._pos[p][0] for p in preds if p in self._pos),
                     key=lambda n: n.label, default=None)
        best_h = max((self._pos[p][1] for p in preds if p in self._pos),
                     key=lambda n: n.label, default=None)
        if best_e is not None and best_e.label > e_node.label:
            self._e.move_after(e_node, best_e)
        if best_h is not None and best_h.label > h_node.label:
            self._h.move_after(h_node, best_h)

    # -- queries -------------------------------------------------------------

    def placed(self, sid: int) -> bool:
        return sid in self._pos

    def happens_before_hint(self, a_sid: int, b_sid: int) -> Optional[bool]:
        """O(1) directional query, or ``None`` when the index cannot answer."""
        if not self.exact:
            return None
        pa = self._pos.get(a_sid)
        pb = self._pos.get(b_sid)
        if pa is None or pb is None:
            self.fallbacks += 1
            return None
        self.queries += 1
        return pa[0].label < pb[0].label and pa[1].label < pb[1].label

    def ordered_hint(self, a_sid: int, b_sid: int) -> Optional[bool]:
        """O(1) either-direction query, or ``None`` when unanswerable."""
        if not self.exact:
            return None
        pa = self._pos.get(a_sid)
        pb = self._pos.get(b_sid)
        if pa is None or pb is None:
            self.fallbacks += 1
            return None
        self.queries += 1
        if pa[0].label < pb[0].label:
            return pa[1].label < pb[1].label
        return pb[0].label < pa[0].label and pb[1].label < pa[1].label

    def label_arrays(self, n: int) -> Tuple[List[Optional[int]],
                                            List[Optional[int]]]:
        """Snapshot (E, H) labels into flat sid-indexed arrays.

        For query-heavy passes: two list indexings + comparisons per query
        instead of dict lookups and node dereferences.  The snapshot is only
        valid until the next insertion/relabel — callers
        (``SegmentGraph.prepare_queries``) invalidate it on any graph
        mutation.
        """
        e: List[Optional[int]] = [None] * n
        h: List[Optional[int]] = [None] * n
        for sid, (en, hn) in self._pos.items():
            if sid < n:
                e[sid] = en.label
                h[sid] = hn.label
        return e, h

    # -- accounting -----------------------------------------------------------

    @property
    def relabel_count(self) -> int:
        """Global relabels of the E and H order lists so far."""
        return self._e.relabel_count + self._h.relabel_count

    def memory_bytes(self, *, bytes_per_label: int = 48) -> int:
        """Simulated footprint: two list nodes + dict slots per segment."""
        return (len(self._e) + len(self._h)) * bytes_per_label
