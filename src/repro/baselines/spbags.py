"""SP-bags (Nondeterminator, Feng & Leiserson 1997) for Cilk programs.

The paper's related work (Section VI-b): the Nondeterminator detects
determinacy races of Cilk programs *provably and efficiently* — but only
under the **serial-elision assumption**: the program is executed serially
(depth-first, children inline) and the algorithm reasons about what *could*
run in parallel.  Taskgrind has no such assumption (it analyzes the actual
parallel execution's segment graph); the A2 ablation bench compares the two.

Algorithm (classic SP-bags over a disjoint-set forest):

* when procedure ``F`` starts: ``S(F) = {F}``, ``P(F) = {}``;
* when a spawned child ``F'`` returns: ``P(F) ∪= S(F') ∪ P(F')``;
* at a ``sync`` in ``F``: ``S(F) ∪= P(F)``, ``P(F) = {}``;
* read of ``x`` by ``F``: race iff ``FIND(writer(x))`` is a P-bag;
  then ``reader(x) = F`` if ``FIND(reader(x))`` is an S-bag;
* write of ``x`` by ``F``: race iff ``FIND(reader(x))`` or
  ``FIND(writer(x))`` is a P-bag; then ``writer(x) = F``.

Shadow state is kept per byte range in an :class:`IntervalMap` (the
simulated accesses are dense intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.shadow import IntervalMap
from repro.cilk.runtime import CilkEnv, CilkFrame, CilkObserver
from repro.errors import ToolError
from repro.machine.cost import ToolCost
from repro.machine.debuginfo import SourceLocation
from repro.vex.tool import Tool


class _Bags:
    """Disjoint-set forest whose roots carry a bag kind ('S' or 'P')."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._rank: Dict[int, int] = {}
        self._kind: Dict[int, str] = {}
        #: the current S/P set representative per frame id
        self.s_of: Dict[int, int] = {}
        self.p_of: Dict[int, Optional[int]] = {}
        self._next_node = 0

    def _new_node(self, kind: str) -> int:
        node = self._next_node
        self._next_node += 1
        self._parent[node] = node
        self._rank[node] = 0
        self._kind[node] = kind
        return node

    def find(self, node: int) -> int:
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:          # path compression
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: int, b: int, kind: str) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self._kind[ra] = kind
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._kind[ra] = kind
        return ra

    # -- frame lifecycle ----------------------------------------------------

    def frame_start(self, fid: int) -> None:
        self.s_of[fid] = self._new_node("S")
        self.p_of[fid] = None

    def frame_node(self, fid: int) -> int:
        """The node identifying ``fid`` in shadow records (its S origin)."""
        return self.s_of[fid]

    def child_returned(self, parent_fid: int, child_fid: int) -> None:
        merged = self.s_of[child_fid]
        child_p = self.p_of[child_fid]
        if child_p is not None:
            merged = self.union(merged, child_p, "P")
        if self.p_of[parent_fid] is None:
            self._kind[self.find(merged)] = "P"
            self.p_of[parent_fid] = self.find(merged)
        else:
            self.p_of[parent_fid] = self.union(self.p_of[parent_fid],
                                               merged, "P")

    def sync(self, fid: int) -> None:
        if self.p_of[fid] is not None:
            self.s_of[fid] = self.union(self.s_of[fid], self.p_of[fid], "S")
            self.p_of[fid] = None

    def kind_of(self, node: int) -> str:
        return self._kind[self.find(node)]


@dataclass
class SpBagsRace:
    """One detected race."""

    lo: int
    hi: int
    kind: str                  # 'wr', 'rw', 'ww'
    loc: Optional[SourceLocation]

    def key(self) -> Tuple[int, str]:
        return (self.lo, self.kind)


@dataclass
class _Cell:
    reader: Optional[int] = None       # bag node of the last logged reader
    writer: Optional[int] = None
    reader_loc: Optional[SourceLocation] = None
    writer_loc: Optional[SourceLocation] = None

    def clone(self) -> "_Cell":
        return _Cell(self.reader, self.writer, self.reader_loc,
                     self.writer_loc)


class SpBagsTool(Tool, CilkObserver):
    """The Nondeterminator as a machine tool + Cilk observer."""

    name = "spbags"
    is_dbi = False                       # compile-time instrumentation
    cost = ToolCost(access_factor=6.0)   # the paper-era tools were light

    def __init__(self) -> None:
        super().__init__()
        self.bags = _Bags()
        self.shadow: IntervalMap[_Cell] = IntervalMap()
        self.races: List[SpBagsRace] = []
        self._current: List[CilkFrame] = []
        self._attached_env: Optional[CilkEnv] = None

    # -- wiring ---------------------------------------------------------------

    def attach_cilk(self, env: CilkEnv) -> None:
        if not env.serial_elision:
            raise ToolError(
                "SP-bags requires the serial elision (serial_elision=True)")
        env.register(self)
        self._attached_env = env

    # -- Cilk events ---------------------------------------------------------------

    def on_frame_begin(self, frame: CilkFrame, thread_id: int) -> None:
        self.bags.frame_start(frame.fid)
        self._current.append(frame)

    def on_frame_end(self, frame: CilkFrame, thread_id: int) -> None:
        self._current.pop()
        if frame.parent is not None:
            self.bags.child_returned(frame.parent.fid, frame.fid)

    def on_sync_begin(self, frame: CilkFrame, thread_id: int) -> None:
        self.bags.sync(frame.fid)

    # -- accesses --------------------------------------------------------------------

    def _frame_node(self) -> Optional[int]:
        if not self._current:
            return None
        return self.bags.frame_node(self._current[-1].fid)

    def on_access(self, thread_id: int, addr: int, size: int,
                  is_write: bool, symbol, loc, site, atomic: bool) -> None:
        node = self._frame_node()
        if node is None:
            return
        lo, hi = addr, addr + size

        def upd(cell: Optional[_Cell]) -> _Cell:
            cell = _Cell() if cell is None else cell.clone()
            if is_write:
                if cell.reader is not None and \
                        self.bags.kind_of(cell.reader) == "P":
                    self.races.append(SpBagsRace(lo, hi, "rw", loc))
                if cell.writer is not None and \
                        self.bags.kind_of(cell.writer) == "P":
                    self.races.append(SpBagsRace(lo, hi, "ww", loc))
                cell.writer = node
                cell.writer_loc = loc
            else:
                if cell.writer is not None and \
                        self.bags.kind_of(cell.writer) == "P":
                    self.races.append(SpBagsRace(lo, hi, "wr", loc))
                if cell.reader is None or \
                        self.bags.kind_of(cell.reader) == "S":
                    cell.reader = node
                    cell.reader_loc = loc
            return cell

        self.shadow.update(lo, hi, upd)

    # -- results ----------------------------------------------------------------------

    def finalize(self) -> List[SpBagsRace]:
        seen = set()
        out = []
        for race in self.races:
            if race.key() not in seen:
                seen.add(race.key())
                out.append(race)
        return out

    def memory_bytes(self, app_bytes: int = 0) -> int:
        return len(self.shadow) * 64 + self.bags._next_node * 24
