"""Taskgrind's Cilk shim: segment graph from spawn/sync events.

The paper's Section III-A-b: Cilk support is work-in-progress in the real
tool (the Cheetah runtime makes the integration hard).  Against the
*simulated* Cilk runtime the mapping is the textbook series-parallel one:

* ``spawn`` splits the parent's segment (pre-spawn accesses happen-before
  the child) and the continuation runs concurrently with the child;
* ``sync`` joins every outstanding child's final segment into the parent's
  next segment;
* the whole program is one parallel region (the paper's Cilk assumption for
  the Eq. (1) rule).

:class:`CilkSegmentBuilder` reuses the generic segment/graph machinery of
:mod:`repro.core.segments`; :class:`TaskgrindCilkShim` adapts it to the
:class:`repro.cilk.runtime.CilkObserver` interface, forwarding through the
client-request router exactly like the OMPT shim does.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cilk.runtime import CilkFrame, CilkObserver
from repro.core.segments import SegmentBuilder, _TaskEntry
from repro.obs.tracer import get_tracer

_TRACER = get_tracer()


class CilkSegmentBuilder(SegmentBuilder):
    """Series-parallel segment construction for the Cilk runtime."""

    def __init__(self, machine, config=None) -> None:
        super().__init__(machine, config)
        self._children: Dict[int, List[CilkFrame]] = {}
        self._frame_creation: Dict[int, object] = {}
        self._sync_prior: Dict[int, object] = {}

    # -- events ---------------------------------------------------------------

    def on_spawn(self, parent: CilkFrame, child: CilkFrame,
                 thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        creation = self._close(entry.segment, thread_id)
        cont = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(creation, cont)
        entry.segment = cont
        self._frame_creation[child.fid] = creation
        self._children.setdefault(parent.fid, []).append(child)

    def on_frame_begin(self, frame: CilkFrame, thread_id: int) -> None:
        seg = self._open(thread_id, frame, "task",
                         label_loc=frame.create_loc)
        creation = self._frame_creation.get(frame.fid)
        self.graph.add_edge(creation, seg)
        self._stack(thread_id).append(_TaskEntry(task=frame, segment=seg))

    def on_frame_end(self, frame: CilkFrame, thread_id: int) -> None:
        entry = self._stack(thread_id).pop()
        final = self._close(entry.segment, thread_id)
        self._frame_creation[("final", frame.fid)] = final

    def on_sync_begin(self, frame: CilkFrame, thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        self._sync_prior[frame.fid] = self._close(entry.segment, thread_id)

    def on_sync_end(self, frame: CilkFrame, thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        seg = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(self._sync_prior.pop(frame.fid, None), seg)
        for child in self._children.get(frame.fid, ()):
            self.graph.add_edge(
                self._frame_creation.get(("final", child.fid)), seg)
        entry.segment = seg


class TaskgrindCilkShim(CilkObserver):
    """Forwards Cilk runtime events to the Taskgrind plugin."""

    def __init__(self, machine) -> None:
        self.machine = machine

    def _req(self, name: str, payload) -> None:
        if _TRACER.enabled:
            _TRACER.instant(f"shim.cilk.{name}",
                            self.machine.scheduler.current_id(), cat="shim")
        self.machine.client_requests.request(name, payload)

    def on_spawn(self, parent, child, thread_id) -> None:
        self._req("tg_cilk_spawn", (parent, child, thread_id))

    def on_frame_begin(self, frame, thread_id) -> None:
        self._req("tg_cilk_frame_begin", (frame, thread_id))

    def on_frame_end(self, frame, thread_id) -> None:
        self._req("tg_cilk_frame_end", (frame, thread_id))

    def on_sync_begin(self, frame, thread_id) -> None:
        self._req("tg_cilk_sync_begin", (frame, thread_id))

    def on_sync_end(self, frame, thread_id) -> None:
        self._req("tg_cilk_sync_end", (frame, thread_id))


def attach_cilk(tool, cilk_env) -> None:
    """Wire a TaskgrindTool to a Cilk environment.

    Replaces the tool's OpenMP segment builder with a Cilk one and registers
    the shim on the runtime — call after ``machine.add_tool(tool)``.
    """
    machine = tool.machine
    builder = CilkSegmentBuilder(machine, tool.options.segment_model)
    tool.builder = builder
    req = machine.client_requests
    req.subscribe("tg_cilk_spawn", lambda p: builder.on_spawn(*p))
    req.subscribe("tg_cilk_frame_begin",
                  lambda p: builder.on_frame_begin(*p))
    req.subscribe("tg_cilk_frame_end", lambda p: builder.on_frame_end(*p))
    req.subscribe("tg_cilk_sync_begin", lambda p: builder.on_sync_begin(*p))
    req.subscribe("tg_cilk_sync_end", lambda p: builder.on_sync_end(*p))
    cilk_env.register(TaskgrindCilkShim(machine))
