"""Taskgrind's Qthreads shim: FEB transfers as happens-before edges.

The "subtle extension" the paper anticipates (Section III-A-c): full/empty
bits are not fork/join synchronisation — they are point-to-point transfers.
The segment rule implemented here:

* ``writeEF``/``writeF`` ends the producer's current segment (release) and
  remembers it under ``(addr, generation)``;
* a consuming ``readFE``/``readFF`` ends the consumer's segment and starts a
  new one with an edge from the remembered producer segment (acquire);
* ``fork`` behaves like task creation: the pre-fork segment happens-before
  the child's first segment.

The FEB word's own 8-byte access is attributed *before* the split on the
producer side and *after* it on the consumer side, so the transfer itself is
never reported as a race.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.segments import SegmentBuilder, _TaskEntry
from repro.obs.tracer import get_tracer
from repro.qthreads.runtime import QTask, QthreadsObserver

_TRACER = get_tracer()


class QthreadsSegmentBuilder(SegmentBuilder):
    """Segment construction for the Qthreads runtime."""

    def __init__(self, machine, config=None) -> None:
        super().__init__(machine, config)
        self._fork_creation: Dict[int, object] = {}
        self._feb_release: Dict[Tuple[int, int], object] = {}

    def on_fork(self, parent: Optional[QTask], child: QTask,
                thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        creation = self._close(entry.segment, thread_id)
        cont = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(creation, cont)
        entry.segment = cont
        self._fork_creation[child.qid] = creation

    def on_task_begin(self, task: QTask, thread_id: int) -> None:
        seg = self._open(thread_id, task, "task", label_loc=task.create_loc)
        creation = self._fork_creation.get(task.qid)
        self.graph.add_edge(creation, seg)
        self._stack(thread_id).append(_TaskEntry(task=task, segment=seg))

    def on_task_end(self, task: QTask, thread_id: int) -> None:
        entry = self._stack(thread_id).pop()
        self._close(entry.segment, thread_id)

    def on_feb_fill(self, addr: int, generation: int,
                    thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        release = self._close(entry.segment, thread_id)
        seg = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(release, seg)
        entry.segment = seg
        self._feb_release[(addr, generation)] = release

    def on_feb_consume(self, addr: int, generation: int, thread_id: int,
                       drained: bool) -> None:
        entry = self.current_entry(thread_id)
        prior = self._close(entry.segment, thread_id)
        seg = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(prior, seg)
        self.graph.add_edge(self._feb_release.get((addr, generation)), seg)
        entry.segment = seg


class TaskgrindQthreadsShim(QthreadsObserver):
    """Forwards Qthreads events to the Taskgrind plugin via client requests."""

    def __init__(self, machine) -> None:
        self.machine = machine

    def _req(self, name: str, payload) -> None:
        if _TRACER.enabled:
            _TRACER.instant(f"shim.qthreads.{name}",
                            self.machine.scheduler.current_id(), cat="shim")
        self.machine.client_requests.request(name, payload)

    def on_fork(self, parent, child, thread_id) -> None:
        self._req("tg_qt_fork", (parent, child, thread_id))

    def on_task_begin(self, task, thread_id) -> None:
        self._req("tg_qt_task_begin", (task, thread_id))

    def on_task_end(self, task, thread_id) -> None:
        self._req("tg_qt_task_end", (task, thread_id))

    def on_feb_fill(self, addr, generation, thread_id) -> None:
        self._req("tg_qt_feb_fill", (addr, generation, thread_id))

    def on_feb_consume(self, addr, generation, thread_id, drained) -> None:
        self._req("tg_qt_feb_consume", (addr, generation, thread_id,
                                        drained))


def attach_qthreads(tool, qt_env) -> None:
    """Wire a TaskgrindTool to a Qthreads environment (after add_tool)."""
    machine = tool.machine
    builder = QthreadsSegmentBuilder(machine, tool.options.segment_model)
    tool.builder = builder
    req = machine.client_requests
    req.subscribe("tg_qt_fork", lambda p: builder.on_fork(*p))
    req.subscribe("tg_qt_task_begin", lambda p: builder.on_task_begin(*p))
    req.subscribe("tg_qt_task_end", lambda p: builder.on_task_end(*p))
    req.subscribe("tg_qt_feb_fill", lambda p: builder.on_feb_fill(*p))
    req.subscribe("tg_qt_feb_consume",
                  lambda p: builder.on_feb_consume(*p))
    qt_env.register(TaskgrindQthreadsShim(machine))
