"""Taskgrind's built-in OMPT tool.

The paper (Section III-A): *"Taskgrind provides a built-in OMPT-tool that
forwards the OpenMP program state to the Taskgrind plugin via client
requests.  The OMPT-tool is automatically injected into the instrumented
program by Taskgrind."*

This module is that injected tool: an :class:`~repro.openmp.ompt.OmptObserver`
that translates every runtime event into a client request on the machine's
:class:`~repro.vex.client_requests.ClientRequestRouter`.  The
:class:`~repro.core.tool.TaskgrindTool` plugin subscribes to the ``tg_*``
request names — the same indirection the real tool uses, so the tests can
exercise the client-request machinery end to end.
"""

from __future__ import annotations

from repro.obs.tracer import get_tracer
from repro.openmp.ompt import OmptObserver, SyncKind

_TRACER = get_tracer()


class TaskgrindOmptShim(OmptObserver):
    """Forwards OMPT events to the Taskgrind plugin via client requests."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self._sched = machine.scheduler
        self._request = machine.client_requests.request

    def _req(self, name: str, payload) -> None:
        if _TRACER.enabled:
            _TRACER.instant(f"shim.ompt.{name}", self._tid(), cat="shim")
        self._request(name, payload)

    def _tid(self) -> int:
        return self._sched.current().id

    # -- parallel regions ---------------------------------------------------

    def on_parallel_begin(self, region, encountering_task) -> None:
        self._req("tg_parallel_begin",
                  (region, encountering_task, self._tid()))

    def on_parallel_end(self, region, encountering_task) -> None:
        self._req("tg_parallel_end",
                  (region, encountering_task, self._tid()))

    def on_implicit_task_begin(self, region, task) -> None:
        self._req("tg_implicit_begin", (region, task, self._tid()))

    def on_implicit_task_end(self, region, task) -> None:
        self._req("tg_implicit_end", (region, task, self._tid()))

    # -- explicit tasks ---------------------------------------------------------

    def on_task_create(self, task, parent) -> None:
        self._req("tg_task_create", (task, parent, self._tid()))

    def on_task_dependence_pair(self, pred, succ, dep) -> None:
        self._req("tg_task_dependence", (pred, succ, dep))

    def on_task_schedule_begin(self, task, thread_id) -> None:
        self._req("tg_task_begin", (task, thread_id))

    def on_task_schedule_end(self, task, thread_id, completed) -> None:
        self._req("tg_task_end", (task, thread_id, completed))

    def on_task_detach_fulfill(self, task, thread_id) -> None:
        self._req("tg_task_detach_fulfill", (task, thread_id))

    # -- synchronisation -----------------------------------------------------------

    def on_sync_region_begin(self, kind: SyncKind, task, thread_id) -> None:
        self._req("tg_sync_begin", (kind, task, thread_id))

    def on_sync_region_end(self, kind: SyncKind, task, thread_id) -> None:
        self._req("tg_sync_end", (kind, task, thread_id))

    # Taskgrind does not support mutexes (paper Section VI.b): the shim does
    # not even forward them.
