"""Client requests: the guest-to-tool side channel.

Valgrind client requests let the instrumented program (or code injected into
it, like Taskgrind's built-in OMPT tool) hand structured information to the
tool plugin.  Here a request is a ``(name, payload)`` pair; the router
dispatches it to every registered tool that handles the name.

The requests the shims send: :mod:`repro.core.ompt_shim` the OpenMP
``tg_*`` names, :mod:`repro.core.cilk_shim` the ``tg_cilk_*`` ones and
:mod:`repro.core.qthreads_shim` the ``tg_qt_*`` ones.  The OpenMP runtime
sends ``taskgrind_deferrable``, and
:class:`~repro.machine.program.GuestContext` sends ``tg_static_site``.
``tid`` is the issuing simulated thread.

================================  ============================================
name                              payload
================================  ============================================
``tg_parallel_begin``/``_end``    ``(region, encountering_task, tid)``
``tg_implicit_begin``/``_end``    ``(region, implicit_task, tid)``
``tg_task_create``                ``(task, parent, tid)``
``tg_task_dependence``            ``(pred, succ, dependence)``
``tg_task_begin``                 ``(task, tid)``
``tg_task_end``                   ``(task, tid, completed)``
``tg_task_detach_fulfill``        ``(task, tid)``
``tg_sync_begin``/``_end``        ``(sync_kind, task, tid)``
``tg_cilk_spawn``                 ``(parent_frame, child_frame, tid)``
``tg_cilk_frame_begin``/``_end``  ``(frame, tid)``
``tg_cilk_sync_begin``/``_end``   ``(frame, tid)``
``tg_qt_fork``                    ``(parent, child, tid)``
``tg_qt_task_begin``/``_end``     ``(task, tid)``
``tg_qt_feb_fill``                ``(addr, generation, tid)``
``tg_qt_feb_consume``             ``(addr, generation, tid, drained)``
``taskgrind_deferrable``          the task the user annotated as
                                  semantically deferrable (Table II)
``tg_static_site``                ``(name, class, symbol, file, line)`` of a
                                  ``private=True`` declaration; answered with
                                  the elision token, or ``None``
================================  ============================================
"""

from __future__ import annotations

from typing import Dict, List


class ClientRequestRouter:
    """Dispatches ``(name, payload)`` requests to subscribed tools."""

    def __init__(self) -> None:
        self._handlers: Dict[str, List] = {}
        self.request_count = 0

    def subscribe(self, name: str, handler) -> None:
        self._handlers.setdefault(name, []).append(handler)

    def request(self, name: str, payload=None):
        """Issue a client request; returns the last non-None handler result."""
        self.request_count += 1
        result = None
        for handler in self._handlers.get(name, ()):
            r = handler(payload)
            if r is not None:
                result = r
        return result
