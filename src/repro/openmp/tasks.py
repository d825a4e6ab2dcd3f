"""Task descriptors and detach events.

A :class:`Task` is both the logical OpenMP task and its runtime descriptor.
The descriptor's *storage* is allocated from the runtime's private
:class:`~repro.machine.allocator.FastArena` — LLVM's ``__kmp_fast_allocate``
— and holds the firstprivate payload.  User code touches that storage in
*instrumented* context (the outlined task function reads/writes its privates
straight out of the descriptor, as LLVM-generated code does); the arena's
recycling of released descriptors is therefore visible to the tools and is
the mechanism behind the paper's remaining multi-thread TMB false positives.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.tracer import get_tracer
from repro.openmp.ompt import Dependence, TaskFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.openmp.runtime import OmpRuntime, ParallelRegion, Taskgroup

_TRACER = get_tracer()


class TaskState(enum.Enum):
    CREATED = "created"        # waiting on dependences
    READY = "ready"            # in some queue
    RUNNING = "running"
    SUSPENDED = "suspended"    # at a scheduling point (taskwait/taskgroup)
    DETACHED = "detached"      # body done, waiting for the detach event
    COMPLETED = "completed"


#: Byte layout of the firstprivate payload inside the descriptor.
PRIVATE_SLOT_BYTES = 8
DESCRIPTOR_HEADER_BYTES = 32       # flags/refcount/etc. (runtime-internal)


@functools.lru_cache(maxsize=None)
def _flag_traits(flags: TaskFlags) -> Tuple[bool, bool, bool, bool, bool]:
    """(implicit, included, undeferred, merged, final) of one flag set."""
    return (bool(flags & (TaskFlags.IMPLICIT | TaskFlags.INITIAL)),
            bool(flags & TaskFlags.INCLUDED),
            bool(flags & TaskFlags.UNDEFERRED),
            bool(flags & TaskFlags.MERGED),
            bool(flags & TaskFlags.FINAL))


class DetachEvent:
    """An ``omp_event_handle_t`` for ``detach(event)`` tasks."""

    def __init__(self, task: "Task") -> None:
        self.task = task
        self.fulfilled = False

    def fulfill(self) -> None:
        """Complete the detached task (callable from any thread/task)."""
        if self.fulfilled:
            return
        self.fulfilled = True
        if _TRACER.enabled:
            _TRACER.instant("task.detach_fulfill",
                            self.task.runtime._tid(), cat="task",
                            args={"task": self.task.tid,
                                  "label": self.task.label()})
        self.task.runtime._on_detach_fulfill(self.task)


@dataclass
class Task:
    """One OpenMP task (implicit or explicit) plus its descriptor."""

    runtime: "OmpRuntime"
    tid: int                                   # task id, creation order
    fn: Optional[Callable]                     # outlined body; None = implicit
    parent: Optional["Task"]
    flags: TaskFlags
    region: Optional["ParallelRegion"] = None
    deps: List[Dependence] = field(default_factory=list)
    symbol_name: str = "task"
    create_loc: Optional[object] = None        # SourceLocation of the pragma
    priority: int = 0
    #: user annotation: "semantically deferrable" (Taskgrind client request,
    #: the Table II LULESH annotation)
    annotated_deferrable: bool = False

    # descriptor storage (FastArena address; 0 for implicit/included tasks —
    # the runtime's included fast path passes privates synchronously and
    # allocates nothing)
    descriptor_addr: int = 0
    private_offsets: Dict[str, int] = field(default_factory=dict)
    private_values: Dict[str, object] = field(default_factory=dict)
    #: lazy (reference-style) captures: the task re-reads the original
    #: location at start, in the ``.omp.copyin`` helper (DRB100/101 modeling)
    lazy_sources: Dict[str, object] = field(default_factory=dict)

    # scheduling state
    state: TaskState = TaskState.CREATED
    dep_pending: int = 0
    exec_thread: int = -1
    create_thread: int = -1
    children_incomplete: int = 0
    taskgroup: Optional["Taskgroup"] = None
    detach_event: Optional[DetachEvent] = None
    successors: List["Task"] = field(default_factory=list)
    successor_deps: List[Dependence] = field(default_factory=list)
    mutexinoutset_addrs: List[int] = field(default_factory=list)

    # what the flags say, read on every event: the flags never change after
    # creation, so they are derived once (per distinct flag set, even)
    is_implicit: bool = field(init=False, repr=False)
    is_included: bool = field(init=False, repr=False)
    is_undeferred: bool = field(init=False, repr=False)
    is_merged: bool = field(init=False, repr=False)
    is_final: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        (self.is_implicit, self.is_included, self.is_undeferred,
         self.is_merged, self.is_final) = _flag_traits(self.flags)

    def __hash__(self) -> int:
        return self.tid

    def __eq__(self, other) -> bool:
        return self is other

    # -- convenience -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state == TaskState.COMPLETED

    def private_addr(self, name: str) -> int:
        """Descriptor address of firstprivate variable ``name``."""
        return self.descriptor_addr + DESCRIPTOR_HEADER_BYTES + \
            self.private_offsets[name]

    def label(self) -> str:
        loc = f" @ {self.create_loc}" if self.create_loc else ""
        kind = "implicit" if self.is_implicit else "explicit"
        return f"task#{self.tid} ({kind}{loc})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.label()} {self.state.value}>"
