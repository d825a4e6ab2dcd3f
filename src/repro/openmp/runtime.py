"""The simulated OpenMP runtime core.

Implements fork/join parallel regions, explicit tasks with the full
dependence surface, task scheduling with per-thread deques and seeded work
stealing, barriers that execute outstanding tasks, taskwait/taskgroup,
``critical``/locks, and detachable tasks — over the deterministic simulated
threads of :mod:`repro.machine.threads`.

Modeled-from-LLVM behaviours (each load-bearing for the paper's evaluation):

* **Serial-team inclusion** — on a team of one thread every explicit task is
  *included*: executed immediately at the creation point, inside the
  creator's stack frame (llvm-project issue #89398, cited by the paper).
* **Descriptor recycling** — task descriptors (header + firstprivate payload)
  come from the runtime's :class:`~repro.machine.allocator.FastArena`
  (``__kmp_fast_allocate``), released at task completion and reused LIFO.
  Tool-level ``free`` replacement does not reach this pool.
* **Runtime opacity** — all internal bookkeeping memory traffic happens
  inside ``__kmp*`` symbols marked ``instrumented=False``: compile-time tools
  cannot see it, and Taskgrind drops it via its default ignore-list.
* **Tied-task scheduling constraint** — a thread suspended at ``taskwait``
  only executes descendants of the suspended task.
"""

from __future__ import annotations

import collections
import functools
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import RuntimeModelError
from repro.machine.program import Buffer, GuestContext
from repro.obs.tracer import get_tracer
from repro.openmp.deps import DependencyTracker
from repro.openmp.ompt import (DepKind, Dependence, OmptDispatcher, SyncKind, TaskFlags)
from repro.openmp.tasks import (DESCRIPTOR_HEADER_BYTES, PRIVATE_SLOT_BYTES,
                                DetachEvent, Task, TaskState)

RUNTIME_LIB = "libomp.so"

_TRACER = get_tracer()


@functools.lru_cache(maxsize=None)
def _explicit_flags(undeferred: bool, final: bool, included: bool,
                    untied: bool, mergeable: bool,
                    detachable: bool) -> TaskFlags:
    """The OMPT flags of an explicit task (one ``enum.Flag`` build per
    distinct combination, not per task)."""
    flags = TaskFlags.EXPLICIT
    if undeferred:
        flags |= TaskFlags.UNDEFERRED
    if final:
        flags |= TaskFlags.FINAL
    if included:
        flags |= TaskFlags.INCLUDED
    if untied:
        flags |= TaskFlags.UNTIED
    if mergeable:
        flags |= TaskFlags.MERGEABLE
        if undeferred or included:
            flags |= TaskFlags.MERGED
    if detachable:
        flags |= TaskFlags.DETACHABLE
    return flags


class Taskgroup:
    """An active ``taskgroup`` region: counts outstanding member tasks."""

    def __init__(self, owner: Task) -> None:
        self.owner = owner
        self.outstanding = 0
        self.members: List[Task] = []


class TeamBarrier:
    """Task-executing team barrier with generations."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.generation = 0
        self.arrived = 0


class ParallelRegion:
    """One dynamic instance of ``#pragma omp parallel``."""

    _next_id = 0

    def __init__(self, runtime: "OmpRuntime", size: int,
                 encountering_task: Task) -> None:
        self.id = ParallelRegion._next_id
        ParallelRegion._next_id += 1
        self.runtime = runtime
        self.size = size
        self.encountering_task = encountering_task
        self.barrier = TeamBarrier(size)
        self.member_threads: List[int] = []       # sim thread ids by member idx
        self.implicit_tasks: List[Optional[Task]] = [None] * size
        self.incomplete_tasks = 0                  # explicit tasks bound here
        self.single_winner: Dict[int, int] = {}    # single seq -> member idx
        self._single_seen: Dict[int, int] = {}     # member idx -> singles hit
        self.done_members = 0


class TaskView:
    """What an explicit task's body receives: private storage + detach event."""

    def __init__(self, runtime: "OmpRuntime", task: Task) -> None:
        self._runtime = runtime
        self.task = task

    def private(self, name: str) -> Buffer:
        """Firstprivate variable ``name`` as a Buffer over descriptor memory.

        Only deferred tasks have descriptor storage; included/undeferred
        tasks take the synchronous fast path (use :meth:`private_value`).
        """
        if not self.task.descriptor_addr:
            raise RuntimeModelError(
                f"{self.task.label()} has no descriptor (included fast path)")
        addr = self.task.private_addr(name)
        return Buffer(self._runtime.ctx, addr, PRIVATE_SLOT_BYTES,
                      name=f"{name}.private", elem=PRIVATE_SLOT_BYTES)

    def private_value(self, name: str) -> object:
        """The captured value (reads the private copy when it is in memory)."""
        if self.task.descriptor_addr:
            self.private(name).read()
        return self.task.private_values[name]

    @property
    def detach_event(self) -> Optional[DetachEvent]:
        return self.task.detach_event


class OmpRuntime:
    """The runtime instance bound to one guest program run."""

    #: named rng streams this runtime's scheduler consumes (work-stealing
    #: victim order).  The schedule recorder (repro.replay) snapshots the
    #: per-stream draw counts and the replayer cross-checks them: a replayed
    #: run must steal in exactly the recorded pattern.
    SCHED_STREAMS = ("omp.steal",)

    def __init__(self, ctx: GuestContext, *, max_threads: int = 4) -> None:
        self.ctx = ctx
        self.machine = ctx.machine
        self._sched = ctx.machine.scheduler
        self.max_threads = max_threads
        self.ompt = OmptDispatcher()
        # region ids are only used as within-run keys (builder fork/join
        # maps, barrier clock keys) but leak into ``.omp_outlined.rN``
        # symbol names; restart them per runtime so back-to-back runs in
        # one process produce identical symbols (and thus bit-identical
        # attribution profiles)
        ParallelRegion._next_id = 0
        self._next_task_id = 0
        self._deques: Dict[int, collections.deque] = {}
        self._task_stack: Dict[int, List[Task]] = {}
        self._locks: Dict[str, int] = {}            # lock name -> holder thread
        self._mutexinoutset_held: Dict[int, int] = {}   # addr -> task id
        self._regions: List[ParallelRegion] = []
        self._initial_task: Optional[Task] = None
        self._rt_addrs: Dict[str, int] = {}         # _rt_touch tag -> word

    # -- runtime-internal shared state ----------------------------------------
    #
    # Real runtimes constantly touch shared words (task deques, barrier
    # counters, lock words) from every thread.  These accesses happen in
    # ``__kmp*`` symbols compiled without instrumentation: compile-time tools
    # never see them, Taskgrind drops them via its default ignore-list — and
    # a *naive* DBI run without the ignore-list floods with exactly these
    # conflicts (the paper's Section IV-A motivation).

    def _rt_touch(self, tag: str) -> None:
        """Read-modify-write the runtime word ``__kmp_<tag>``."""
        addr = self._rt_addrs.get(tag)
        if addr is None:
            addr = self._rt_addrs[tag] = self.machine.global_var(
                f"__kmp_{tag}", 8)
        with self.ctx.function("__kmp_runtime_state", instrumented=False,
                               library=RUNTIME_LIB):
            self.ctx.read_mem(addr, 8)
            self.ctx.write_mem(addr, 8)

    # -- identity helpers ---------------------------------------------------

    def _tid(self) -> int:
        return self._sched.current().id

    def current_task(self) -> Task:
        tid = self._tid()
        stack = self._task_stack.get(tid)
        if stack:
            return stack[-1]
        return self.initial_task()

    def initial_task(self) -> Task:
        if self._initial_task is None:
            self._initial_task = Task(
                runtime=self, tid=self._new_task_id(), fn=None, parent=None,
                flags=TaskFlags.INITIAL, symbol_name="main")
            self._initial_task.state = TaskState.RUNNING
            self._initial_task.dep_tracker = DependencyTracker()  # type: ignore[attr-defined]
            self._initial_task.group_stack = []                   # type: ignore[attr-defined]
        return self._initial_task

    def _new_task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id - 1

    def current_region(self) -> Optional[ParallelRegion]:
        task = self.current_task()
        return task.region

    def thread_num(self) -> int:
        """``omp_get_thread_num()`` — member index within the current team."""
        region = self.current_region()
        if region is None:
            return 0
        return region.member_threads.index(self._tid())

    def num_threads(self) -> int:
        region = self.current_region()
        return region.size if region is not None else 1

    # -- parallel regions ----------------------------------------------------------

    def parallel(self, fn: Callable[[int], None],
                 num_threads: Optional[int] = None) -> ParallelRegion:
        """Run ``fn(member_index)`` on a team; implicit barrier at the end."""
        size = num_threads if num_threads is not None else self.max_threads
        if size < 1:
            raise RuntimeModelError(f"invalid team size {size}")
        encountering = self.current_task()
        region = ParallelRegion(self, size, encountering)
        self._regions.append(region)
        self.ompt.emit("on_parallel_begin", region, encountering)

        my_tid = self._tid()
        region.member_threads = [my_tid] + [-1] * (size - 1)
        workers = []
        for member in range(1, size):
            t = self.machine.new_thread(
                self._worker_entry(region, member, fn), name=f"omp.w{member}")
            region.member_threads[member] = t.id
            workers.append(t)
            self.ompt.emit("on_thread_begin", t.id)

        # the encountering thread is member 0
        self._implicit_body(region, 0, fn)

        self._sched.block_until(
            lambda: region.done_members == size, "parallel join")
        self.ompt.emit("on_parallel_end", region, encountering)
        return region

    def _worker_entry(self, region: ParallelRegion, member: int,
                      fn: Callable[[int], None]) -> Callable[[], None]:
        def entry() -> None:
            # wait until the encountering thread has registered every member
            self._sched.block_until(
                lambda: all(t >= 0 for t in region.member_threads),
                "team setup")
            self._implicit_body(region, member, fn)
            self.ompt.emit("on_thread_end", self._tid())
        return entry

    def _implicit_body(self, region: ParallelRegion, member: int,
                       fn: Callable[[int], None]) -> None:
        tid = self._tid()
        task = Task(runtime=self, tid=self._new_task_id(), fn=None,
                    parent=region.encountering_task,
                    flags=TaskFlags.IMPLICIT, region=region,
                    symbol_name=f".omp_outlined.r{region.id}")
        task.dep_tracker = DependencyTracker()      # type: ignore[attr-defined]
        task.group_stack = []                       # type: ignore[attr-defined]
        task.state = TaskState.RUNNING
        task.exec_thread = tid
        region.implicit_tasks[member] = task
        self._task_stack.setdefault(tid, []).append(task)
        self.ompt.emit("on_implicit_task_begin", region, task)
        with self.ctx.function(task.symbol_name, line=0):
            fn(member)
            self.barrier(implicit=True)
        self.ompt.emit("on_implicit_task_end", region, task)
        self._task_stack[tid].pop()
        task.state = TaskState.COMPLETED
        region.done_members += 1

    # -- explicit tasks ---------------------------------------------------------------

    def create_task(self, fn: Callable[[TaskView], None], *,
                    depend: Optional[Dict[str, Sequence]] = None,
                    firstprivate: Optional[Dict[str, object]] = None,
                    lazy_capture: Optional[Dict[str, Buffer]] = None,
                    if_: bool = True, final: bool = False,
                    mergeable: bool = False, untied: bool = False,
                    detachable: bool = False,
                    priority: int = 0, name: Optional[str] = None,
                    annotate_deferrable: bool = False) -> Task:
        """``#pragma omp task`` — create (and possibly inline-execute) a task."""
        creator = self.current_task()
        region = creator.region
        loc = self.ctx.current_location
        # parse (and validate) the depend clause before any bookkeeping so a
        # malformed clause cannot leave counters half-updated
        deps = self._parse_depend(depend)
        self.machine.cost.charge_task(self._sched.current())

        final = final or (creator.is_final and not creator.is_implicit)
        # LLVM executes every task included on a serial team
        included = final or region is None or region.size == 1
        flags = _explicit_flags(not if_, final, included, untied, mergeable,
                                detachable)

        task = Task(runtime=self, tid=self._new_task_id(), fn=fn,
                    parent=creator, flags=flags, region=region,
                    symbol_name=name or f".omp_task.{self._next_task_id - 1}",
                    create_loc=loc, priority=priority,
                    annotated_deferrable=annotate_deferrable)
        task.lazy_sources = dict(lazy_capture or {})
        task.dep_tracker = DependencyTracker()       # type: ignore[attr-defined]
        task.group_stack = []                        # type: ignore[attr-defined]
        task.create_thread = self._tid()
        self._rt_touch("task_counter")
        if detachable:
            task.detach_event = DetachEvent(task)

        # -- firstprivate capture: the *reads* of the originals happen in user
        # context at the pragma (by-value semantics); lazy captures are
        # re-read by the task itself at start instead.
        fp = firstprivate or {}
        off = 0
        for pname, src in fp.items():
            if isinstance(src, Buffer):
                task.private_values[pname] = src.read()
            else:
                task.private_values[pname] = src
            task.private_offsets[pname] = off
            off += PRIVATE_SLOT_BYTES

        deferred = if_ and not included
        if deferred:
            # Deferred tasks get a heap descriptor from the runtime's private
            # pool (``__kmp_fast_allocate`` — recycles even under a tool's
            # free replacement).  Included/undeferred tasks take LLVM's
            # synchronous fast path: no descriptor at all.
            with self.ctx.function("__kmpc_omp_task_alloc",
                                   instrumented=False, library=RUNTIME_LIB):
                size_needed = DESCRIPTOR_HEADER_BYTES + \
                    PRIVATE_SLOT_BYTES * max(1, len(fp))
                task.descriptor_addr = self.machine.fast_arena.alloc(
                    max(size_needed, 64), site=loc, thread=self._tid())

        # -- taskgroup membership (innermost active group of the creator)
        group = creator.group_stack[-1] if getattr(creator, "group_stack", None) \
            else creator.taskgroup
        task.taskgroup = group
        if group is not None:
            group.outstanding += 1
            group.members.append(task)

        # -- bookkeeping
        creator.children_incomplete += 1
        if region is not None:
            region.incomplete_tasks += 1

        # -- dependences (sibling-scoped: tracked on the *parent*)
        task.deps = deps
        if _TRACER.enabled:
            _TRACER.instant("task.create", task.create_thread, cat="task",
                            args={"task": task.tid, "label": task.label(),
                                  "deferred": deferred, "deps": len(deps)})
        self.ompt.emit("on_task_create", task, creator)
        if deps:
            self.ompt.emit("on_task_dependences", task, deps)
            preds = creator.dep_tracker.register(task, deps)  # type: ignore[attr-defined]
            for pred, dep in preds:
                self.ompt.emit("on_task_dependence_pair", pred, task, dep)
                if not pred.done:
                    task.dep_pending += 1
                    pred.successors.append(task)
                    pred.successor_deps.append(dep)

        if annotate_deferrable:
            # the paper's LULESH annotation: user code informs Taskgrind the
            # task is semantically deferrable even if LLVM serialized it
            self.ctx.client_request("taskgrind_deferrable", task)

        # -- dispatch
        if not deferred:
            self._wait_for_deps(task)
            self._execute_task(task)
        elif task.dep_pending == 0:
            self._enqueue(task, self._tid())
            self._sched.yield_point()     # let thieves steal
        # else: released when the last predecessor completes
        return task

    def _parse_depend(self, depend: Optional[Dict[str, Sequence]]
                      ) -> List[Dependence]:
        deps: List[Dependence] = []
        if not depend:
            return deps
        for kind_name, items in depend.items():
            kind = DepKind(kind_name)
            for item in items:
                if isinstance(item, Buffer):
                    deps.append(Dependence(kind, item.addr, item.size))
                elif isinstance(item, tuple):
                    deps.append(Dependence(kind, item[0], item[1]))
                else:
                    deps.append(Dependence(kind, int(item)))
        return deps

    def _wait_for_deps(self, task: Task) -> None:
        """Undeferred/included tasks must still respect their dependences."""
        while task.dep_pending > 0:
            other = self._find_work(descendant_of=None)
            if other is not None:
                self._execute_task(other)
            else:
                self._sched.block_until(
                    lambda: task.dep_pending == 0 or self._work_visible(),
                    f"deps of {task.label()}")

    # -- queues / stealing -----------------------------------------------------------

    def _enqueue(self, task: Task, tid: int) -> None:
        task.state = TaskState.READY
        self._rt_touch(f"deque.t{tid}")
        self._deques.setdefault(tid, collections.deque()).append(task)

    def _work_visible(self, descendant_of: Optional[Task] = None) -> bool:
        """True when some queued task is *eligible* for this thread.

        Eligibility (not mere queue occupancy) matters: a task blocked by a
        held ``mutexinoutset`` must not wake the waiter, or the waiter would
        livelock between the scheduler and an empty :meth:`_find_work`.
        """
        for dq in self._deques.values():
            for task in dq:
                if self._eligible(task, descendant_of):
                    return True
        return False

    def _mutex_free(self, task: Task) -> bool:
        return all(self._mutexinoutset_held.get(a, task.tid) == task.tid
                   for a in task.mutexinoutset_addrs)

    def _eligible(self, task: Task, descendant_of: Optional[Task]) -> bool:
        if not self._mutex_free(task):
            return False
        if descendant_of is None:
            return True
        p = task.parent
        while p is not None:
            if p is descendant_of:
                return True
            p = p.parent
        return False

    def _find_work(self, descendant_of: Optional[Task] = None) -> Optional[Task]:
        """Pop an eligible task: own deque LIFO first, then steal FIFO."""
        tid = self._tid()
        own = self._deques.get(tid)
        if own:
            for i in range(len(own) - 1, -1, -1):
                if self._eligible(own[i], descendant_of):
                    task = own[i]
                    del own[i]
                    self._rt_touch(f"deque.t{tid}")
                    return task
        victims = [t for t, dq in self._deques.items() if t != tid and dq]
        if victims:
            order = list(victims)
            self.machine.rng.shuffle("omp.steal", order)
            for victim in order:
                dq = self._deques[victim]
                for i in range(len(dq)):
                    if self._eligible(dq[i], descendant_of):
                        task = dq[i]
                        del dq[i]
                        self._rt_touch(f"deque.t{victim}")
                        return task
        return None

    # -- execution -----------------------------------------------------------------------

    def _execute_task(self, task: Task) -> None:
        tid = self._tid()
        self.machine.cost.charge_schedule(self._sched.current())
        task.state = TaskState.RUNNING
        task.exec_thread = tid
        for addr in task.mutexinoutset_addrs:
            self._mutexinoutset_held[addr] = task.tid
            # the mutual exclusion is a real lock inside the runtime; TSan's
            # interceptors (Archer) see it as a mutex
            self.ompt.emit("on_mutex_acquired", f"mutexinoutset:{addr:#x}",
                           tid)
        self._task_stack.setdefault(tid, []).append(task)
        self.ompt.emit("on_task_schedule_begin", task, tid)
        loc = task.create_loc
        with self.ctx.function(task.symbol_name,
                               file=loc.file if loc else self.ctx.source_file,
                               line=loc.line if loc else 0):
            # Prologue register spills: real outlined functions write their
            # frame before any user statement.  Sanitizer instrumentation
            # never covers spill slots (compile-time tools are blind), but
            # DBI sees every one of them — with frame reuse this is the
            # Section IV-D false-positive source at scale.
            tctx = self.machine.context(tid)
            spill = tctx.stack.alloca(32, "spill")      # in the task frame
            with self.ctx.function(".omp_task_prologue", instrumented=False):
                self.ctx.write_mem(spill, 32)
            if task.descriptor_addr and task.private_offsets:
                # The outlined prologue copies the firstprivate payload into
                # the descriptor via libc memcpy: invisible to compile-time
                # tools, *visible* to DBI tools — and ``memcpy`` is not on
                # Taskgrind's ``__kmp*`` ignore-list, so descriptor recycling
                # surfaces there (the paper's residual multi-thread FPs).
                with self.ctx.function("memcpy", instrumented=False,
                                       library="libc.so.6"):
                    for pname in task.private_offsets:
                        self.ctx.write_mem(task.private_addr(pname),
                                           PRIVATE_SLOT_BYTES)
            if task.lazy_sources:
                # Reference-style capture lowering: the task re-reads the
                # original location at start (DRB100/101).  Emitted in a
                # dedicated helper symbol so ROMP's runtime integration can
                # reclassify it.
                with self.ctx.function(".omp.copyin", instrumented=True):
                    for src in task.lazy_sources.values():
                        src.read()
            if task.fn is not None:
                task.fn(TaskView(self, task))
        self._task_stack[tid].pop()
        for addr in task.mutexinoutset_addrs:
            if self._mutexinoutset_held.get(addr) == task.tid:
                del self._mutexinoutset_held[addr]
                self.ompt.emit("on_mutex_released",
                               f"mutexinoutset:{addr:#x}", tid)
        if (task.detach_event is not None
                and not task.detach_event.fulfilled):
            task.state = TaskState.DETACHED
            self.ompt.emit("on_task_schedule_end", task, tid, False)
            self._sched.yield_point()
            return
        self._complete_task(task)
        # task completion is a task scheduling point: give the scheduler a
        # chance to run another thread (e.g. a thief picking up a successor)
        self._sched.yield_point()

    def _complete_task(self, task: Task) -> None:
        tid = self._tid()
        self.ompt.emit("on_task_schedule_end", task, tid, True)
        task.state = TaskState.COMPLETED
        if _TRACER.enabled:
            _TRACER.instant("task.complete", tid, cat="task",
                            args={"task": task.tid, "label": task.label()})
        # release the descriptor back to the fast arena (recycles even under
        # Taskgrind's no-op free — the paper's future-work limitation)
        if task.descriptor_addr:
            with self.ctx.function("__kmp_fast_free", instrumented=False,
                                   library=RUNTIME_LIB):
                self.machine.fast_arena.release(task.descriptor_addr)
        if task.parent is not None:
            task.parent.children_incomplete -= 1
        if task.taskgroup is not None:
            task.taskgroup.outstanding -= 1
        if task.region is not None and not task.is_implicit:
            task.region.incomplete_tasks -= 1
        for succ in task.successors:
            succ.dep_pending -= 1
            if succ.dep_pending == 0 and succ.state == TaskState.CREATED:
                self._enqueue(succ, tid)

    def _on_detach_fulfill(self, task: Task) -> None:
        tid = self._tid()
        self.ompt.emit("on_task_detach_fulfill", task, tid)
        if task.state == TaskState.DETACHED:
            self._complete_task(task)
        # if still RUNNING, completion happens normally at body end

    # -- synchronisation -------------------------------------------------------------------

    def taskwait(self) -> None:
        """``#pragma omp taskwait`` — wait for the current task's children."""
        task = self.current_task()
        tid = self._tid()
        self.machine.cost.charge_sync(self._sched.current())
        if _TRACER.enabled:
            _TRACER.instant("sync.taskwait", tid, cat="sync",
                            args={"task": task.label(),
                                  "children": task.children_incomplete})
        self.ompt.emit("on_sync_region_begin", SyncKind.TASKWAIT, task, tid)
        while task.children_incomplete > 0:
            # tied-task scheduling constraint: descendants only
            other = self._find_work(descendant_of=task)
            if other is not None:
                self._execute_task(other)
            else:
                self._sched.block_until(
                    lambda: task.children_incomplete == 0
                    or self._work_visible(task),
                    f"taskwait in {task.label()}")
        self.ompt.emit("on_sync_region_end", SyncKind.TASKWAIT, task, tid)

    def taskgroup(self, body: Callable[[], None]) -> None:
        """``#pragma omp taskgroup { body() }``."""
        task = self.current_task()
        tid = self._tid()
        group = Taskgroup(task)
        task.group_stack.append(group)           # type: ignore[attr-defined]
        self.machine.cost.charge_sync(self._sched.current())
        if _TRACER.enabled:
            _TRACER.instant("sync.taskgroup", tid, cat="sync",
                            args={"task": task.label()})
        self.ompt.emit("on_sync_region_begin", SyncKind.TASKGROUP, task, tid)
        try:
            body()
        finally:
            task.group_stack.pop()               # type: ignore[attr-defined]
            while group.outstanding > 0:
                other = self._find_work(descendant_of=task)
                if other is not None:
                    self._execute_task(other)
                else:
                    self._sched.block_until(
                        lambda: group.outstanding == 0
                        or self._work_visible(task),
                        f"taskgroup in {task.label()}")
            self.ompt.emit("on_sync_region_end", SyncKind.TASKGROUP, task, tid)

    def barrier(self, implicit: bool = False) -> None:
        """Team barrier; executes outstanding tasks while waiting."""
        region = self.current_region()
        task = self.current_task()
        tid = self._tid()
        kind = SyncKind.BARRIER_IMPLICIT if implicit else SyncKind.BARRIER
        self.machine.cost.charge_sync(self._sched.current())
        if _TRACER.enabled:
            _TRACER.instant("sync.barrier", tid, cat="sync",
                            args={"implicit": implicit,
                                  "team": region.size if region else 1})
        self.ompt.emit("on_sync_region_begin", kind, task, tid)
        if region is None or region.size == 1:
            # serial team: just drain any remaining tasks
            while True:
                other = self._find_work()
                if other is None:
                    break
                self._execute_task(other)
            self.ompt.emit("on_sync_region_end", kind, task, tid)
            return

        bar = region.barrier
        my_gen = bar.generation
        self._rt_touch(f"barrier.r{region.id}")
        bar.arrived += 1
        while True:
            if bar.generation > my_gen:
                break
            if bar.arrived == bar.size and region.incomplete_tasks == 0:
                # last observer releases everyone
                bar.generation += 1
                bar.arrived = 0
                break
            other = self._find_work()
            if other is not None:
                bar.arrived -= 1
                self._execute_task(other)
                bar.arrived += 1
                continue
            self._sched.block_until(
                lambda: bar.generation > my_gen
                or (bar.arrived == bar.size and region.incomplete_tasks == 0)
                or self._work_visible(),
                f"barrier region {region.id}")
        self.ompt.emit("on_sync_region_end", kind, task, tid)

    # -- worksharing ----------------------------------------------------------------------

    def single(self, body: Callable[[], None], *, nowait: bool = False) -> bool:
        """``#pragma omp single`` — first arriver executes; barrier unless nowait."""
        region = self.current_region()
        if region is None:
            body()
            return True
        member = self.thread_num()
        seq = region._single_seen.get(member, 0)
        region._single_seen[member] = seq + 1
        winner = region.single_winner.setdefault(seq, member)
        executed = winner == member
        if executed:
            body()
        if not nowait:
            self.barrier()
        return executed

    def master(self, body: Callable[[], None]) -> bool:
        """``#pragma omp master`` — member 0 only, no barrier."""
        if self.thread_num() == 0:
            body()
            return True
        return False

    def static_range(self, lo: int, hi: int) -> range:
        """``#pragma omp for schedule(static)`` — this thread's block."""
        region = self.current_region()
        n = region.size if region else 1
        me = self.thread_num()
        total = hi - lo
        chunk = (total + n - 1) // n
        start = lo + me * chunk
        return range(start, min(start + chunk, hi))

    # -- mutual exclusion ------------------------------------------------------------------

    def lock_acquire(self, name: str) -> None:
        tid = self._tid()
        self.machine.cost.charge_sync(self._sched.current())
        self._sched.block_until(
            lambda: name not in self._locks, f"lock {name}")
        self._locks[name] = tid
        self._rt_touch(f"lock.{name}")
        self.ompt.emit("on_mutex_acquired", name, tid)

    def lock_release(self, name: str) -> None:
        tid = self._tid()
        if self._locks.get(name) != tid:
            raise RuntimeModelError(f"unlock of {name} by non-owner")
        del self._locks[name]
        self.ompt.emit("on_mutex_released", name, tid)
