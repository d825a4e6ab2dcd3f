"""TaskSanitizer: segment-based detection with compile-time instrumentation.

Modeled from Matar & Unat (Euro-Par'18) as characterized by the paper:

* segment graph like Taskgrind's, but **no** ``inoutset``/``detach`` support
  (Section III-A: "TaskSanitizer supports mutexes but does not support the
  inoutset dependency type nor the detach clause, while Taskgrind is the
  opposite") and no modeling of the ``undeferred`` sequencing rule (the
  DRB122 false positive);
* **compile-time scope** (misses uninstrumented symbols) and a **Clang 8.x
  front-end**: programs using newer OpenMP constructs do not compile — the
  ``ncs`` cells of Table I (the paper: "indicates that the test does not
  compile with Clang 8.x");
* allocation-epoch coloring: its allocator interceptors give recycled heap
  addresses fresh identities, so memory recycling produces no false
  positives (TMB 1000).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.shadow import IntervalMap
from repro.core.analysis import RaceCandidate, find_races
from repro.core.segments import SegmentBuilder, SegmentModelConfig
from repro.errors import NoCompilerSupport
from repro.machine.cost import ToolCost
from repro.openmp.ompt import OmptObserver, SyncKind
from repro.vex.events import FreeEvent
from repro.vex.tool import Tool

#: Virtual-address stride separating allocation epochs (coloring).
EPOCH_STRIDE = 1 << 48

#: The modeled Clang front-end version.
CLANG_VERSION = 8


class _BuilderOmptShim(OmptObserver):
    """Feeds runtime events straight into a SegmentBuilder (no client
    requests: compile-time tools link their runtime directly).

    ``dep_scope`` selects how the tool matches task dependences:

    * ``"sibling"`` — trust the runtime's (correct, sibling-scoped) pairs;
    * ``"global"`` — match by address across *all* tasks, ignoring OpenMP's
      sibling rule: the modeled TaskSanitizer defect behind the DRB173/175
      false negatives (a non-sibling pair appears ordered because the
      addresses match);
    * ``"region"`` — match per parallel region: ROMP's variant, which still
      falsely orders the DRB173 uncle/nephew pair but not pairs living in
      different nested regions (DRB175).
    """

    def __init__(self, builder: SegmentBuilder, machine, *,
                 dep_scope: str = "sibling") -> None:
        self.builder = builder
        self.machine = machine
        self.dep_scope = dep_scope
        self._trackers: dict = {}

    def _tracker(self, task):
        from repro.openmp.deps import DependencyTracker
        key = None
        if self.dep_scope == "region":
            key = task.region.id if task.region is not None else None
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._trackers[key] = DependencyTracker()
        return tracker

    def _tid(self) -> int:
        return self.machine.scheduler.current_id()

    def on_parallel_begin(self, region, task) -> None:
        self.builder.on_parallel_begin(region, task, self._tid())

    def on_parallel_end(self, region, task) -> None:
        self.builder.on_parallel_end(region, task, self._tid())

    def on_implicit_task_begin(self, region, task) -> None:
        self.builder.on_implicit_task_begin(region, task, self._tid())

    def on_implicit_task_end(self, region, task) -> None:
        self.builder.on_implicit_task_end(region, task, self._tid())

    def on_task_create(self, task, parent) -> None:
        self.builder.on_task_create(task, parent, self._tid())

    def on_task_dependences(self, task, deps) -> None:
        if self.dep_scope != "sibling":
            for pred, dep in self._tracker(task).register(task, deps):
                self.builder.on_task_dependence_pair(pred, task, dep)

    def on_task_dependence_pair(self, pred, succ, dep) -> None:
        if self.dep_scope == "sibling":
            self.builder.on_task_dependence_pair(pred, succ, dep)

    def on_task_schedule_begin(self, task, thread_id) -> None:
        self.builder.on_task_schedule_begin(task, thread_id)

    def on_task_schedule_end(self, task, thread_id, completed) -> None:
        self.builder.on_task_schedule_end(task, thread_id, completed)

    def on_task_detach_fulfill(self, task, thread_id) -> None:
        self.builder.on_task_detach_fulfill(task, thread_id)

    def on_sync_region_begin(self, kind: SyncKind, task, thread_id) -> None:
        self.builder.on_sync_begin(kind, task, thread_id)

    def on_sync_region_end(self, kind: SyncKind, task, thread_id) -> None:
        self.builder.on_sync_end(kind, task, thread_id)


class TaskSanitizerTool(Tool):
    """TaskSanitizer as a machine-level tool."""

    name = "tasksanitizer"
    is_dbi = False
    cost = ToolCost(access_factor=18.0, serialize=False)

    SEGMENT_MODEL = SegmentModelConfig(
        honor_inoutset=False,
        honor_detach=False,
        honor_undeferred=False,
        honor_taskgroup=False,        # the DRB107/174 false positives
        honor_deferrable_annotation=False,
    )

    def __init__(self) -> None:
        super().__init__()
        self.builder: Optional[SegmentBuilder] = None
        self._epochs: IntervalMap[int] = IntervalMap()
        self.reports: List[RaceCandidate] = []

    # -- compiler gate -------------------------------------------------------

    def compile_check(self, program) -> None:
        min_clang = getattr(program, "min_clang", 8)
        if min_clang > CLANG_VERSION:
            raise NoCompilerSupport(
                self.name, f"requires Clang >= {min_clang} "
                f"(tool ships Clang {CLANG_VERSION})")

    # -- lifecycle --------------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        self.builder = SegmentBuilder(machine, self.SEGMENT_MODEL)

    def make_ompt_shim(self) -> _BuilderOmptShim:
        # address-global dependence matching: the DRB173/175 FN mechanism
        return _BuilderOmptShim(self.builder, self.machine,
                                dep_scope="global")

    # -- allocation-epoch coloring -------------------------------------------------

    def _virtualize(self, addr: int) -> int:
        epoch = self._epochs.get_point(addr) or 0
        return addr + epoch * EPOCH_STRIDE

    def on_free(self, event: FreeEvent) -> None:
        self._epochs.update(event.addr, event.addr + event.size,
                            lambda e: (e or 0) + 1)

    # -- accesses --------------------------------------------------------------------

    def on_access(self, thread_id: int, addr: int, size: int,
                  is_write: bool, symbol, loc, site, atomic: bool) -> None:
        self.builder.record_access(thread_id, self._virtualize(addr), size,
                                   is_write, loc)

    # -- analysis --------------------------------------------------------------------

    def finalize(self) -> List[RaceCandidate]:
        self.reports = find_races(self.builder.graph).candidates
        return self.reports

    def memory_bytes(self, app_bytes: int = 0) -> int:
        return self.builder.graph.memory_bytes()
