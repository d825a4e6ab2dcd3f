"""Cost model: simulated seconds and bytes for the Table II / Fig. 4 harness.

The paper measures wall-clock time and RSS of real binaries on an
i5-12450H.  A Python simulation cannot reproduce absolute numbers, so the
harness reports *simulated* time and memory derived from mechanisms:

* **Time** — every guest operation (memory access element, task creation,
  sync op, allocation) charges a fixed op count to the executing thread's
  virtual clock.  An analysis tool multiplies the access charge by its
  per-access instrumentation factor and, for DBI tools, adds a one-time
  translation charge per symbol executed.  Valgrind-family tools additionally
  *serialize* the client (the big lock), so their makespan is the sum over
  threads rather than the max — exactly why the paper runs Taskgrind
  single-threaded in Fig. 4.
* **Memory** — the application footprint is the allocator high-water plus
  stacks, globals and TLS; each tool adds the bytes of the metadata it
  *actually built* during the run (shadow ranges for Archer, interval-tree
  nodes + segment records + retained-by-no-op-free blocks for Taskgrind,
  access history for ROMP).

Calibration constants below are chosen once so that the *reference* LULESH
point matches the paper's order of magnitude; everything else (the 10x/100x
slowdowns, 4x/6x memory, O(s^3) growth, crossovers) must emerge from the
mechanisms.  See EXPERIMENTS.md for paper-vs-measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Simulated "operations" executed per simulated second by one core.
#: Chosen so the uninstrumented LULESH -s 16 run lands near the paper's 0.01 s.
OPS_PER_SECOND = 1.16e9

#: Resident baseline of a bare process (code, libc, libomp arenas) — the
#: constant part of the paper's RSS numbers.
PROCESS_IMAGE_BYTES = 8_900_000

#: Per additional worker thread: touched stack pages + libomp thread state
#: (the paper's no-tool RSS grows 10 -> 15 MB from 1 to 4 threads).
PER_THREAD_RSS_BYTES = 1_600_000


@dataclass
class CostParams:
    """Per-operation op charges (application side, before tool factors)."""

    access_per_element: float = 4.0     # one load/store of <=8 bytes
    element_bytes: int = 8              # granularity of bulk interval accesses
    task_create: float = 400.0          # descriptor alloc + enqueue
    task_schedule: float = 150.0        # dequeue/steal + dispatch
    sync_op: float = 120.0              # barrier arrival, taskwait check, ...
    alloc_op: float = 250.0             # malloc/free bookkeeping
    call_op: float = 20.0               # guest function call (frame push/pop)
    compute_per_flop: float = 1.0       # workload arithmetic (LULESH physics)

    def access_ops(self, size: int) -> float:
        elems = max(1, (size + self.element_bytes - 1) // self.element_bytes)
        return self.access_per_element * elems


@dataclass
class ToolCost:
    """How a tool inflates time and contributes memory.

    ``access_factor`` multiplies the op charge of every *observed* access
    (compile-time tools do not pay for accesses they cannot see — nor do they
    detect races in them, which is the paper's core trade-off).
    ``translation_ops`` is charged once per (symbol, thread) a DBI tool
    executes, modeling JIT recompilation of code blocks.
    """

    access_factor: float = 1.0
    #: slowdown on *non-memory* instructions: ~1 for compile-time tools
    #: (native execution), 20-60 for DBI (JIT-translated emulation)
    compute_factor: float = 1.0
    translation_ops: float = 0.0
    serialize: bool = False             # Valgrind big lock
    bytes_per_shadow_range: int = 0
    bytes_per_tree_node: int = 64
    bytes_per_segment: int = 0
    #: when set, observed *non-atomic* accesses charge this factor instead
    #: of ``access_factor`` — the cheaper instrumented-access cost of a
    #: write-combining recorder; atomic ones keep ``access_factor``
    fast_access_factor: Optional[float] = None


class Clock:
    """Aggregates simulated time; per-thread when parallel, global when serialized."""

    def __init__(self, serialize: bool = False) -> None:
        self.serialize = serialize
        self.global_ops = 0.0
        self._per_thread: Dict[int, float] = {}

    def charge(self, thread, ops: float) -> None:
        """Charge ``ops`` to ``thread`` (a SimThread, or None pre-boot)."""
        if self.serialize:
            self.global_ops += ops
            if thread is not None:
                thread.vtime = self.global_ops
        elif thread is not None:
            thread.vtime += ops
            self._per_thread[thread.id] = thread.vtime
        else:
            self.global_ops += ops

    @property
    def makespan_ops(self) -> float:
        if self.serialize:
            return self.global_ops
        return max(self._per_thread.values(), default=0.0) + self.global_ops

    @property
    def seconds(self) -> float:
        return self.makespan_ops / OPS_PER_SECOND

    def per_thread_ops(self) -> Dict[int, float]:
        """Virtual clock per thread (empty when serialized)."""
        return dict(self._per_thread)


@dataclass
class MemoryMeter:
    """End-of-run footprint breakdown, in simulated bytes."""

    heap_high_water: int = 0
    retained_bytes: int = 0
    stack_bytes: int = 0
    globals_bytes: int = 0
    tls_bytes: int = 0
    thread_bytes: int = 0        # per-worker runtime state (peak team size)
    tool_bytes: int = 0

    @property
    def app_bytes(self) -> int:
        return (PROCESS_IMAGE_BYTES + self.heap_high_water +
                self.stack_bytes + self.globals_bytes + self.tls_bytes +
                self.thread_bytes)

    @property
    def total_bytes(self) -> int:
        return self.app_bytes + self.tool_bytes

    @property
    def total_mib(self) -> float:
        return self.total_bytes / (1 << 20)


class CostModel:
    """Run-wide accounting: op charges + footprint assembly."""

    def __init__(self, params: Optional[CostParams] = None,
                 tool_cost: Optional[ToolCost] = None) -> None:
        self.params = params or CostParams()
        self.tool_cost = tool_cost or ToolCost()
        self.clock = Clock(serialize=self.tool_cost.serialize)
        self._translated: set = set()
        # per-kind operation counts (plain ints on the charge paths; read
        # as one dict through :attr:`counters`)
        self.n_accesses = 0
        self.n_access_bytes = 0
        self.n_tasks = 0
        self.n_syncs = 0
        self.n_allocs = 0
        self.n_calls = 0
        #: attribution profiler mirror (``repro.obs.prof.Profiler``), bound
        #: by the machine only when profiling is enabled — every
        #: ``clock.charge`` below is mirrored so per-bucket op totals sum
        #: to ``vtime_ops`` exactly under the serialized clock
        self._prof = None

    @property
    def counters(self) -> Dict[str, int]:
        """Operations charged so far, by kind."""
        return {"accesses": self.n_accesses,
                "access_bytes": self.n_access_bytes, "tasks": self.n_tasks,
                "syncs": self.n_syncs, "allocs": self.n_allocs,
                "calls": self.n_calls}

    # -- time ------------------------------------------------------------

    def charge_access(self, thread, size: int, observed: bool,
                      atomic: bool = False) -> None:
        self.n_accesses += 1
        self.n_access_bytes += size
        ops = self.params.access_ops(size)
        if observed:
            factor = self.tool_cost.fast_access_factor
            if atomic or factor is None:
                factor = self.tool_cost.access_factor
            ops *= factor
        self.clock.charge(thread, ops)
        prof = self._prof
        if prof is not None:
            if not observed:
                default = "access.unobserved"
            elif atomic:
                default = "record.access.atomic"
            else:
                default = "record.access"
            prof.charge(getattr(thread, "id", -1),
                        prof.take_access_hint(default), ops)

    def charge_translation(self, thread, symbol_name: str) -> None:
        if self.tool_cost.translation_ops <= 0:
            return
        key = symbol_name if self.tool_cost.serialize else (
            symbol_name, getattr(thread, "id", -1))
        if key in self._translated:
            return
        self._translated.add(key)
        self.clock.charge(thread, self.tool_cost.translation_ops)
        if self._prof is not None:
            # the translated symbol IS the attribution frame: translation
            # cost belongs to the block, not to whoever reached it first
            self._prof.charge(getattr(thread, "id", -1), "translate",
                              self.tool_cost.translation_ops,
                              frame=symbol_name)

    def charge_task(self, thread) -> None:
        self.n_tasks += 1
        self.clock.charge(thread, self.params.task_create)
        if self._prof is not None:
            self._prof.charge(getattr(thread, "id", -1), "task.create",
                              self.params.task_create)

    def charge_schedule(self, thread) -> None:
        self.clock.charge(thread, self.params.task_schedule)
        if self._prof is not None:
            self._prof.charge(getattr(thread, "id", -1), "sched",
                              self.params.task_schedule)

    def charge_sync(self, thread) -> None:
        self.n_syncs += 1
        self.clock.charge(thread, self.params.sync_op)
        if self._prof is not None:
            self._prof.charge(getattr(thread, "id", -1), "sync",
                              self.params.sync_op)

    def charge_alloc(self, thread) -> None:
        self.n_allocs += 1
        self.clock.charge(thread, self.params.alloc_op)
        if self._prof is not None:
            self._prof.charge(getattr(thread, "id", -1), "alloc",
                              self.params.alloc_op)

    def charge_call(self, thread) -> None:
        self.n_calls += 1
        self.clock.charge(thread, self.params.call_op)
        if self._prof is not None:
            self._prof.charge(getattr(thread, "id", -1), "call",
                              self.params.call_op)

    def charge_compute(self, thread, flops: float) -> None:
        ops = (flops * self.params.compute_per_flop
               * self.tool_cost.compute_factor)
        self.clock.charge(thread, ops)
        if self._prof is not None:
            self._prof.charge(getattr(thread, "id", -1), "compute", ops)

    @property
    def seconds(self) -> float:
        return self.clock.seconds

    @property
    def vtime_ops(self) -> float:
        """Current virtual makespan in ops (the registry's vclock source)."""
        return self.clock.makespan_ops

    def stats(self) -> Dict:
        """The cost model's contribution to the ``--stats`` document."""
        return {
            "makespan_ops": self.clock.makespan_ops,
            "seconds": self.seconds,
            "serialize": self.clock.serialize,
            "translated_symbols": len(self._translated),
            "counters": self.counters,
            "per_thread_ops": {str(tid): ops for tid, ops
                               in sorted(self.clock.per_thread_ops().items())},
        }
