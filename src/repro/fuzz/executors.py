"""Render a fuzz program onto the simulated runtimes and run Taskgrind.

One executor per family group:

* ``sp``/``tasks``/``deps``/``barrier`` → the OpenMP runtime (tasks through
  ``env.task`` with the deferrable annotation, dependences through the
  ``depend`` clause, barriers through a real parallel region);
* ``feb`` → the Qthreads runtime (forked qtasks + full/empty-bit words).

The executor owns the address map: it remembers where the shared arena and
the FEB words landed so :func:`normalize` can fold a tool's byte-range
reports back into logical slot names (``s3``, ``feb1``) — the common
currency of the differential oracle.  Ranges that map to nothing on the
shared surface (TLS blocks, stack frames, recycled scratch allocations,
runtime internals) are *noise*: a correctly suppressing Taskgrind never
reports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Mapping, Optional, Tuple

from repro.core.suppress import SuppressionConfig
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.errors import GuestCrash, OutOfMemory, SimDeadlock
from repro.fuzz.spec import FuzzProgram
from repro.machine.machine import Machine

SLOT_BYTES = 8
SCRATCH_BYTES = 16


_SUPPRESSION_KEYS = frozenset(f.name for f in fields(SuppressionConfig))
_OPTION_KEYS = frozenset(f.name for f in fields(TaskgrindOptions))
#: the fields that hold a flag: a JSON ``"no"`` would be truthy
_BOOL_KEYS = frozenset(f.name for cls in (SuppressionConfig, TaskgrindOptions)
                       for f in fields(cls) if isinstance(f.default, bool))
#: keys reproducers written before the analysis kept one path may carry
#: (the kernel and the mode): they load, and select nothing
RETIRED_OPTION_KEYS = frozenset({"analysis_kernel", "analysis"})


def check_options(options: Mapping[str, object]) -> None:
    """Raise ``ValueError`` naming the first key that is neither a
    :class:`SuppressionConfig` nor a :class:`TaskgrindOptions` field, nor
    one of :data:`RETIRED_OPTION_KEYS`, or a flag whose value is not a
    bool."""
    for key, value in options.items():
        if key not in _SUPPRESSION_KEYS and key not in _OPTION_KEYS \
                and key not in RETIRED_OPTION_KEYS:
            raise ValueError(f"unknown option {key!r}: neither a "
                             "SuppressionConfig nor a TaskgrindOptions field")
        if key in _BOOL_KEYS and not isinstance(value, bool):
            raise ValueError(f"option {key!r} must be true or false, "
                             f"not {value!r}")


def fuzz_options(**overrides) -> TaskgrindOptions:
    """Taskgrind options for fuzzing: the real analysis, not the modeled
    Table II lock-up artifact (which is a reproduction fidelity feature,
    not behaviour under test)."""
    check_options(overrides)
    opts = TaskgrindOptions(model_multithread_lockup=False)
    for key, value in overrides.items():
        if key in _SUPPRESSION_KEYS:
            setattr(opts.suppression, key, value)
        elif key in _OPTION_KEYS:
            setattr(opts, key, value)
    return opts


@dataclass
class RunOutcome:
    """One (program, schedule seed) Taskgrind run, normalized."""

    schedule_seed: int
    slots: frozenset = frozenset()        # racy shared objects ("s3", "feb1")
    noise: Tuple[str, ...] = ()           # report ranges off the shared surface
    report_count: int = 0
    crashed: str = ""                     # exception class name when nonempty

    @property
    def ok(self) -> bool:
        return not self.crashed

    def signature(self) -> Tuple:
        """What cross-schedule determinism is judged on.

        Noise is excluded: off-surface report *addresses* legitimately vary
        with allocation order across schedules, and their presence is
        already flagged by the ``suppression`` divergence class.
        """
        return (self.crashed, self.slots)


@dataclass
class _AddrMap:
    """Logical-object layout of one run."""

    ranges: List[Tuple[int, int, str]] = field(default_factory=list)

    def add(self, lo: int, hi: int, key: str) -> None:
        self.ranges.append((lo, hi, key))

    def add_buffer(self, buf, key_prefix: str, count: int) -> None:
        for i in range(count):
            lo = buf.addr + i * SLOT_BYTES
            self.add(lo, lo + SLOT_BYTES, f"{key_prefix}{i}")


def normalize(reports, addr_map: _AddrMap) -> Tuple[frozenset, Tuple[str, ...]]:
    """Fold byte-range reports into (racy objects, off-surface noise)."""
    keys = set()
    noise = []
    for report in reports:
        for lo, hi in report.ranges.pairs():
            matched = False
            for mlo, mhi, key in addr_map.ranges:
                if lo < mhi and hi > mlo:
                    keys.add(key)
                    matched = True
            if not matched:
                noise.append(f"{lo:#x}+{hi - lo}")
    return frozenset(keys), tuple(sorted(set(noise)))


def run_taskgrind(program: FuzzProgram, *, schedule_seed: int,
                  options: Optional[TaskgrindOptions] = None) -> RunOutcome:
    """Execute ``program`` under Taskgrind with one scheduler seed."""
    options = options if options is not None else fuzz_options()
    try:
        if program.family == "feb":
            reports, addr_map = _run_qthreads(program, schedule_seed, options)
        else:
            reports, addr_map = _run_openmp(program, schedule_seed, options)
    except (SimDeadlock, GuestCrash, OutOfMemory) as exc:
        return RunOutcome(schedule_seed, crashed=type(exc).__name__)
    slots, noise = normalize(reports, addr_map)
    return RunOutcome(schedule_seed, slots=slots, noise=noise,
                      report_count=len(reports))


def run_taskgrind_two_phase(program: FuzzProgram, *, schedule_seed: int,
                            options: Optional[TaskgrindOptions] = None
                            ) -> Tuple[RunOutcome, str]:
    """The full two-phase pipeline: sync-record, then pinned replay.

    Phase one executes with ``record_mode="sync"`` (access recording off)
    while a :class:`~repro.replay.record.ScheduleRecorder` captures the
    schedule; the document is round-tripped through its serialized form to
    prove the on-disk format loses nothing.  Phase two re-executes with
    full instrumentation pinned to the recording and finalizes normally.

    Returns ``(outcome, divergence)`` — ``divergence`` is a non-empty
    description when the replay departed from the recording (the outcome
    is then marked crashed), and ``""`` when the schedule held.
    """
    import dataclasses

    from repro.errors import ReplayDivergenceError
    from repro.replay.record import ScheduleRecorder
    from repro.replay.replay import ReplaySession
    from repro.replay.schedule import ScheduleDoc

    base = options if options is not None else fuzz_options()
    exec_fn = _exec_qthreads if program.family == "feb" else _exec_openmp

    sync_opts = dataclasses.replace(base, record_mode="sync")
    machine, tool, _amap, entry = exec_fn(program, schedule_seed, sync_opts)
    recorder = ScheduleRecorder({
        "kind": "fuzz", "seed": schedule_seed,
        "nthreads": program.nthreads,
        "spec_digest": program.digest()})
    recorder.attach(machine, tool)
    try:
        machine.run(entry)
    except (SimDeadlock, GuestCrash, OutOfMemory) as exc:
        return (RunOutcome(schedule_seed,
                           crashed=f"sync:{type(exc).__name__}"), "")
    tool.finalize()
    doc = ScheduleDoc.from_dict(recorder.finish().to_dict())

    full_opts = dataclasses.replace(base, record_mode="full")
    machine2, tool2, addr_map, entry2 = exec_fn(program, schedule_seed,
                                                full_opts)
    session = ReplaySession(doc)
    session.attach(machine2, tool2)
    try:
        machine2.run(entry2)
        reports = tool2.finalize()
        session.verify_complete()
    except ReplayDivergenceError as exc:
        return (RunOutcome(schedule_seed, crashed="ReplayDivergenceError"),
                str(exc))
    except (SimDeadlock, GuestCrash, OutOfMemory) as exc:
        return (RunOutcome(schedule_seed,
                           crashed=f"replay:{type(exc).__name__}"), "")
    slots, noise = normalize(reports, addr_map)
    return (RunOutcome(schedule_seed, slots=slots, noise=noise,
                       report_count=len(reports)), "")


def fault_fuzz_options() -> TaskgrindOptions:
    """Fuzz options for fault campaigns: a short per-chunk deadline so
    planted hangs quarantine instead of stalling a nightly run."""
    opts = fuzz_options()
    opts.analysis_deadline_s = 0.1
    opts.analysis_max_retries = 1
    return opts


def run_taskgrind_salvaged(program: FuzzProgram, *, schedule_seed: int,
                           plan, options: Optional[TaskgrindOptions] = None
                           ) -> Tuple[RunOutcome, dict]:
    """The full resilient pipeline under an armed fault plan.

    Run (crashes salvage the recorded prefix) → trace save (tolerating
    planted truncation/corruption/writer death) → salvage load + supervised
    analysis.  ``outcome.slots`` is the union of everything either pass
    still reported; ``outcome.crashed`` is set ONLY when an exception
    *escapes* the pipeline — a planned crash that was salvaged is recorded
    in ``info["crashed_run"]`` and is not a failure.
    """
    import os
    import tempfile

    from repro.core.trace import analyze_trace_with_stats, save_trace
    from repro.errors import InjectedFault
    from repro.faults.inject import inject_plan

    options = options if options is not None else fault_fuzz_options()
    info = {"plan": plan.name, "crashed_run": "", "trace_written": False,
            "coverage_complete": None, "fired": {}}
    try:
        if program.family == "feb":
            machine, tool, addr_map, entry = _exec_qthreads(
                program, schedule_seed, options)
        else:
            machine, tool, addr_map, entry = _exec_openmp(
                program, schedule_seed, options)
        with inject_plan(plan):
            try:
                machine.run(entry)
            except (SimDeadlock, GuestCrash, OutOfMemory) as exc:
                info["crashed_run"] = type(exc).__name__
            reports = tool.finalize()
        slots, noise = normalize(reports, addr_map)
        slots, noise = set(slots), list(noise)
        info["fired"] = dict(plan.fired_summary())

        tmpdir = tempfile.mkdtemp(prefix="taskgrind-fuzz-faults-")
        trace_path = os.path.join(tmpdir, "salvage.trace.json")
        try:
            try:
                with inject_plan(plan):
                    save_trace(tool, machine, trace_path)
            except InjectedFault:
                pass        # the writer died; target must be untouched
            for name, count in plan.fired_summary().items():
                info["fired"][name] = info["fired"].get(name, 0) + count
            if os.path.exists(trace_path):
                info["trace_written"] = True
                offline, stats = analyze_trace_with_stats(trace_path)
                info["coverage_complete"] = stats["coverage"]["complete"]
                oslots, onoise = normalize(offline, addr_map)
                slots |= set(oslots)
                noise.extend(onoise)
        finally:
            for name in os.listdir(tmpdir):
                os.unlink(os.path.join(tmpdir, name))
            os.rmdir(tmpdir)
    except Exception as exc:    # noqa: BLE001 - an escape IS the finding
        return (RunOutcome(schedule_seed, crashed=repr(exc)), info)
    return (RunOutcome(schedule_seed, slots=frozenset(slots),
                       noise=tuple(sorted(set(noise))),
                       report_count=len(reports)), info)


# ---------------------------------------------------------------------------
# OpenMP families
# ---------------------------------------------------------------------------

def _run_openmp(program: FuzzProgram, seed: int,
                options: TaskgrindOptions):
    machine, tool, addr_map, entry = _exec_openmp(program, seed, options)
    machine.run(entry)
    return tool.finalize(), addr_map


def _exec_openmp(program: FuzzProgram, seed: int,
                 options: TaskgrindOptions):
    """Build the run but don't start it: (machine, tool, addr_map, entry)."""
    from repro.openmp.api import make_env

    machine = Machine(seed=seed)
    tool = TaskgrindTool(options)
    machine.add_tool(tool)
    env = make_env(machine, nthreads=program.nthreads, source_file="fuzz.c")
    env.rt.ompt.register(tool.make_ompt_shim())
    ctx = env.ctx
    addr_map = _AddrMap()
    line_counter = [10]

    def next_line() -> int:
        line_counter[0] += 1
        return line_counter[0]

    def do_noise(op, k: int) -> None:
        # noise vars are private by construction (never escape their task),
        # so they carry the compiler's private=True assertion — the elision
        # pre-pass may compile their instrumentation away entirely
        kind = op[0]
        if kind == "tls":
            tls = ctx.tls_var(f"fuzz_tls{op[1]}", SLOT_BYTES,
                              elem=SLOT_BYTES, private=True)
            tls.write(0, line=next_line())
        elif kind == "stack":
            local = ctx.stack_var(f"fuzz_local{k}", SLOT_BYTES,
                                  elem=SLOT_BYTES, private=True)
            local.write(0, line=next_line())
            local.read(0)
        elif kind == "scratch":
            scratch = ctx.malloc(SCRATCH_BYTES, elem=SLOT_BYTES,
                                 name="scratch", line=next_line(),
                                 private=True)
            scratch.write(0)
            scratch.write(1)
            ctx.free(scratch)

    def run_ops(arena, body: list) -> None:
        for k, op in enumerate(body):
            kind = op[0]
            if kind == "r":
                arena.read(op[1], line=next_line())
            elif kind == "w":
                arena.write(op[1], line=next_line())
            elif kind == "task":
                ctx.line(next_line())
                env.task(lambda tv, b=op[1]: run_ops(arena, b),
                         name=f"fuzz_task_l{line_counter[0]}",
                         annotate_deferrable=True)
            elif kind == "wait":
                env.taskwait()
            elif kind == "group":
                env.taskgroup(lambda b=op[1]: run_ops(arena, b))
            else:
                do_noise(op, k)

    def main() -> None:
        with ctx.function("main", file="fuzz.c", line=1):
            arena = ctx.malloc(SLOT_BYTES * program.slots, elem=SLOT_BYTES,
                               name="arena")
            addr_map.add_buffer(arena, "s", program.slots)

            if program.family == "barrier":
                def region(tid: int) -> None:
                    rounds = program.body[tid]
                    for r_ops in rounds:
                        for k, op in enumerate(r_ops):
                            if op[0] == "r":
                                arena.read(op[1], line=next_line())
                            elif op[0] == "w":
                                arena.write(op[1], line=next_line())
                            else:
                                do_noise(op, k)
                        env.barrier()
                env.parallel(region, num_threads=program.nthreads)
                return

            if program.family == "deps":
                tokens = [ctx.malloc(SLOT_BYTES, name=f"tok{t}")
                          for t in range(_dep_token_count(program))]

                def create_all() -> None:
                    for idx, task in enumerate(program.body):
                        depend = {}
                        if task.get("out"):
                            depend["out"] = [tokens[t] for t in task["out"]]
                        if task.get("in"):
                            depend["in"] = [tokens[t] for t in task["in"]]
                        ctx.line(next_line())
                        env.task(lambda tv, b=task.get("ops", []):
                                 run_ops(arena, b),
                                 depend=depend or None,
                                 name=f"fuzz_dep{idx}",
                                 annotate_deferrable=True)
                    env.taskwait()
                env.parallel_single(create_all)
                return

            # sp / tasks: the root body runs in the single region
            env.parallel_single(lambda: run_ops(arena, program.body))

    return machine, tool, addr_map, main


def _dep_token_count(program: FuzzProgram) -> int:
    toks = [t for task in program.body
            for t in list(task.get("out", ())) + list(task.get("in", ()))]
    return max(toks) + 1 if toks else 0


# ---------------------------------------------------------------------------
# Qthreads (feb family)
# ---------------------------------------------------------------------------

def _run_qthreads(program: FuzzProgram, seed: int,
                  options: TaskgrindOptions):
    machine, tool, addr_map, entry = _exec_qthreads(program, seed, options)
    machine.run(entry)
    return tool.finalize(), addr_map


def _exec_qthreads(program: FuzzProgram, seed: int,
                   options: TaskgrindOptions):
    """Build the run but don't start it: (machine, tool, addr_map, entry)."""
    from repro.core.qthreads_shim import attach_qthreads
    from repro.fuzz.spec import feb_word_sites
    from repro.qthreads.runtime import make_qthreads_env

    machine = Machine(seed=seed)
    tool = TaskgrindTool(options)
    machine.add_tool(tool)
    # one shepherd cannot drain forked qtasks while main blocks on them
    nworkers = max(2, program.nthreads)
    env = make_qthreads_env(machine, nworkers=nworkers,
                            source_file="fuzz_qt.c")
    attach_qthreads(tool, env)
    ctx = env.ctx
    addr_map = _AddrMap()
    fills, _ = feb_word_sites(program.body)
    n_words = max(fills.keys(), default=-1) + 1

    def main() -> None:
        with ctx.function("main", file="fuzz_qt.c", line=1):
            arena = ctx.malloc(SLOT_BYTES * program.slots, elem=SLOT_BYTES,
                               name="arena")
            addr_map.add_buffer(arena, "s", program.slots)
            words = ctx.malloc(SLOT_BYTES * max(1, n_words),
                               elem=SLOT_BYTES, name="febwords")
            addr_map.add_buffer(words, "feb", n_words)

            def qtask_body(body: list) -> None:
                for k, op in enumerate(body):
                    kind = op[0]
                    if kind == "r":
                        arena.read(op[1])
                    elif kind == "w":
                        arena.write(op[1])
                    elif kind == "writeEF":
                        env.writeEF(words.index_addr(op[1]), op[1])
                    elif kind == "readFE":
                        env.readFE(words.index_addr(op[1]))
                    elif kind == "tls":
                        tls = ctx.tls_var(f"fuzz_tls{op[1]}", SLOT_BYTES,
                                          elem=SLOT_BYTES, private=True)
                        tls.write(0)
                    elif kind == "stack":
                        local = ctx.stack_var(f"fuzz_local{k}", SLOT_BYTES,
                                              elem=SLOT_BYTES, private=True)
                        local.write(0)
                        local.read(0)
                    elif kind == "scratch":
                        scratch = ctx.malloc(SCRATCH_BYTES, elem=SLOT_BYTES,
                                             name="scratch", private=True)
                        scratch.write(0)
                        scratch.write(1)
                        ctx.free(scratch)

            def qmain(qt_env) -> None:
                for task in program.body:
                    env.fork(qtask_body, task["ops"])

            env.run(qmain, env)

    return machine, tool, addr_map, main
