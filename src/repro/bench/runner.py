"""Run one (program × tool × threads × seed) combination.

Outcome classification mirrors the paper's tables exactly: ``TP/FP/TN/FN``
from reports-vs-ground-truth, ``ncs`` when the modeled compiler rejects the
program, ``segv`` when the instrumented run crashes, ``deadlock`` when the
simulator's deadlock detector fires (the Taskgrind multi-thread cells of
Table II).

CLI: ``python -m repro run PROGRAM [--tool taskgrind] [--threads 4]
[--seed 0] [--save-trace out.json] [--stats[=json|pretty]]`` — run one
benchmark program (DRB or TMB, see ``--list``) and print the verdict and
reports; ``--save-trace`` dumps the run for ``python -m repro.core.offline``.
``--fault-plan plan.json`` (or ``--fault-plan builtin:<kind@at>``) arms the
fault injector: the run is expected to degrade gracefully — crashes salvage
the recorded prefix, trace damage salvages on load — never to traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.archer import ArcherTool
from repro.baselines.common import Verdict, classify
from repro.baselines.romp import RompTool
from repro.baselines.tasksanitizer import TaskSanitizerTool
from repro.bench.programs import BenchProgram
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.errors import (GuestCrash, NoCompilerSupport, OutOfMemory,
                          SimDeadlock)
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.machine.cost import MemoryMeter
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from repro.vex.tool import NullTool

#: tool name -> factory
TOOLS: Dict[str, Callable] = {
    "none": NullTool,
    "taskgrind": TaskgrindTool,
    "archer": ArcherTool,
    "tasksanitizer": TaskSanitizerTool,
    "romp": RompTool,
}


@dataclass
class RunResult:
    """Everything one benchmark run produced."""

    program: str
    tool: str
    nthreads: int
    seed: int
    verdict: Verdict
    report_count: int = 0
    reports: list = field(default_factory=list)
    sim_seconds: float = 0.0
    memory: Optional[MemoryMeter] = None
    crash_reason: str = ""
    machine: Optional[Machine] = None
    tool_obj: object = None
    #: the tool's stats document (taskgrind-stats/1) when the tool has one
    stats: Optional[dict] = None

    @property
    def sim_memory_mib(self) -> float:
        return self.memory.total_mib if self.memory is not None else 0.0

    def cell(self) -> str:
        """The Table I cell text for this run."""
        return str(self.verdict)


def run_benchmark(program: BenchProgram, tool_name: str, *,
                  nthreads: int = 4, seed: int = 0,
                  taskgrind_options: Optional[TaskgrindOptions] = None,
                  keep_machine: bool = False,
                  fault_plan: Optional[FaultPlan] = None,
                  on_machine: Optional[Callable] = None) -> RunResult:
    """Execute ``program`` under ``tool_name`` and classify the outcome.

    The result's stats document carries a ``"registry"`` block with the
    *per-run* metrics delta (counters/phases scoped to this call), so two
    back-to-back runs in one process report independent numbers instead of
    the process-lifetime cumulative registry state.

    ``on_machine(machine, tool)`` is called after the environment is wired
    but before the run starts — the attachment point for the two-phase
    schedule recorder and replayer (:mod:`repro.replay`).

    ``fault_plan`` arms the fault injector for the duration of the run
    (resilience testing).  A faulted run that crashes mid-execution is
    *salvaged*: the tool's finalize pass runs over whatever was recorded up
    to the crash, so the verdict keeps the crash class but the result still
    carries the reports and stats recovered from the prefix.
    """
    from repro.obs.metrics import get_registry
    from repro.obs.tracer import get_tracer
    reg_baseline = get_registry().mark()
    tracer = get_tracer()
    if tracer.enabled:
        # per-run timeline scope: segment ids restart at 0 each run, so the
        # span-anchoring tables must not leak across back-to-back runs
        tracer.new_run()
    factory = TOOLS[tool_name]
    if tool_name == "taskgrind" and taskgrind_options is not None:
        tool = factory(taskgrind_options)
    else:
        tool = factory()

    # compile-time gates (ncs) and instrumentation-time crashes (ROMP segv)
    try:
        tool.compile_check(program)
    except NoCompilerSupport:
        return RunResult(program.name, tool_name, nthreads, seed, Verdict.NCS)
    except GuestCrash as crash:
        return RunResult(program.name, tool_name, nthreads, seed,
                         Verdict.SEGV, crash_reason=crash.reason)

    machine = Machine(seed=seed)
    if tool_name != "none":
        machine.add_tool(tool)
    env = make_env(machine, nthreads=nthreads,
                   source_file=program.source_file)
    if hasattr(tool, "make_ompt_shim") and tool_name != "none":
        env.rt.ompt.register(tool.make_ompt_shim())

    def entry() -> None:
        with env.ctx.function("main", file=program.source_file, line=1):
            program.entry(env)

    result = RunResult(program.name, tool_name, nthreads, seed,
                       Verdict.TN, tool_obj=tool)
    if on_machine is not None:
        on_machine(machine, tool)

    def salvage_finalize() -> None:
        """Best-effort post-crash analysis of the recorded prefix."""
        if fault_plan is None or not hasattr(tool, "finalize"):
            return
        try:
            result.reports = tool.finalize()
            result.report_count = len(result.reports)
            if hasattr(tool, "stats"):
                result.stats = tool.stats()
        except Exception as exc:
            result.crash_reason += f" (salvage finalize failed: {exc!r})"

    with inject_plan(fault_plan):
        try:
            machine.run(entry)
        except SimDeadlock:
            result.verdict = Verdict.DEADLOCK
            result.sim_seconds = machine.cost.seconds
            result.memory = machine.memory_meter()
            salvage_finalize()
            if keep_machine:
                result.machine = machine
            return result
        except (GuestCrash, OutOfMemory) as crash:
            result.verdict = Verdict.SEGV
            result.crash_reason = str(crash)
            result.sim_seconds = machine.cost.seconds
            result.memory = machine.memory_meter()
            salvage_finalize()
            if keep_machine:
                result.machine = machine
            return result

        reports = tool.finalize()
    result.reports = reports
    result.report_count = len(reports)
    result.verdict = classify(bool(reports), program.racy)
    result.sim_seconds = machine.cost.seconds
    result.memory = machine.memory_meter()
    if hasattr(tool, "stats"):
        result.stats = tool.stats()
        result.stats["registry"] = get_registry().delta_since(reg_baseline)
    if keep_machine:
        result.machine = machine
    return result


# ---------------------------------------------------------------------------
# CLI: python -m repro run PROGRAM
# ---------------------------------------------------------------------------

def _find_program(name: str) -> Optional[BenchProgram]:
    from repro.bench import drb, synth, tmb
    for registry in (drb.REGISTRY, tmb.REGISTRY, synth.REGISTRY):
        for program in registry:
            if program.name == name:
                return program
    return None


def _all_program_names() -> List[str]:
    from repro.bench import drb, synth, tmb
    return [p.name for p in drb.REGISTRY] + [p.name for p in tmb.REGISTRY] \
        + [p.name for p in synth.REGISTRY]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one benchmark program under one tool.")
    parser.add_argument("program", nargs="?",
                        help="a DRB/TMB program name (see --list)")
    parser.add_argument("--tool", default="taskgrind", choices=sorted(TOOLS))
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save-trace", metavar="PATH", default=None,
                        help="dump the run as a trace for offline analysis "
                             "(taskgrind only)")
    parser.add_argument("--record", default="full",
                        choices=["full", "sync"],
                        help="access recording mode (taskgrind only): "
                             "'sync' is the cheap two-phase first pass — "
                             "accesses observed but not recorded, no "
                             "analysis; pair with --save-schedule")
    parser.add_argument("--save-schedule", metavar="PATH", default=None,
                        help="save the run's schedule as a "
                             "taskgrind-schedule/1 document for "
                             "'repro replay' (taskgrind only)")
    parser.add_argument("--explain", action="store_true",
                        help="append a provenance witness to each report "
                             "(task ancestry, common ancestor, hb evidence; "
                             "taskgrind only)")
    parser.add_argument("--trace-timeline", metavar="OUT.json", default=None,
                        help="export the execution timeline as Chrome "
                             "trace-event JSON (virtual-time axis; load in "
                             "Perfetto)")
    parser.add_argument("--profile", metavar="OUT.json", default=None,
                        help="enable the attribution profiler and write a "
                             "taskgrind-profile/1 document (see "
                             "'python -m repro profile')")
    parser.add_argument("--flame", metavar="OUT.folded", default=None,
                        help="enable the attribution profiler and write "
                             "collapsed-stack flamegraph text "
                             "(flamegraph.pl input)")
    parser.add_argument("--fault-plan", metavar="PLAN", default=None,
                        help="arm a taskgrind-fault-plan/1 JSON file for "
                             "this run (resilience testing); "
                             "'builtin:<kind@at>' names a CI-matrix plan, "
                             "e.g. builtin:worker-exc@0")
    parser.add_argument("--list", action="store_true",
                        help="list runnable program names and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in _all_program_names():
            print(name)
        return 0
    if args.program is None:
        parser.error("program name required (or --list)")
    program = _find_program(args.program)
    if program is None:
        print(f"unknown program {args.program!r} "
              "(see python -m repro run --list)", file=sys.stderr)
        return 2
    if args.save_trace and args.tool != "taskgrind":
        print("--save-trace requires --tool taskgrind", file=sys.stderr)
        return 2
    if args.explain and args.tool != "taskgrind":
        print("--explain requires --tool taskgrind", file=sys.stderr)
        return 2
    if (args.record != "full" or args.save_schedule) \
            and args.tool != "taskgrind":
        print("--record/--save-schedule require --tool taskgrind",
              file=sys.stderr)
        return 2
    if args.record == "sync" and args.save_trace:
        print("--record sync keeps no access evidence; there is no trace "
              "to save (use --save-schedule)", file=sys.stderr)
        return 2

    plan: Optional[FaultPlan] = None
    if args.fault_plan is not None:
        from repro.faults.plan import builtin_plan, load_fault_plan
        try:
            if args.fault_plan.startswith("builtin:"):
                plan = builtin_plan(args.fault_plan[len("builtin:"):])
            else:
                plan = load_fault_plan(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    tracer = None
    if args.trace_timeline is not None:
        from repro.obs.tracer import get_tracer
        tracer = get_tracer()
        tracer.enable()
    prof = None
    if args.profile is not None or args.flame is not None:
        from repro.obs.prof import get_profiler
        prof = get_profiler()
        prof.enable()
        prof.meta.update({
            "program": program.name, "tool": args.tool,
            "nthreads": args.threads, "seed": args.seed,
            "record_mode": args.record,
        })
    options = None
    if args.explain or args.record != "full":
        options = TaskgrindOptions(explain=args.explain,
                                   record_mode=args.record)
    recorder = None
    on_machine = None
    if args.save_schedule is not None:
        from repro.replay.record import ScheduleRecorder
        if options is None:
            options = TaskgrindOptions(record_mode=args.record)
        recorder = ScheduleRecorder({
            "kind": "bench", "name": program.name,
            "nthreads": args.threads, "seed": args.seed,
            "record_mode": args.record,
            "options": {
                "model_multithread_lockup":
                    options.model_multithread_lockup,
            }})
        on_machine = recorder.attach
    result = run_benchmark(program, args.tool, nthreads=args.threads,
                           seed=args.seed, taskgrind_options=options,
                           keep_machine=args.save_trace is not None,
                           fault_plan=plan, on_machine=on_machine)
    # re-arming the plan for the trace save resets its fired counters, so
    # bank the run-phase firings now for the summary line
    run_fired = dict(plan.fired_summary()) if plan is not None else {}
    if tracer is not None:
        tracer.export(args.trace_timeline)
        tracer.disable()
        print(f"wrote timeline to {args.trace_timeline} "
              f"({len(tracer)} events)")
    if prof is not None:
        from repro.obs import profdoc
        phases = ((result.stats or {}).get("registry") or {}).get("phases")
        if args.profile is not None:
            profdoc.save_profile(args.profile, prof, phases=phases)
            print(f"wrote profile to {args.profile} "
                  f"({len(prof)} buckets, "
                  f"{prof.total_ops:.0f} attributed ops)")
        if args.flame is not None:
            with open(args.flame, "w", encoding="utf-8") as fh:
                fh.write(prof.folded())
            print(f"wrote flamegraph input to {args.flame}")
        prof.disable()
    print(f"{result.program} under {result.tool} "
          f"({result.nthreads} threads, seed {result.seed}): "
          f"{result.cell()} — {result.report_count} report(s), "
          f"{result.sim_seconds:.3f} simulated s, "
          f"{result.sim_memory_mib:.1f} MiB")
    if result.crash_reason:
        print(f"  crash: {result.crash_reason}")
    for report in result.reports:
        from repro.core.reports import format_report
        print()
        print(format_report(report))
    if args.save_trace:
        crashed = result.verdict.name in ("NCS", "SEGV", "DEADLOCK")
        if result.machine is None or result.tool_obj is None or \
                (crashed and plan is None):
            print("run did not finish cleanly; no trace written",
                  file=sys.stderr)
            return 1
        from repro.core.trace import save_trace
        from repro.errors import InjectedFault
        try:
            with inject_plan(plan):
                save_trace(result.tool_obj, result.machine, args.save_trace)
        except (InjectedFault, OSError) as exc:
            print(f"trace save failed ({exc}); any pre-existing trace at "
                  f"{args.save_trace} is intact", file=sys.stderr)
        else:
            print(f"\nwrote trace to {args.save_trace}")
    if args.save_schedule is not None:
        if result.verdict.name in ("NCS", "SEGV", "DEADLOCK"):
            print("run did not finish cleanly; a partial schedule would "
                  "pin the wrong interleaving — nothing written",
                  file=sys.stderr)
            return 1
        from repro.errors import InjectedFault
        from repro.replay.schedule import save_schedule
        doc = recorder.finish()
        try:
            with inject_plan(plan):
                save_schedule(doc, args.save_schedule)
        except (InjectedFault, OSError) as exc:
            print(f"schedule save failed ({exc}); any pre-existing "
                  f"schedule at {args.save_schedule} is intact",
                  file=sys.stderr)
        else:
            print(f"\nwrote schedule to {args.save_schedule} "
                  f"({doc.summary()})")
    if plan is not None:
        fired = {name: count + run_fired.get(name, 0)
                 for name, count in plan.fired_summary().items()}
        print("fault plan: " + (", ".join(
            f"{name} fired {count}x" for name, count in fired.items())
            or "no points"))
        if result.verdict.name in ("SEGV", "DEADLOCK"):
            print(f"  run crashed as planned; salvaged "
                  f"{result.report_count} report(s) from the recorded "
                  f"prefix")
    # mirror the offline CLI's convention: nonzero when races were reported
    return 0 if result.report_count == 0 else 1


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
