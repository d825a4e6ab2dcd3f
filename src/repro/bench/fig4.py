"""Fig. 4 harness: execution time and memory vs mesh size.

Reproduces the figure's setup: LULESH ``-s $s -tel 4 -tnl 4 -p -i 4`` with
the *reference* and *Archer* running on 4 threads and *Taskgrind* on a
single thread (the paper's workaround for the multi-thread deadlock).  Both
time and memory follow the application's O(s^3) complexity; the expected
shape is Taskgrind ~100x above the reference in time and ~6x in memory, with
Archer in between.

The ROMP sidebar (omitted from the paper's figure because the instrumented
program crashed in the first iteration; at ``-s 64`` it had consumed 79 s
and 75 GB before dying) is reproduced with ``--romp``: ROMP runs until its
modeled first-iteration crash and the harness reports the time/memory it had
consumed.

Usage: ``python -m repro.bench.fig4 [--sizes 4 8 16 24 32] [--romp]``
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.baselines.romp import RompTool
from repro.bench.runner import TOOLS
from repro.errors import GuestCrash, OutputError, SimDeadlock
from repro.machine.machine import Machine
from repro.obs.session import write_output
from repro.openmp.api import make_env
from repro.util.tables import render_table
from repro.workloads.lulesh import LuleshConfig, run_lulesh

DEFAULT_SIZES = (4, 8, 16, 24, 32)


@dataclass
class Point:
    s: int
    tool: str
    nthreads: int
    time_s: float
    mem_mib: float
    crashed: bool = False


def measure(tool_name: str, s: int, nthreads: int, *, seed: int = 0,
            romp_crash: bool = True) -> Point:
    machine = Machine(seed=seed)
    if tool_name == "romp":
        tool = RompTool(crash_after_regions=1 if romp_crash else None)
    else:
        tool = TOOLS[tool_name]()
    if tool_name != "none":
        machine.add_tool(tool)
    env = make_env(machine, nthreads=nthreads, source_file="lulesh.cc")
    if tool_name != "none":
        env.rt.ompt.register(tool.make_ompt_shim())
    crashed = False
    try:
        machine.run(lambda: run_lulesh(env, LuleshConfig(s=s, progress=True)))
        tool.finalize()
    except (GuestCrash, SimDeadlock):
        crashed = True
    return Point(s=s, tool=tool_name, nthreads=nthreads,
                 time_s=machine.cost.seconds,
                 mem_mib=machine.memory_meter().total_mib, crashed=crashed)


def run_fig4(sizes=DEFAULT_SIZES, *, include_romp: bool = False
             ) -> List[Point]:
    """The three figure series (plus the optional ROMP sidebar)."""
    series = [("none", 4), ("archer", 4), ("taskgrind", 1)]
    if include_romp:
        series.append(("romp", 4))
    points: List[Point] = []
    for s in sizes:
        for tool, nthreads in series:
            points.append(measure(tool, s, nthreads))
    return points


def render(points: List[Point]) -> str:
    tools = sorted({p.tool for p in points},
                   key=lambda t: ["none", "archer", "taskgrind",
                                  "romp"].index(t))
    sizes = sorted({p.s for p in points})
    by = {(p.tool, p.s): p for p in points}

    def cell(p: Optional[Point], what: str) -> str:
        if p is None:
            return "-"
        suffix = " (crash)" if p.crashed else ""
        if what == "time":
            return f"{p.time_s:.3f}{suffix}"
        return f"{p.mem_mib:.0f}{suffix}"

    out = []
    for what, unit in (("time", "s"), ("mem", "MiB")):
        rows = [[f"{t} ({'1T' if t == 'taskgrind' else '4T'})"]
                + [cell(by.get((t, s)), what) for s in sizes]
                for t in tools]
        out.append(render_table(
            ["series"] + [f"s={s}" for s in sizes], rows,
            title=f"Fig. 4 — LULESH {what} [{unit}] vs mesh size "
                  "(-tel 4 -tnl 4 -p -i 4)"))
        out.append("")
    out.append("expected shape: all series grow O(s^3); Taskgrind ~100x the")
    out.append("reference in time and ~6x in memory, Archer in between;")
    out.append("ROMP (sidebar) crashes in iteration 1 with far larger "
               "overheads (paper: 79 s / 75 GB at s=64).")
    return "\n".join(out)


def to_csv(points: List[Point]) -> str:
    """The series as CSV (for external plotting of the figure)."""
    lines = ["tool,threads,s,time_s,mem_mib,crashed"]
    for p in sorted(points, key=lambda p: (p.tool, p.s)):
        lines.append(f"{p.tool},{p.nthreads},{p.s},{p.time_s:.6f},"
                     f"{p.mem_mib:.2f},{int(p.crashed)}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=list(DEFAULT_SIZES))
    parser.add_argument("--romp", action="store_true",
                        help="include the ROMP sidebar series")
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the series as CSV")
    args = parser.parse_args(argv)
    points = run_fig4(tuple(args.sizes), include_romp=args.romp)
    print(render(points))
    if args.csv:
        try:
            write_output("Fig. 4 CSV", args.csv, lambda path: Path(
                path).write_text(to_csv(points) + "\n", encoding="utf-8"))
        except OutputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
