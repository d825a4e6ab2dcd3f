"""Error-reporting comparison (paper Section V-C, Listings 4-6).

Runs the paper's minimal erroneous program (Listing 4: two sibling tasks both
write ``x[0]``) under Taskgrind and under the modeled ROMP, and prints both
reports side by side:

* ROMP (Listing 5): raw addresses, no debug information;
* Taskgrind (Listing 6): segment labels from the task pragma locations
  (``task.1.c:8`` / ``task.1.c:11``), the conflicting byte count, the heap
  block and its allocation site (``from task.1.c:3``).

Usage: ``python -m repro.bench.errorreport``
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

from repro.baselines.romp import RompTool
from repro.core.reports import format_report
from repro.core.tool import TaskgrindTool
from repro.machine.machine import Machine
from repro.openmp.api import OmpEnv, make_env


def listing4(env: OmpEnv) -> None:
    """The paper's Listing 4 (task.1.c) transcribed."""
    ctx = env.ctx
    with ctx.function("main", file="task.1.c", line=1):
        x = ctx.malloc(2 * 4, line=3, name="x")       # malloc(2*sizeof(int))

        def single_body() -> None:
            ctx.line(8)
            env.task(lambda tv: x.write(0, 42, line=9), name="task.1.c:8")
            ctx.line(11)
            env.task(lambda tv: x.write(0, 43, line=12), name="task.1.c:11")

        ctx.line(4)
        env.parallel_single(single_body)


def run_tool(tool_name: str, seed: int = 0) -> Tuple[object, List]:
    machine = Machine(seed=seed)
    tool = TaskgrindTool() if tool_name == "taskgrind" else RompTool()
    machine.add_tool(tool)
    env = make_env(machine, nthreads=4, source_file="task.1.c")
    env.rt.ompt.register(tool.make_ompt_shim())
    machine.run(lambda: listing4(env))
    return tool, tool.finalize()


def render() -> str:
    out = ["Listing 4 (task.1.c): two sibling tasks write x[0] with no "
           "dependence", ""]

    romp_tool, romp_reports = run_tool("romp")
    out.append("--- ROMP report (Listing 5 style) " + "-" * 30)
    if not romp_reports:
        out.append("(no race reported)")
    for cand in romp_reports:
        from repro.core.reports import build_report
        rep = build_report(romp_tool.machine.allocator, cand)
        out.append(format_report(rep, style="romp"))
    out.append("")

    tg_tool, tg_reports = run_tool("taskgrind")
    out.append("--- Taskgrind report (Listing 6 style) " + "-" * 25)
    if not tg_reports:
        out.append("(no race reported)")
    for rep in tg_reports:
        out.append(format_report(rep))
    out.append("")
    out.append("paper Listing 6 reference:")
    out.append('  "Segments task.1.c:8 and task.1.c:11 were declared')
    out.append('   independent while accessing the same memory address')
    out.append('   4 bytes from 0xC3EA040 allocated in block 0xC3EA040')
    out.append('   of size 8 from task.1.c:3"')
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    print(render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
