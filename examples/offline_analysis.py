#!/usr/bin/env python
"""Offline race analysis: record once, analyze anywhere.

The paper's Section VII notes the determinacy-race pass runs inside
Valgrind after the instrumented execution.  The reproduction's answer:
dump the segment graph at exit and run Algorithm 1 *outside* the tool,
possibly on another machine.

This example records a racy LULESH run to a trace file, analyzes it
offline, and shows the reports equal the online analysis's.

Run with::

    python examples/offline_analysis.py
"""

import tempfile
import time
from pathlib import Path

from repro.core.tool import TaskgrindTool
from repro.core.trace import analyze_trace, save_trace
from repro.core.reports import format_report
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from repro.workloads.lulesh import LuleshConfig, run_lulesh


def main() -> None:
    # 1. the instrumented run: record only, no analysis
    machine = Machine(seed=0)
    tool = TaskgrindTool()
    machine.add_tool(tool)
    env = make_env(machine, nthreads=1, source_file="lulesh.cc")
    env.rt.ompt.register(tool.make_ompt_shim())
    machine.run(lambda: run_lulesh(env, LuleshConfig(s=8, racy=True,
                                                     iterations=2)))

    with tempfile.TemporaryDirectory() as workdir:
        trace_path = Path(workdir) / "lulesh.trace.json"
        save_trace(tool, machine, str(trace_path))
        size_kib = trace_path.stat().st_size / 1024
        segments = len(tool.builder.graph.segments)
        print(f"recorded {segments} segments to {trace_path} "
              f"({size_kib:.0f} KiB)")

        # 2. offline analysis
        t0 = time.perf_counter()
        reports = analyze_trace(str(trace_path))
        dt = (time.perf_counter() - t0) * 1000
        print(f"  offline: {len(reports)} race(s) in {dt:6.1f} ms")

    # 3. the reports carry full debug info, exactly as online
    online = tool.finalize()
    assert [format_report(r) for r in reports] == \
        [format_report(r) for r in online]
    print("\nfirst offline report (identical to the online one):")
    print(format_report(reports[0]))


if __name__ == "__main__":
    main()
