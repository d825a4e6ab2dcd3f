#!/usr/bin/env python
"""Offline race analysis: record once, analyze anywhere.

The paper's Section VII notes the determinacy-race pass is embarrassingly
parallel but runs sequentially inside Valgrind.  The reproduction's answer:
dump the segment graph at exit and run Algorithm 1 *outside* the tool —
with one worker or several, or on another machine.

This example records a racy LULESH run to a trace file, then analyzes it
offline with one pair-check worker and with four, and shows they agree.

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

    trace_path = Path(tempfile.mkdtemp()) / "lulesh.trace.json"
    save_trace(tool, machine, str(trace_path))
    size_kib = trace_path.stat().st_size / 1024
    segments = len(tool.builder.graph.segments)
    print(f"recorded {segments} segments to {trace_path} ({size_kib:.0f} KiB)")

    # 2. offline analysis, sequential and with four workers
    for workers in (1, 4):
        t0 = time.perf_counter()
        reports = analyze_trace(str(trace_path), workers=workers)
        dt = (time.perf_counter() - t0) * 1000
        print(f"  {workers} worker(s): {len(reports)} race(s) in {dt:6.1f} ms")

    # 3. the reports carry full debug info, exactly as online
    reports = analyze_trace(str(trace_path))
    print("\nfirst offline report:")
    print(format_report(reports[0]))


if __name__ == "__main__":
    main()
