"""Phase one: record the synchronization order of a run.

:class:`ScheduleRecorder` taps three event sources that together pin the
interleaving:

* the scheduler's ``pick_observer`` — the thread chosen for every slice;
* the segment graph's live observer — segment and HB-edge creation in
  order, each segment stamped with the cost-model vclock at its birth (the
  checkpoint the replayer asserts at every segment boundary);
* the allocator's ``on_alloc`` callback (wrapped, original still called) —
  heap event order, which fixes address assignment.

Recording composes with ``TaskgrindOptions.record_mode="sync"`` (access
recording off, the cheap first pass) but does not require it: the cost
model charges accesses identically whether or not the tool records them,
so a schedule recorded in either mode replays against the other.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import get_registry
from repro.replay.schedule import BENCH_OPTIONS, ScheduleDoc


class ScheduleRecorder:
    """Attach to a (machine, tool) pair before ``machine.run``."""

    def __init__(self, program: Optional[dict] = None) -> None:
        self.program = dict(program or {})
        self.picks: list = []
        self.segments: list = []
        self.edges: list = []
        self.allocs: list = []
        self._machine = None
        self._orig_on_alloc = None

    # -- wiring -----------------------------------------------------------

    def attach(self, machine, tool) -> None:
        self._machine = machine
        machine.scheduler.pick_observer = self.picks.append
        tool.builder.graph.observer = self
        self._orig_on_alloc = machine.allocator.on_alloc
        machine.allocator.on_alloc = self._on_alloc

    # -- event taps -------------------------------------------------------

    def on_segment(self, seg) -> None:
        self.segments.append([seg.thread_id, seg.kind, bool(seg.virtual),
                              self._machine.cost.vtime_ops])

    def on_edge(self, src_id: int, dst_id: int) -> None:
        self.edges.append([src_id, dst_id])

    def _on_alloc(self, block) -> None:
        self.allocs.append([block.seq,
                            getattr(block, "alloc_thread", -1), block.size])
        if self._orig_on_alloc is not None:
            self._orig_on_alloc(block)

    # -- harvest ----------------------------------------------------------

    def finish(self) -> ScheduleDoc:
        """Assemble the schedule document after the run completed."""
        machine = self._machine
        doc = ScheduleDoc(
            program=self.program, picks=self.picks,
            segments=self.segments, edges=self.edges, allocs=self.allocs,
            rng_draws=dict(machine.rng.draws),
            final_vclock=machine.cost.vtime_ops)
        reg = get_registry()
        reg.counter("replay.record.picks").inc(len(self.picks))
        reg.counter("replay.record.segments").inc(len(self.segments))
        reg.counter("replay.record.edges").inc(len(self.edges))
        reg.counter("replay.record.allocs").inc(len(self.allocs))
        return doc


def record_bench(program, *, nthreads: int = 4, seed: int = 0,
                 options=None, sync: bool = True):
    """Record one benchmark program: returns ``(RunResult, ScheduleDoc)``.

    ``sync=True`` (the default two-phase first pass) runs with
    ``record_mode="sync"`` — access recording off, analysis skipped.
    """
    from repro.bench.runner import run_benchmark
    from repro.core.tool import TaskgrindOptions

    options = options or TaskgrindOptions()
    options.record_mode = "sync" if sync else "full"
    recorder = ScheduleRecorder({
        "kind": "bench", "name": program.name, "nthreads": nthreads,
        "seed": seed, "record_mode": options.record_mode,
        "options": {key: getattr(options, key) for key in BENCH_OPTIONS}})
    reg = get_registry()
    with reg.phase("replay.record"):
        result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                               seed=seed, taskgrind_options=options,
                               on_machine=recorder.attach)
    return result, recorder.finish()
