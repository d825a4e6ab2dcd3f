"""Phase two: re-execute under the recorded schedule and prove it held.

:class:`ReplaySession` installs three cross-checking hooks:

* ``pick_override`` on the scheduler consumes the recorded pick tape —
  the recorded thread must be in the ready set (else the executions have
  already diverged) and the seeded ``sched.*`` streams are never drawn;
* a live graph observer asserts every segment (thread, kind, virtual
  flag, **exact** cost-model vclock checkpoint) and every HB edge against
  the recording, in creation order — the first mismatch raises
  :class:`~repro.errors.ReplayDivergenceError`;
* the allocator callback asserts heap event order (seq, thread, size).

``verify_complete`` closes the proof after the run: every recorded event
was consumed, the final vclock matches, and every non-``sched.*`` rng
stream made exactly the recorded number of draws (the work-stealing
pattern of the pinned run).

Exact float equality on vclock checkpoints is deliberate: the cost model
charges accesses identically whether the tool records them or not, so a
faithful replay reproduces the virtual clock bit-for-bit — any drift
means the executions differ, which is precisely what the check is for.
"""

from __future__ import annotations

from typing import List

from repro.errors import ReplayDivergenceError
from repro.obs.metrics import get_registry
from repro.replay.schedule import ScheduleDoc


class ReplaySession:
    """Attach to a fresh (machine, tool) pair before ``machine.run``."""

    def __init__(self, doc: ScheduleDoc, *,
                 check_vclock: bool = True) -> None:
        self.doc = doc
        self.check_vclock = check_vclock
        self.picks_used = 0
        self.segments_checked = 0
        self.edges_checked = 0
        self.allocs_checked = 0
        self._machine = None
        self._orig_on_alloc = None

    # -- wiring -----------------------------------------------------------

    def attach(self, machine, tool) -> None:
        self._machine = machine
        machine.scheduler.pick_override = self._pick
        tool.builder.graph.observer = self
        self._orig_on_alloc = machine.allocator.on_alloc
        machine.allocator.on_alloc = self._on_alloc

    # -- the pick tape ----------------------------------------------------

    def _pick(self, ready: List):
        idx = self.picks_used
        if idx >= len(self.doc.picks):
            self._diverged("pick", idx, "<end of tape>",
                           sorted(t.id for t in ready),
                           "the replayed run needs more scheduling "
                           "decisions than were recorded")
        want = self.doc.picks[idx]
        for t in ready:
            if t.id == want:
                self.picks_used += 1
                return t
        self._diverged("pick", idx, want, sorted(t.id for t in ready),
                       "recorded thread not ready in the replayed run")

    # -- graph cross-checks ------------------------------------------------

    def on_segment(self, seg) -> None:
        idx = self.segments_checked
        if idx >= len(self.doc.segments):
            self._diverged("segment", idx, "<end of recording>",
                           [seg.thread_id, seg.kind],
                           "replay created more segments than recorded")
        rec_thread, rec_kind, rec_virtual, rec_vclock = \
            self.doc.segments[idx]
        got = [seg.thread_id, seg.kind, bool(seg.virtual)]
        if got != [rec_thread, rec_kind, bool(rec_virtual)]:
            self._diverged("segment", idx,
                           [rec_thread, rec_kind, bool(rec_virtual)], got)
        if self.check_vclock:
            now = self._machine.cost.vtime_ops
            if now != rec_vclock:
                self._diverged("vclock", idx, rec_vclock, now,
                               f"at segment #{seg.id} boundary")
        self.segments_checked += 1

    def on_edge(self, src_id: int, dst_id: int) -> None:
        idx = self.edges_checked
        if idx >= len(self.doc.edges):
            self._diverged("edge", idx, "<end of recording>",
                           [src_id, dst_id],
                           "replay created more HB edges than recorded")
        if self.doc.edges[idx] != [src_id, dst_id]:
            self._diverged("edge", idx, list(self.doc.edges[idx]),
                           [src_id, dst_id])
        self.edges_checked += 1

    # -- allocator order ---------------------------------------------------

    def _on_alloc(self, block) -> None:
        idx = self.allocs_checked
        got = [block.seq, getattr(block, "alloc_thread", -1), block.size]
        if idx >= len(self.doc.allocs):
            self._diverged("alloc", idx, "<end of recording>", got,
                           "replay allocated more blocks than recorded")
        if self.doc.allocs[idx] != got:
            self._diverged("alloc", idx, list(self.doc.allocs[idx]), got)
        self.allocs_checked += 1
        if self._orig_on_alloc is not None:
            self._orig_on_alloc(block)

    # -- the closing proof -------------------------------------------------

    def verify_complete(self) -> None:
        """Assert the recording was consumed exactly, rng pattern included."""
        for what, used, total in (
                ("pick", self.picks_used, len(self.doc.picks)),
                ("segment", self.segments_checked, len(self.doc.segments)),
                ("edge", self.edges_checked, len(self.doc.edges)),
                ("alloc", self.allocs_checked, len(self.doc.allocs))):
            if used != total:
                self._diverged("count", used, total, used,
                               f"replay consumed {used}/{total} recorded "
                               f"{what}s")
        if self.check_vclock:
            now = self._machine.cost.vtime_ops
            if now != self.doc.final_vclock:
                self._diverged("vclock", self.segments_checked,
                               self.doc.final_vclock, now,
                               "final makespan mismatch")
        # the pinned scheduler never draws sched.*; every other stream
        # (work stealing, allocator noise, ...) must match exactly
        want = {k: v for k, v in self.doc.rng_draws.items()
                if not k.startswith("sched.")}
        got = {k: v for k, v in self._machine.rng.draws.items()
               if not k.startswith("sched.")}
        if want != got:
            diff = sorted(set(want) | set(got))
            first = next(k for k in diff if want.get(k) != got.get(k))
            self._diverged("rng", 0, {first: want.get(first, 0)},
                           {first: got.get(first, 0)},
                           "rng stream draw counts differ")
        reg = get_registry()
        reg.counter("replay.picks").inc(self.picks_used)
        reg.counter("replay.segments_checked").inc(self.segments_checked)
        reg.counter("replay.edges_checked").inc(self.edges_checked)
        reg.counter("replay.allocs_checked").inc(self.allocs_checked)

    def _diverged(self, what: str, index: int, expected, actual,
                  detail: str = "") -> None:
        get_registry().counter("replay.divergences").inc()
        raise ReplayDivergenceError(what, index, expected, actual, detail)


# ---------------------------------------------------------------------------
# high-level driver
# ---------------------------------------------------------------------------

def replay_bench(doc: ScheduleDoc, *, replay_filter=None,
                 options=None, check_vclock: bool = True):
    """Replay a bench-kind schedule with full instrumentation restored.

    Returns ``(RunResult, ReplaySession)``.  The run executes pinned to
    ``doc``'s pick tape; any departure raises
    :class:`~repro.errors.ReplayDivergenceError`.  ``replay_filter``
    narrows access recording to the requested scope (partial replay).
    """
    from repro.bench.runner import _find_program, run_benchmark
    from repro.core.tool import TaskgrindOptions
    from repro.errors import ScheduleFormatError

    ref = doc.program
    if ref.get("kind") != "bench":
        raise ScheduleFormatError(
            "<schedule>", f"cannot replay program kind "
                          f"{ref.get('kind')!r} here (expected 'bench')")
    program = _find_program(ref["name"])
    if program is None:
        raise ScheduleFormatError(
            "<schedule>", f"recorded program {ref['name']!r} is not in the "
                          "benchmark registry")
    opts = options or TaskgrindOptions()
    for key, value in ref.get("options", {}).items():
        setattr(opts, key, value)
    opts.record_mode = "full"
    opts.replay_filter = replay_filter
    session = ReplaySession(doc, check_vclock=check_vclock)
    reg = get_registry()
    with reg.phase("replay.execute"):
        result = run_benchmark(program, "taskgrind",
                               nthreads=ref["nthreads"], seed=ref["seed"],
                               taskgrind_options=opts,
                               on_machine=session.attach)
    with reg.phase("replay.verify"):
        session.verify_complete()
    return result, session
