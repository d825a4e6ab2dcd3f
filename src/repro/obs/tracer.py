"""Execution timeline tracer: Chrome trace-event export on the virtual-time axis.

The segment graph is the paper's core artifact, but until now it was only
visible as aggregate counters (``--stats``) or the final race report.  This
module records the *simulated execution itself* — segment begin/end spans per
simulated thread, task/sync/allocator instants, happens-before edges and
race-provenance links as flow events — and exports them as Chrome
trace-event JSON loadable in Perfetto or ``chrome://tracing``.

Design constraints:

* **Virtual-time axis.**  Event timestamps come from the cost model's
  virtual clock (simulated ops converted to microseconds), so a span's width
  is the *simulated* duration the cost model charged, not the Python
  harness's wall clock.  Wall time is carried as a secondary ``wall_s``
  field in each event's ``args``.  Phases that run outside an instrumented
  machine (offline analysis) fall back to wall-clock microseconds; the
  virtual clock is re-based on bind so the axis stays monotone.
* **Zero overhead when disabled.**  The tracer is a process-wide singleton
  prebound at import time by every hook site; a disabled tracer costs one
  attribute check (``if _TRACER.enabled``) per *cold* event — no hooks exist
  on the per-access hot path at all.
* **Bounded.**  Events land in a ring buffer (``max_events``); when it
  wraps, the oldest events are dropped and the drop count is exported in
  ``otherData`` so downstream checkers can distinguish a truncated trace
  from a malformed one.

Event model (Chrome trace-event ``ph`` codes):

======  ======================================================================
``B/E`` span begin/end — segments (per simulated thread), analysis phases
``i``   instant — task create/complete, sync points, alloc/free,
        suppression drops, shim forwards
``s/f`` flow start/finish — cross-thread happens-before edges
        (cat ``hb``) and race-provenance links between the two racing
        segment spans (cat ``race``)
``M``   metadata — process/thread names
======  ======================================================================

See ``docs/INTERNALS.md`` §7 for the full event taxonomy and
:mod:`repro.obs.tracecheck` for the schema validator CI runs on exported
timelines.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: pid of every event (one simulated process per trace)
TRACE_PID = 1
#: tid used for virtual join segments (their builder thread_id is -1)
JOIN_TID = 999
#: tid used for analysis/tool phase spans (no simulated thread runs them)
PHASE_TID = 1000


class TimelineTracer:
    """Bounded ring-buffer recorder of Chrome trace events.

    All emit methods are no-ops unless :meth:`enable` was called; hook sites
    must guard with ``if tracer.enabled`` so the disabled path costs one
    attribute read.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._events: Deque[dict] = deque()
        self._max_events = 0
        self.dropped = 0
        self._wall0 = 0.0
        self._vclock: Optional[Callable[[], float]] = None
        self._ops_per_second = 0.0
        #: virtual-time offset (us) applied so re-basing the clock on a
        #: machine bind never moves the axis backwards
        self._vbase_us = 0.0
        self._flow_seq = 0
        #: seg id -> (tid, ts_begin); completed spans move to seg_spans
        self._open_segs: Dict[int, Tuple[int, float]] = {}
        #: seg id -> (tid, ts_begin, ts_end) for post-hoc flow anchoring
        self.seg_spans: Dict[int, Tuple[int, float, float]] = {}
        #: open phase spans per name (stack of begin ts), for close_all
        self._open_spans: List[Tuple[str, int, float]] = []
        #: per-OS-thread phase lane allocation (worker pools run phases
        #: concurrently; each real thread gets its own B/E nesting lane)
        self._lane_local = threading.local()
        self._lane_lock = threading.Lock()
        self._lane_count = 0

    # -- lifecycle ---------------------------------------------------------

    def enable(self, *, max_events: int = 200_000) -> None:
        """Start recording (resets any previous buffer)."""
        self.reset()
        self._max_events = max_events
        self._events = deque()
        self._wall0 = time.perf_counter()
        self.enabled = True
        self._meta("process_name", TRACE_PID, 0, {"name": "taskgrind-sim"})
        self._meta("thread_name", TRACE_PID, JOIN_TID, {"name": "join-nodes"})
        self._meta("thread_name", TRACE_PID, PHASE_TID, {"name": "phases"})

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.enabled = False
        self._events = deque()
        self.dropped = 0
        self._vclock = None
        self._ops_per_second = 0.0
        self._vbase_us = 0.0
        self._flow_seq = 0
        self._open_segs = {}
        self.seg_spans = {}
        self._open_spans = []

    def set_vclock(self, fn: Optional[Callable[[], float]],
                   ops_per_second: float) -> None:
        """Bind the cost-model clock; timestamps become virtual time.

        Re-basing: the current wall-derived timestamp becomes the virtual
        origin, so a machine constructed after :meth:`enable` does not send
        the axis backwards.
        """
        if fn is not None and ops_per_second > 0:
            self._vbase_us = self._wall_us()
        self._vclock = fn
        self._ops_per_second = ops_per_second

    # -- clocks ------------------------------------------------------------

    def _wall_us(self) -> float:
        return (time.perf_counter() - self._wall0) * 1e6

    def now_us(self) -> float:
        """Current timestamp on the trace axis (virtual when bound)."""
        fn = self._vclock
        if fn is not None and self._ops_per_second > 0:
            return self._vbase_us + fn() / self._ops_per_second * 1e6
        return self._wall_us()

    # -- low-level emit ----------------------------------------------------

    def _push(self, ev: dict) -> None:
        if self._max_events and len(self._events) >= self._max_events:
            self._events.popleft()
            self.dropped += 1
        self._events.append(ev)

    # -- per-run scope -----------------------------------------------------

    def new_run(self) -> None:
        """Open a fresh per-run scope without dropping the recorded buffer.

        Clears the cross-run *anchoring* state — open-segment and completed
        span tables keyed by segment id — because segment ids restart at 0
        each run: without this, a race flow in run 2 could anchor into run
        1's spans.
        """
        self._open_segs = {}
        self.seg_spans = {}

    def _meta(self, name: str, pid: int, tid: int, args: dict) -> None:
        self._push({"ph": "M", "name": name, "pid": pid, "tid": tid,
                    "ts": 0, "args": args})

    def _args(self, extra: Optional[dict]) -> dict:
        args = {"wall_s": time.perf_counter() - self._wall0}
        if extra:
            args.update(extra)
        return args

    # -- spans -------------------------------------------------------------

    def begin_span(self, name: str, tid: int, *, cat: str = "phase",
                   args: Optional[dict] = None) -> float:
        ts = self.now_us()
        self._push({"ph": "B", "name": name, "cat": cat, "pid": TRACE_PID,
                    "tid": tid, "ts": ts, "args": self._args(args)})
        self._open_spans.append((name, tid, ts))
        return ts

    def end_span(self, name: str, tid: int, *, cat: str = "phase",
                 args: Optional[dict] = None) -> float:
        ts = self.now_us()
        self._push({"ph": "E", "name": name, "cat": cat, "pid": TRACE_PID,
                    "tid": tid, "ts": ts, "args": self._args(args)})
        for i in range(len(self._open_spans) - 1, -1, -1):
            if self._open_spans[i][0] == name and \
                    self._open_spans[i][1] == tid:
                del self._open_spans[i]
                break
        return ts

    def phase_lane(self) -> int:
        """The calling OS thread's phase-span tid (stable per thread)."""
        tid = getattr(self._lane_local, "tid", None)
        if tid is None:
            with self._lane_lock:
                tid = PHASE_TID + self._lane_count
                self._lane_count += 1
            self._lane_local.tid = tid
        return tid

    # -- segments (span + remembered anchor for flow events) ---------------

    @staticmethod
    def seg_tid(thread_id: int) -> int:
        return JOIN_TID if thread_id < 0 else thread_id

    def segment_begin(self, seg_id: int, thread_id: int, kind: str,
                      label: str) -> None:
        tid = self.seg_tid(thread_id)
        ts = self.begin_span(f"seg#{seg_id}", tid, cat="segment",
                             args={"kind": kind, "label": label})
        self._open_segs[seg_id] = (tid, ts)

    def segment_end(self, seg_id: int, *, args: Optional[dict] = None) -> None:
        opened = self._open_segs.pop(seg_id, None)
        if opened is None:
            return
        tid, ts0 = opened
        ts = self.end_span(f"seg#{seg_id}", tid, cat="segment", args=args)
        self.seg_spans[seg_id] = (tid, ts0, ts)

    # -- instants ----------------------------------------------------------

    def instant(self, name: str, thread_id: int = PHASE_TID, *,
                cat: str = "event", args: Optional[dict] = None) -> None:
        self._push({"ph": "i", "name": name, "cat": cat, "pid": TRACE_PID,
                    "tid": self.seg_tid(thread_id), "ts": self.now_us(),
                    "s": "t", "args": self._args(args)})

    # -- counters ----------------------------------------------------------

    def counter(self, name: str, values: Dict[str, float], *,
                tid: int = PHASE_TID, cat: str = "counter") -> None:
        """One Chrome counter sample (``ph: "C"``): stacked series per key.

        Used by the attribution profiler to merge cumulative per-class op
        totals onto the timeline lanes; ``values`` maps series name to the
        sample value at the current timestamp.
        """
        self._push({"ph": "C", "name": name, "cat": cat, "pid": TRACE_PID,
                    "tid": self.seg_tid(tid), "ts": self.now_us(),
                    "args": dict(values)})

    # -- flows -------------------------------------------------------------

    def flow(self, name: str, *, cat: str, src_tid: int, src_ts: float,
             dst_tid: int, dst_ts: float,
             args: Optional[dict] = None) -> int:
        """One flow arrow (``s`` then ``f``) between two points."""
        self._flow_seq += 1
        fid = self._flow_seq
        base = {"name": name, "cat": cat, "pid": TRACE_PID, "id": fid,
                "args": self._args(args)}
        self._push(dict(base, ph="s", tid=self.seg_tid(src_tid), ts=src_ts))
        self._push(dict(base, ph="f", bp="e", tid=self.seg_tid(dst_tid),
                        ts=max(dst_ts, src_ts)))
        return fid

    def edge_flow(self, name: str, src_tid: int, dst_tid: int,
                  args: Optional[dict] = None) -> None:
        """A happens-before edge observed *now* (both ends at current ts)."""
        ts = self.now_us()
        self.flow(name, cat="hb", src_tid=src_tid, src_ts=ts,
                  dst_tid=dst_tid, dst_ts=ts, args=args)

    def race_flow(self, s1_id: int, s2_id: int, *,
                  t1: Optional[int] = None, t2: Optional[int] = None,
                  args: Optional[dict] = None) -> bool:
        """Link the two racing segments' spans (mid-span anchors).

        When either segment has no recorded span (offline analysis loads the
        graph without replaying spans), falls back to a now-anchored flow on
        the segments' thread lanes when ``t1``/``t2`` are given, else
        returns False.
        """
        a = self.seg_spans.get(s1_id)
        b = self.seg_spans.get(s2_id)
        if a is None or b is None:
            if t1 is None or t2 is None:
                return False
            ts = self.now_us()
            self.flow(f"race seg#{s1_id}->seg#{s2_id}", cat="race",
                      src_tid=t1, src_ts=ts, dst_tid=t2, dst_ts=ts,
                      args=args)
            return True
        if a[1] > b[1]:                 # flow arrows point forward in time
            a, b = b, a
            s1_id, s2_id = s2_id, s1_id
        self.flow(f"race seg#{s1_id}->seg#{s2_id}", cat="race",
                  src_tid=a[0], src_ts=(a[1] + a[2]) / 2,
                  dst_tid=b[0], dst_ts=(b[1] + b[2]) / 2, args=args)
        return True

    # -- export ------------------------------------------------------------

    def close_all(self) -> None:
        """Emit ``E`` events for spans still open (end-of-run segments)."""
        for seg_id in reversed(list(self._open_segs)):
            self.segment_end(seg_id, args={"unterminated": True})
        for name, tid, _ts in reversed(list(self._open_spans)):
            self.end_span(name, tid, args={"unterminated": True})

    def to_dict(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Events are sorted by timestamp (stable, so same-ts begin/end pairs
        keep their emission order and back-dated flow anchors land inside
        the spans they reference) — the exported ``ts`` sequence is
        monotone non-negative.
        """
        self.close_all()
        events = sorted(self._events, key=lambda e: e["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "taskgrind",
                "axis": ("virtual" if self._vclock is not None else "wall"),
                "dropped": self.dropped,
                "flow_count": self._flow_seq,
            },
        }

    def export(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    def __len__(self) -> int:
        return len(self._events)


#: The process-wide tracer.  Hook sites prebind it at import time and guard
#: every emission with ``if _TRACER.enabled`` — the disabled cost is one
#: attribute check on cold paths only.
_TRACER = TimelineTracer()


def get_tracer() -> TimelineTracer:
    """The process-wide timeline tracer."""
    return _TRACER
