"""Deterministic exact-charge overhead-attribution profiler.

Taskgrind's value proposition is a *known, bounded* heavyweight overhead;
this module attributes every virtual-time op the cost model charges to a
two-axis key:

* **instrumentation class** — which part of the tool paid (plain or
  atomic access recording, write-combining hit/spill/flush, HB query,
  suppression class, elided no-op, translation, scheduling, sync,
  alloc, ...);
* **guest attribution frame** — where the guest was when it paid: the
  shadow call stack joined with ``;`` (vex SuperBlock symbols included,
  because :meth:`GuestVM.run` executes inside a shadow frame), falling
  back to the task ancestry label from the segment builder, falling back
  to ``t{tid}``.

Two accumulation axes:

* the **virtual-time axis** mirrors every ``Clock.charge`` call made by
  ``CostModel.charge_*`` — per simulated thread, so bucket totals sum to
  ``CostModel.vtime_ops`` exactly under Taskgrind's serialized clock and
  profiles are bit-identical across runs with the same scheduler seed
  (virtual time has no wall-clock jitter);
* the **count axis** books deterministic event counts that carry no ops
  of their own (write-combining hits booked at drain time, HB query
  tiers, suppression verdicts, per-site elision counts).

Zero-overhead-when-disabled contract: every hook site in the hot paths
is guarded by a single attribute check (``if _PROF.enabled:`` on the
tool side, ``if self._prof is not None:`` inside the cost model), the
same pattern the tracer and metrics registry already use.  This module
must stay stdlib-only at module level — it is imported by the cost
model, the recorder, the suppression engine and the elider; the heavy
document/CLI layer lives in :mod:`repro.obs.profdoc`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: schema tag of the on-disk document built from a snapshot (the writer
#: itself lives in :mod:`repro.obs.profdoc`)
PROFILE_SCHEMA = "taskgrind-profile/1"

#: frame used for count-axis events that have no meaningful guest frame
NO_FRAME = "-"

FrameProvider = Callable[[int], Optional[str]]


def format_ops(ops: float) -> str:
    """Deterministic, shortest-roundtrip rendering of an op count.

    Integral values (the overwhelmingly common case: every cost-model
    parameter is integral) print without a decimal point so folded
    output matches classic ``flamegraph.pl`` expectations.
    """
    if ops == int(ops):
        return str(int(ops))
    return repr(ops)


class Profiler:
    """Singleton accumulator for both attribution axes.

    Not thread-safe by design: the simulator is single-threaded (guest
    threads are green threads under one scheduler), matching the rest of
    the observability layer.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: virtual-time axis: (tid, klass, frame) -> ops
        self._vtime: Dict[Tuple[int, str, str], float] = {}
        #: count axis: (klass, frame) -> event count
        self._counts: Dict[Tuple[str, str], int] = {}
        #: per-(tid, klass) running totals for cheap timeline sampling
        self._tclass: Dict[Tuple[int, str], float] = {}
        #: total ops mirrored in *charge order* — bit-identical to the
        #: serialized clock's ``global_ops`` because both start at zero
        #: and perform the same float additions in the same order
        self.total_ops = 0.0
        self._access_hint: Optional[str] = None
        self._frame_provider: Optional[FrameProvider] = None
        self._ancestry_provider: Optional[FrameProvider] = None
        self._join_cache: Dict[Tuple[str, ...], str] = {}
        #: free-form run metadata stamped into the exported document
        self.meta: Dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        """Arm the profiler and drop all prior state."""
        self.reset()
        self.enabled = True

    def disable(self) -> None:
        """Disarm, keeping the buckets.  The frame providers close over
        the run's machine and recorder, so they are unbound: callers
        write their profile before this, and nothing reads a frame after."""
        self.enabled = False
        self._frame_provider = None
        self._ancestry_provider = None

    def reset(self) -> None:
        self._vtime.clear()
        self._counts.clear()
        self._tclass.clear()
        self.total_ops = 0.0
        self._access_hint = None
        self._frame_provider = None
        self._ancestry_provider = None
        self._join_cache.clear()
        self.meta = {}

    # -- attribution frames --------------------------------------------

    def bind_frame_provider(self, fn: FrameProvider) -> None:
        """Primary frame source: the machine's shadow call stacks."""
        self._frame_provider = fn

    def bind_ancestry_provider(self, fn: FrameProvider) -> None:
        """Fallback frame source: task ancestry from the recorder."""
        self._ancestry_provider = fn

    def join_frames(self, names: Tuple[str, ...]) -> str:
        """Memoized ``;``-join of a shadow-stack name tuple."""
        frame = self._join_cache.get(names)
        if frame is None:
            frame = ";".join(names)
            self._join_cache[names] = frame
        return frame

    def frame_for(self, tid: int) -> str:
        for provider in (self._frame_provider, self._ancestry_provider):
            if provider is not None:
                frame = provider(tid)
                if frame:
                    return frame
        return f"t{tid}"

    # -- access subclassification hints --------------------------------

    def hint_access(self, klass: str) -> None:
        """Set the class of the *next* ``charge_access``.

        The access hub dispatches to the tool *before* charging, so the
        tool records which branch it took (recorded / symbol-filtered /
        elided no-op / sync-skipped / replay-clipped) and the cost model
        consumes the hint when the charge lands.
        """
        self._access_hint = klass

    def take_access_hint(self, default: str) -> str:
        hint = self._access_hint
        if hint is None:
            return default
        self._access_hint = None
        return hint

    # -- the two axes --------------------------------------------------

    def charge(self, tid: int, klass: str, ops: float,
               frame: Optional[str] = None) -> None:
        """Mirror one ``Clock.charge`` onto the virtual-time axis."""
        if frame is None:
            frame = self.frame_for(tid)
        key = (tid, klass, frame)
        self._vtime[key] = self._vtime.get(key, 0.0) + ops
        tkey = (tid, klass)
        self._tclass[tkey] = self._tclass.get(tkey, 0.0) + ops
        self.total_ops += ops

    def count(self, klass: str, frame: str = NO_FRAME, n: int = 1) -> None:
        """Book ``n`` deterministic events on the count axis."""
        key = (klass, frame)
        self._counts[key] = self._counts.get(key, 0) + n

    # -- views ----------------------------------------------------------

    def vtime_cells(self) -> List[Tuple[int, str, str, float]]:
        """Sorted (tid, klass, frame, ops) rows — the canonical order."""
        return sorted((tid, klass, frame, ops)
                      for (tid, klass, frame), ops in self._vtime.items())

    def count_cells(self) -> List[Tuple[str, str, int]]:
        return sorted((klass, frame, n)
                      for (klass, frame), n in self._counts.items())

    def class_totals(self) -> Dict[str, float]:
        """Virtual-time ops aggregated over threads and frames."""
        totals: Dict[str, float] = {}
        for (_tid, klass), ops in self._tclass.items():
            totals[klass] = totals.get(klass, 0.0) + ops
        return dict(sorted(totals.items()))

    def thread_class_totals(self, tid: int) -> Dict[str, float]:
        return {klass: ops for (t, klass), ops in sorted(self._tclass.items())
                if t == tid}

    def folded(self) -> str:
        """Collapsed-stack flamegraph text (``flamegraph.pl`` input).

        One line per virtual-time bucket, ``t{tid};frame;klass ops``,
        lexicographically sorted so equal profiles are byte-identical.
        """
        lines = [f"t{tid};{frame};{klass} {format_ops(ops)}"
                 for tid, klass, frame, ops in self.vtime_cells()]
        lines.sort()
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """In-memory form of the profile; profdoc serializes this."""
        return {
            "schema": PROFILE_SCHEMA,
            "vtime": [list(row) for row in self.vtime_cells()],
            "counts": [list(row) for row in self.count_cells()],
            "meta": dict(self.meta, total_ops=self.total_ops),
        }

    # -- timeline merge -------------------------------------------------

    def sample_timeline(self, tracer, tid: int) -> None:
        """Emit one Chrome counter event with this thread's cumulative
        per-class ops onto the tracer's timeline lanes.

        Called from cold recorder paths (segment close) and only when
        both the profiler and the tracer are enabled, so counters ride
        the same virtual-time axis as the PR 3 lanes.
        """
        args = self.thread_class_totals(tid)
        if args:
            tracer.counter("prof.ops", args, tid=tid)

    def __len__(self) -> int:
        return len(self._vtime) + len(self._counts)


_PROFILER = Profiler()


def get_profiler() -> Profiler:
    """Return the process-wide profiler singleton."""
    return _PROFILER
