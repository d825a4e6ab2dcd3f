"""Deterministic simulated threads with strict token passing.

Each simulated thread is a real Python thread, but **exactly one runs at any
moment**: the one holding the scheduler token.  It runs guest code until it
hits a *scheduling point* (:meth:`Scheduler.yield_point`,
:meth:`Scheduler.block_until`, or termination), picks the next thread
itself and hands the token straight to it.  A thread that picks itself
keeps running without touching an OS primitive.  The thread that called
:meth:`Scheduler.run` (the master) only starts the first slice and waits
for the run to end.  Every simulated thread pins itself to one CPU, so
guest execution stays on one core across handoffs.

Consequences, all load-bearing for the reproduction:

* **Determinism** — the interleaving is a pure function of the run seed, so
  every verdict in Table I is reproducible, and sweeping seeds reproduces the
  schedule-sensitivity ranges the paper reports for Archer.
* **Deadlock detection** — when every live thread is blocked and no predicate
  is satisfied, :class:`repro.errors.SimDeadlock` is raised with a dump of the
  wait reasons.  This is how the Table II ``deadlock`` cells for Taskgrind at
  4 threads are produced (by an actual circular wait in the modeled tool, not
  by fiat).
* **Virtual time** — threads carry a virtual clock (charged by the cost
  model); the scheduler always runs the runnable thread with the smallest
  clock, giving a discrete-event notion of parallel execution time.

Guest code never sees this module directly; the runtimes
(:mod:`repro.openmp`, :mod:`repro.cilk`) call the yield/block primitives at
their task scheduling points, mirroring where a real runtime would enter the
kernel or the Valgrind scheduler.

Which simulated thread is running is one attribute, not a thread-local
lookup: the token holder is the only real thread executing scheduler or
guest code, so :meth:`Scheduler.current` reads the thread :meth:`_next`
last picked (or the one :meth:`_abort_all` is unwinding).  Outside a run
it is ``None``, and the master never asks while a run is in flight.
"""

from __future__ import annotations

import enum
import os
import threading
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import MachineError, SimDeadlock
from repro.obs.tracer import get_tracer
from repro.util.rng import RngHub

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import ThreadContext

_TRACER = get_tracer()

#: seconds of *real* time without a scheduling decision before the master
#: declares a hang
_SLICE_TIMEOUT = 300.0


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class _Abort(BaseException):
    """Injected into simulated threads to unwind them on scheduler shutdown."""


class SimThread:
    """One simulated thread: a real thread gated by its token lock."""

    def __init__(self, sched: "Scheduler", tid: int, fn: Callable[[], object],
                 name: str) -> None:
        self.sched = sched
        self.id = tid
        self.name = name
        self.fn = fn
        self.state = ThreadState.NEW
        self.vtime = 0.0                     # simulated ops executed
        self.block_reason: str = ""
        self.block_pred: Optional[Callable[[], bool]] = None
        self.exc: Optional[BaseException] = None
        self.result: object = None
        #: guest execution state (shadow call stack, stack, lines), set by
        #: :meth:`repro.machine.machine.Machine.new_thread`
        self.context: Optional["ThreadContext"] = None
        # held while the thread is parked; releasing it hands over the token
        self._token = threading.Lock()
        self._token.acquire()
        self._real = threading.Thread(target=self._entry,
                                      name=f"sim-{tid}-{name}", daemon=True)

    # -- real-thread side -------------------------------------------------

    def _entry(self) -> None:
        sched = self.sched
        try:
            self._park()
            sched._pin()
            self.result = self.fn()
        except _Abort:
            pass
        except BaseException as exc:    # noqa: BLE001 - guest faults propagate
            self.exc = exc
        finally:
            self.state = ThreadState.DONE
            if _TRACER.enabled:
                _TRACER.instant("thread.exit", self.id, cat="thread",
                                args={"name": self.name,
                                      "faulted": self.exc is not None})
            if not sched._aborting:
                nxt = sched._next(self)
                if nxt is not None:
                    nxt._token.release()

    def _park(self) -> None:
        """Block until handed the token (abort hands it over too)."""
        self._token.acquire()
        if self.sched._aborting:
            raise _Abort()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimThread({self.id}, {self.name}, {self.state.value})"


class Scheduler:
    """Direct token-handoff scheduler over :class:`SimThread` instances."""

    #: probability of picking a uniformly random runnable thread instead of
    #: the min-vtime one — models OS scheduling noise / wake latencies, and
    #: is the source of the seed-to-seed verdict/report variance the paper
    #: observes for Archer (e.g. Table II's "149 to 273" report range).
    JITTER = 0.25

    def __init__(self, rng: Optional[RngHub] = None) -> None:
        self.rng = rng or RngHub(0)
        self.threads: List[SimThread] = []
        self.now = 0.0                       # vtime of the last-run slice
        self.switches = 0                    # picks, self-picks included
        self.self_picks = 0                  # slices resumed with no handoff
        #: the CPU every simulated thread pins itself to; None when unpinned
        self.cpu: Optional[int] = (min(os.sched_getaffinity(0))
                                   if hasattr(os, "sched_setaffinity")
                                   else None)
        #: replay hooks (repro.replay).  ``pick_observer(tid)`` is called
        #: after every scheduling decision; ``pick_override(ready)`` — when
        #: set — *makes* the decision instead of the seeded policy (and the
        #: sched.* rng streams are not drawn, which is safe because every
        #: stream is independent).
        self.pick_observer: Optional[Callable[[int], None]] = None
        self.pick_override: Optional[
            Callable[[List["SimThread"]], "SimThread"]] = None
        self.peak_live = 0                   # max concurrently-live threads
        # held by the master until a token holder hands it the outcome
        self._master = threading.Lock()
        self._outcome: Optional[BaseException] = None
        self._aborting = False
        self._started = False
        #: the token holder: set at each pick, cleared when the run ends
        self._running: Optional[SimThread] = None

    # -- introspection ------------------------------------------------------

    def current(self) -> SimThread:
        """The simulated thread that holds the token (the caller)."""
        t = self._running
        if t is None:
            raise MachineError("not running on a simulated thread")
        return t

    def current_id(self) -> int:
        return self.current().id

    def maybe_current(self) -> Optional[SimThread]:
        return self._running

    def stats(self) -> dict:
        """The ``sched`` block of ``taskgrind-stats/1``."""
        return {"switches": self.switches, "self_picks": self.self_picks,
                "cpu": self.cpu}

    # -- thread creation -------------------------------------------------------

    def spawn(self, fn: Callable[[], object], name: str = "") -> SimThread:
        """Create a simulated thread; it becomes runnable immediately.

        Safe to call from the master or from a running simulated thread
        (exactly one real thread is ever active, so no further locking).
        """
        tid = len(self.threads)
        t = SimThread(self, tid, fn, name or f"t{tid}")
        self.threads.append(t)
        t.state = ThreadState.RUNNABLE
        t.vtime = self.now
        live = sum(1 for x in self.threads if x.state != ThreadState.DONE)
        self.peak_live = max(self.peak_live, live)
        if _TRACER.enabled:
            _TRACER._meta("thread_name", 1, tid, {"name": t.name})
            _TRACER.instant("thread.spawn", tid, cat="thread",
                            args={"name": t.name, "live": live})
        t._real.start()
        return t

    # -- scheduling points (called from simulated threads) ------------------------

    def yield_point(self) -> None:
        """Give the scheduler a chance to run somebody else."""
        t = self.current()
        t.state = ThreadState.RUNNABLE
        self._switch(t)

    def block_until(self, pred: Callable[[], bool], reason: str) -> None:
        """Suspend the calling thread until ``pred()`` holds.

        The predicate is evaluated at every later scheduling decision; it
        must be cheap and must only read state mutated by other simulated
        threads.
        """
        if pred():
            return
        t = self.current()
        t.state = ThreadState.BLOCKED
        t.block_pred = pred
        t.block_reason = reason
        self._switch(t)
        t.block_pred = None
        t.block_reason = ""

    def _switch(self, cur: SimThread) -> None:
        """End ``cur``'s slice: pick the next one and hand it the token."""
        if self._aborting:
            raise _Abort()
        nxt = self._next(cur)
        if nxt is cur:
            self.self_picks += 1
            return
        if nxt is not None:
            nxt._token.release()
        cur._park()

    def _next(self, cur: Optional[SimThread]) -> Optional[SimThread]:
        """Close ``cur``'s slice and pick the thread that runs next.

        Runs only on the token holder.  Returns None once the run is over:
        the outcome (None, or the exception to raise) has gone to the
        master, and the caller must touch no scheduler state after that.
        """
        if cur is not None:
            self.now = max(self.now, cur.vtime)
            if cur.exc is not None:
                return self._finish(cur.exc)
        live = [t for t in self.threads if t.state != ThreadState.DONE]
        if not live:
            return self._finish(None)
        try:
            t = self._pick(live)
        except Exception as exc:        # the master raises it, not the guest
            return self._finish(exc)
        if t is None:
            return self._finish(SimDeadlock(
                {x.id: x.block_reason or x.state.value for x in live}))
        if t.state == ThreadState.BLOCKED:
            # Time passed while waiting: jump to the present.
            t.vtime = max(t.vtime, self.now)
        t.state = ThreadState.RUNNING
        self.switches += 1
        self._running = t
        return t

    def _finish(self, outcome: Optional[BaseException]) -> None:
        self._outcome = outcome
        self._master.release()

    def _pin(self) -> None:
        """Pin the calling simulated thread to :attr:`cpu`."""
        if self.cpu is None:
            return
        try:
            os.sched_setaffinity(0, {self.cpu})    # pid 0: this thread
        except OSError:
            self.cpu = None

    # -- master ---------------------------------------------------------------------

    def run(self) -> None:
        """Drive all simulated threads to completion.

        Re-raises the first guest exception; raises :class:`SimDeadlock` when
        no thread can make progress.  Must be called from the thread that
        created the scheduler (the "Valgrind core" thread).
        """
        if self._started:
            raise MachineError("Scheduler.run is single-shot")
        self._started = True
        self._master.acquire()
        try:
            first = self._next(None)
            if first is not None:
                first._token.release()
            self._await_outcome()
            if self._outcome is not None:
                raise self._outcome
        except BaseException:
            self._abort_all()
            raise
        finally:
            self._running = None
        self._abort_all()        # only joins when everything finished cleanly

    def _await_outcome(self) -> None:
        """Wait for the run to end; a run whose switch count stalls for
        ``_SLICE_TIMEOUT`` has hung."""
        seen = self.switches
        while not self._master.acquire(timeout=_SLICE_TIMEOUT):
            if self.switches == seen:
                tid = next((t.id for t in self.threads
                            if t.state == ThreadState.RUNNING), None)
                raise MachineError(
                    f"simulated thread {tid} hung (real deadlock?)")
            seen = self.switches

    def _pick(self, live: List[SimThread]) -> Optional[SimThread]:
        ready: List[SimThread] = []
        for t in live:
            if t.state == ThreadState.RUNNABLE:
                ready.append(t)
            elif t.state == ThreadState.BLOCKED:
                assert t.block_pred is not None
                if t.block_pred():
                    ready.append(t)
        if not ready:
            return None
        if self.pick_override is not None:
            chosen = self.pick_override(ready)
            if self.pick_observer is not None:
                self.pick_observer(chosen.id)
            return chosen
        chosen = None
        if len(ready) > 1:
            if self.rng.randint("sched.jitter", 0, 100) < self.JITTER * 100:
                chosen = ready[self.rng.choice("sched.jitterpick",
                                               len(ready))]
            else:
                best = min(t.vtime for t in ready)
                ready = [t for t in ready if t.vtime == best]
        if chosen is None:
            if len(ready) > 1:
                chosen = ready[self.rng.choice("sched.tiebreak", len(ready))]
            else:
                chosen = ready[0]
        if self.pick_observer is not None:
            self.pick_observer(chosen.id)
        return chosen

    def _abort_all(self) -> None:
        """Unwind every parked thread, one at a time, and join them all.

        A parked thread wakes with ``_aborting`` set and raises
        :class:`_Abort`; a thread still running (a hang) raises it at its
        next scheduling point.
        """
        self._aborting = True
        for t in self.threads:
            if t.state not in (ThreadState.DONE, ThreadState.RUNNING):
                self._running = t        # it unwinds as the token holder
                try:
                    t._token.release()
                except RuntimeError:
                    pass    # a thread still running handed it over already
            t._real.join(timeout=30)
