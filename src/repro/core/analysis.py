"""Determinacy-race analysis (the paper's Algorithm 1).

The pass emits its conflicts as one :class:`ConflictTable`: four int64
columns ``(i, j, lo, hi)``, one row per conflicting byte range (a
*piece*), rows grouped by segment pair in :meth:`RaceCandidate.key`
order.  The sweep builds no per-pair object.  The Section IV
suppressions (:meth:`repro.core.suppress.SuppressionEngine.filter_all`)
classify all rows at once, and only pairs with surviving bytes become
:class:`RaceCandidate` objects.  :func:`analyze_and_suppress` is the whole
back half of every run — pass, raw count, replay pair filter,
suppression, then the Listing-6 reports with their notes, witnesses and
timeline race flows — shared by the online tool and the offline and
served analyzers.

There is one pass, :func:`find_races`.  It produces the table the
faithful Algorithm 1 would — for every pair of segments with no
happens-before path, ``s1.w ∩ (s2.r ∪ s2.w)`` — without visiting all
:math:`O(n^2)` pairs: a vectorized sweep over all access intervals
(:meth:`repro.core.npkernel.KernelContext.candidate_pairs`) finds only
the segment pairs that actually share bytes, as two index arrays sorted
by ``(i, j)``, and
:meth:`~repro.core.npkernel.KernelContext.check_pairs` filters them by
happens-before and intersects them.  Given the run's suppression engine,
the sweep leaves out the pairs that share bytes only in frames both
segments pushed themselves: Section IV-D acts twice, on whole pairs
before the pair check and on pieces after it.  The faithful all-pairs
pass and the per-pair Python check are test oracles
(``tests/core/analysis_oracle.py``), not production paths.

The pair check runs in chunks of the kernel's own batch
(:data:`~repro.core.npkernel._PAIR_BATCH` pairs) under a supervisor: each
chunk gets a bounded number of retries with exponential backoff and an
optional deadline that runs from when a worker starts it; chunks that keep
failing are quarantined rather than allowed to take down the whole pass,
and the result is a :class:`PartialAnalysis` that states exactly how many
candidate pairs went unchecked.  One worker (the default) is the paper's
sequential pass; more workers are its Section VII future-work item ("the
analysis is embarrassingly parallel, but currently run sequentially"),
which the A1 ablation measures.

Happens-before has one answer: the graph's bitmask reachability DP,
built at most once, in ``analysis.prepare`` when some candidate pair
reaches the check, and packed into per-segment rows the pair check reads
(:meth:`~repro.core.npkernel.KernelContext.prepare_hb`).  A run with no
candidate pair builds it only if a later reader asks.

Phase names: ``analysis.prepare`` for the reachability DP and its packed
rows, ``analysis.candidates`` for the interval pools and the sweep,
``analysis.pairs`` for the pair check alone (booked per worker thread, so
its wall seconds sum across workers) and ``analysis.supervise`` for the
supervised chunk loop around it.  The report step books ``report``, and
its ``--explain`` witnesses ``explain`` inside it.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.core import npkernel
from repro.core.npkernel import KernelContext
from repro.core.reports import RaceReport, build_report, build_witnesses
from repro.core.segments import Segment, SegmentGraph
from repro.faults.inject import get_injector
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.util.intervals import IntervalSet

if TYPE_CHECKING:       # both import this module
    from repro.core.suppress import SuppressionEngine
    from repro.machine.allocator import Allocator

_FAULTS = get_injector()

#: seconds before a failed chunk's first retry; each later round doubles it
RETRY_BACKOFF_S = 0.01

#: one block of conflict rows: ``(i, j, lo, hi)`` columns of equal length
Rows = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]


@dataclass
class RaceCandidate:
    """An unordered segment pair conflicting on ``ranges`` (pre-suppression)."""

    s1: Segment
    s2: Segment
    ranges: IntervalSet

    def key(self) -> Tuple[int, int]:
        a, b = self.s1.id, self.s2.id
        return (a, b) if a <= b else (b, a)


class ConflictTable:
    """Algorithm 1's conflicts as columns: one int64 row ``(i, j, lo, hi)``
    per conflict piece.

    ``i < j`` index ``segs``, the analysed segments in ascending id order,
    so sorting rows by ``(i, j, lo)`` groups each pair's pieces in
    :meth:`RaceCandidate.key` order.  A pair's rows are exactly the pieces
    of its normalized conflict :class:`IntervalSet`: ascending, disjoint
    and non-adjacent.
    """

    __slots__ = ("segs", "i", "j", "lo", "hi")

    def __init__(self, segs: Sequence[Segment], i: np.ndarray,
                 j: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        self.segs = segs
        self.i = i
        self.j = j
        self.lo = lo
        self.hi = hi

    @classmethod
    def build(cls, segs: Sequence[Segment],
              blocks: Iterable[Rows]) -> "ConflictTable":
        """Concatenate row blocks and sort them into key order."""
        cols = [[], [], [], []]
        for block in blocks:
            for col, part in zip(cols, block):
                col.append(np.asarray(part, dtype=np.int64))
        if not cols[0]:
            empty = np.empty(0, dtype=np.int64)
            return cls(segs, empty, empty, empty, empty)
        i, j, lo, hi = (np.concatenate(col) for col in cols)
        order = np.lexsort((lo, j, i))
        return cls(segs, i[order], j[order], lo[order], hi[order])

    def __len__(self) -> int:
        return int(self.i.shape[0])

    def pair_starts(self) -> np.ndarray:
        """Row index of each pair's first piece."""
        n = len(self)
        new = np.ones(n, dtype=bool)
        if n > 1:
            np.logical_or(self.i[1:] != self.i[:-1],
                          self.j[1:] != self.j[:-1], out=new[1:])
        return np.flatnonzero(new)

    def pair_count(self) -> int:
        return int(self.pair_starts().shape[0])

    def select(self, mask: np.ndarray) -> "ConflictTable":
        """The rows where ``mask`` holds, order kept."""
        return ConflictTable(self.segs, self.i[mask], self.j[mask],
                             self.lo[mask], self.hi[mask])

    def pair_mask(self, admits: Callable[[int, int], bool]) -> np.ndarray:
        """Row mask keeping every piece of the pairs for which
        ``admits(s1.id, s2.id)`` holds."""
        starts = self.pair_starts()
        segs = self.segs
        keep = np.fromiter(
            (admits(segs[a].id, segs[b].id)
             for a, b in zip(self.i[starts].tolist(),
                             self.j[starts].tolist())),
            dtype=bool, count=starts.shape[0])
        return np.repeat(keep, np.diff(np.append(starts, len(self))))

    def candidates(self) -> List[RaceCandidate]:
        """One :class:`RaceCandidate` per pair, in key order."""
        segs = self.segs
        starts = self.pair_starts().tolist()
        ends = starts[1:] + [len(self)]
        i, j = self.i.tolist(), self.j.tolist()
        lo, hi = self.lo.tolist(), self.hi.tolist()
        out: List[RaceCandidate] = []
        for a, b in zip(starts, ends):
            ranges = IntervalSet()
            ranges._los = lo[a:b]
            ranges._his = hi[a:b]
            out.append(RaceCandidate(segs[i[a]], segs[j[a]], ranges))
        return out


@dataclass
class QuarantinedChunk:
    """One chunk the supervisor gave up on after exhausting retries."""

    index: int
    pairs: int
    attempts: int
    error: str

    def to_dict(self) -> dict:
        return {"index": self.index, "pairs": self.pairs,
                "attempts": self.attempts, "error": self.error}


@dataclass
class PartialAnalysis:
    """:func:`find_races`'s result: conflicts + explicit coverage.

    ``table`` always holds the rows of every chunk that *did* complete, in
    key order; ``unchecked_pairs`` says exactly how much of the candidate
    space the quarantined chunks cover.  A fault-free run has
    ``complete == True`` and quarantines nothing.
    """

    table: ConflictTable = field(
        default_factory=lambda: ConflictTable.build((), []))
    chunks_total: int = 0
    chunks_ok: int = 0
    pairs_total: int = 0
    pairs_checked: int = 0
    retries: int = 0
    deadline_hits: int = 0
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    #: access intervals the Section IV-D rule classed local to their
    #: segment before the candidate sweep
    stack_local_intervals: int = 0

    @property
    def candidates(self) -> List[RaceCandidate]:
        """The table as a sorted candidate list."""
        return self.table.candidates()

    @property
    def complete(self) -> bool:
        return not self.quarantined and self.pairs_checked == self.pairs_total

    @property
    def unchecked_pairs(self) -> int:
        return self.pairs_total - self.pairs_checked

    def to_dict(self) -> dict:
        return {
            "schema": "taskgrind-partial-analysis/1",
            "complete": self.complete,
            "chunks": {"total": self.chunks_total, "ok": self.chunks_ok,
                       "quarantined": len(self.quarantined)},
            "pairs": {"total": self.pairs_total,
                      "checked": self.pairs_checked,
                      "unchecked": self.unchecked_pairs},
            "retries": self.retries,
            "deadline_hits": self.deadline_hits,
            "quarantine": [q.to_dict() for q in self.quarantined],
        }

    def summary(self) -> str:
        if self.complete:
            return (f"all {self.pairs_total} candidate pairs checked "
                    f"({self.chunks_total} chunks)")
        return (f"{len(self.quarantined)} of {self.chunks_total} chunks "
                f"quarantined; {self.unchecked_pairs} of {self.pairs_total} "
                f"candidate pairs unchecked")


def _attempt(check: Callable[[int], Tuple[Rows, int]],
             pending: Sequence[int], workers: int,
             deadline_s: Optional[float]
             ) -> Tuple[Dict[int, object], List[int]]:
    """One attempt at every pending chunk.

    Returns ``(outcome, late)``: ``outcome[index]`` is the chunk's
    ``(rows, ordered)``, or the error text of an attempt that raised or
    missed its deadline; ``late`` lists the chunks that missed it.  The
    deadline runs from when a worker starts the chunk.  A worker past it
    is abandoned but stays stuck in its pool, so the chunks that never
    started move to a fresh pool instead of queueing behind it; a chunk
    that never started is neither late nor a failed attempt.
    """
    started: Dict[int, float] = {}

    def run(index: int) -> Tuple[Rows, int]:
        started[index] = time.monotonic()
        return check(index)

    pools: List[concurrent.futures.ThreadPoolExecutor] = []
    live: Dict[concurrent.futures.Future, int] = {}

    def launch(indices: Sequence[int]) -> None:
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=min(workers, len(indices)))
        pools.append(pool)
        live.update((pool.submit(run, index), index) for index in indices)

    outcome: Dict[int, object] = {}
    late: List[int] = []
    launch(pending)
    try:
        while live:
            timeout = None
            if deadline_s is not None:
                begun = [started[i] for i in live.values() if i in started]
                timeout = (max(0.0, min(begun) + deadline_s - time.monotonic())
                           if begun else deadline_s)
            # each wait walks every live future, so without a deadline to
            # check between completions one wait takes them all
            done, _ = concurrent.futures.wait(
                live, timeout=timeout,
                return_when=(concurrent.futures.ALL_COMPLETED
                             if deadline_s is None
                             else concurrent.futures.FIRST_COMPLETED))
            for fut in done:
                index = live.pop(fut)
                try:
                    outcome[index] = fut.result()
                except Exception as exc:
                    outcome[index] = repr(exc)
            if deadline_s is None:
                continue
            now = time.monotonic()
            over = [fut for fut, i in live.items()
                    if i in started and now - started[i] >= deadline_s]
            for fut in over:
                index = live.pop(fut)
                outcome[index] = f"deadline exceeded ({deadline_s}s)"
                late.append(index)
            if over:
                queued = [fut for fut in live if fut.cancel()]
                if queued:
                    launch([live.pop(fut) for fut in queued])
    finally:
        # don't block on a worker stuck past its deadline; let stragglers
        # finish alone
        for pool in pools:
            pool.shutdown(wait=deadline_s is None, cancel_futures=True)
    return outcome, late


def find_races(graph: SegmentGraph, *,
               engine: Optional[SuppressionEngine] = None,
               workers: int = 1,
               deadline_s: Optional[float] = None,
               max_retries: int = 2) -> PartialAnalysis:
    """Algorithm 1 under supervision: the raw conflicts and their coverage.

    With an ``engine`` whose stack rule is on, a segment pair that shares
    bytes only in frames both segments pushed themselves is never checked
    (:meth:`~repro.core.suppress.SuppressionEngine.stack_local`): Section
    IV-D would suppress every such byte, so the conflicts that survive
    suppression are the same, and only the raw ones shrink.

    The candidate pairs are checked in chunks of the kernel's batch
    (:data:`repro.core.npkernel._PAIR_BATCH` pairs) by ``workers``
    threads; one worker is the sequential pass.  Every chunk is attempted
    up to ``1 + max_retries`` times with exponential backoff between
    attempts (:data:`RETRY_BACKOFF_S`, doubling); a chunk whose worker
    raises (or runs past ``deadline_s``) on every attempt is quarantined
    and its candidate pairs booked as unchecked — the chunks that *did*
    complete are never discarded.
    Faults are observed exactly where the fault injector plants them
    (:meth:`FaultInjector.on_analysis_chunk`).
    """
    reg = get_registry()
    result = PartialAnalysis()
    with reg.phase("analysis"):
        # everything workers read is built here, single-threaded: the
        # segments' flat interval sets, the kernel context and its DP rows
        segs = [s for s in graph.segments if s.has_accesses]
        with reg.phase("analysis.candidates"):
            ctx = KernelContext(graph, segs, engine)
            ii, jj = ctx.candidate_pairs()
        result.stack_local_intervals = int(ctx.local.sum())
        reg.counter("analysis.stack_local_intervals").inc(
            result.stack_local_intervals)
        reg.counter("analysis.candidate_pairs").inc(len(ii))
        with reg.phase("analysis.prepare"):
            if len(ii):
                # the packed DP rows serve only the pair check: a run with
                # no candidate pair never builds the DP (a later reader,
                # such as a witness, still builds it on first use)
                ctx.prepare_hb()
        batch = npkernel._PAIR_BATCH
        chunks = [(ii[k:k + batch], jj[k:k + batch])
                  for k in range(0, len(ii), batch)]
        result.pairs_total = len(ii)
        result.chunks_total = len(chunks)
        # a pool wider than the chunk list would idle the extra workers;
        # clamp explicitly and record both counts so perf runs can see the
        # effective parallelism, not the requested one
        workers_eff = min(workers, len(chunks))
        reg.gauge("analysis.workers_requested").set(workers)
        reg.gauge("analysis.workers_effective").set(workers_eff)

        def check(index: int) -> Tuple[Rows, int]:
            _FAULTS.on_analysis_chunk(index)   # may raise / hang on demand
            # per-worker-thread phase: wall seconds sum across workers
            with reg.phase("analysis.pairs"):
                return ctx.check_pairs(*chunks[index])

        blocks: List[Rows] = []
        ordered = 0
        pending = list(range(len(chunks)))
        errors: Dict[int, str] = {}
        attempt = 0
        with reg.phase("analysis.supervise"):
            while pending:
                if attempt > 0:
                    reg.counter("resilience.chunks_retried").inc(len(pending))
                    result.retries += len(pending)
                    time.sleep(RETRY_BACKOFF_S * (2 ** (attempt - 1)))
                outcome, late = _attempt(check, pending, workers_eff,
                                         deadline_s)
                if late:
                    result.deadline_hits += len(late)
                    reg.counter("resilience.analysis_deadline_hits").inc(
                        len(late))
                failed: List[int] = []
                for index in pending:
                    got = outcome[index]
                    if isinstance(got, str):
                        errors[index] = got
                        failed.append(index)
                        continue
                    rows, n_ordered = got
                    blocks.append(rows)
                    ordered += n_ordered
                    result.chunks_ok += 1
                    result.pairs_checked += len(chunks[index][0])
                pending = failed
                attempt += 1
                if pending and attempt > max_retries:
                    for index in pending:
                        result.quarantined.append(QuarantinedChunk(
                            index=index, pairs=len(chunks[index][0]),
                            attempts=attempt, error=errors[index]))
                    reg.counter("resilience.chunks_quarantined").inc(
                        len(pending))
                    reg.counter("resilience.pairs_unchecked").inc(
                        sum(len(chunks[index][0]) for index in pending))
                    pending = []
        result.table = ConflictTable.build(ctx.segs, blocks)
        reg.counter("analysis.pairs_checked").inc(result.pairs_checked)
        reg.counter("analysis.pairs_ordered").inc(ordered)
        reg.counter("analysis.conflicts").inc(result.table.pair_count())
    return result


@dataclass
class Detection:
    """What :func:`analyze_and_suppress` found, with the pipeline's books."""

    reports: List[RaceReport]
    #: segment pairs with conflicting bytes that Algorithm 1 checked
    #: (after the Section IV-D stack-local skip, before any other filter)
    raw_candidates: int
    #: the pass's coverage: chunks checked, retried and quarantined
    partial: PartialAnalysis
    #: the suppression engine the run's conflicts went through
    engine: SuppressionEngine
    #: pairs the replay pair filter dropped before suppression
    pair_dropped: int = 0


def analyze_and_suppress(graph: SegmentGraph, engine: SuppressionEngine,
                         allocator: Allocator, *,
                         workers: int = 1,
                         deadline_s: Optional[float] = None,
                         max_retries: int = 2,
                         pair_filter=None,
                         select: Optional[Callable[[List[RaceReport]],
                                                   List[RaceReport]]] = None,
                         explain: bool = False,
                         notes: Tuple[str, ...] = ()) -> Detection:
    """Algorithm 1, the replay pair filter, Section IV suppression and the
    report step: the back half of every run.

    The one pipeline behind :meth:`repro.core.tool.TaskgrindTool.finalize`
    and :func:`repro.core.trace.analyze_loaded` (offline and served).
    ``workers``, ``deadline_s`` and ``max_retries`` go to
    :func:`find_races`.  ``pair_filter`` (a
    :class:`repro.replay.filter.ReplayFilter`) keeps only the rows of the
    segment pairs it admits.  ``engine`` is the run's
    :class:`repro.core.suppress.SuppressionEngine`: :func:`find_races`
    skips the pairs its stack rule would drop whole, and it drops the
    suppressed pieces of the rest.

    In the ``report`` phase each surviving candidate becomes a
    :class:`~repro.core.reports.RaceReport` placed by ``allocator`` (a
    :class:`~repro.machine.allocator.Allocator`, whose ``space`` holds the
    regions); ``select`` may narrow the list (the online tool's dedupe and
    suppression file); ``explain`` attaches provenance witnesses in the
    ``explain`` phase.  A degraded run's reports all carry ``notes`` (the
    caller's: memory-budget coarsening, trace salvage), then the
    "incomplete analysis" note when chunks went unchecked.  An enabled
    tracer gets one race flow per report.
    """
    partial = find_races(graph, engine=engine, workers=workers,
                         deadline_s=deadline_s, max_retries=max_retries)
    table = partial.table
    raw = table.pair_count()
    dropped = 0
    if pair_filter is not None and pair_filter.pairs:
        table = table.select(table.pair_mask(pair_filter.admits_pair))
        dropped = raw - table.pair_count()
    surviving = engine.filter_all(table)
    reg = get_registry()
    with reg.phase("report"):
        reports = [build_report(allocator, c) for c in surviving]
        if select is not None:
            reports = select(reports)
        if explain:
            with reg.phase("explain"):
                build_witnesses(graph, reports)
        if not partial.complete:
            notes += ("incomplete analysis: " + partial.summary(),)
        if notes:
            for r in reports:
                r.notes += notes
        tracer = get_tracer()
        if tracer.enabled:
            for r in reports:
                tracer.race_flow(r.s1.id, r.s2.id, t1=r.s1.thread_id,
                                 t2=r.s2.thread_id, args={
                    "label1": r.s1.label(), "label2": r.s2.label(),
                    "bytes": r.ranges.total_bytes})
    return Detection(reports, raw, partial, engine, dropped)
