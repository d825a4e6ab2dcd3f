"""Determinacy-race analysis passes (the paper's Algorithm 1).

Every pass emits its conflicts as one :class:`ConflictTable`: four int64
columns ``(i, j, lo, hi)``, one row per conflicting byte range (a
*piece*), rows grouped by segment pair in :meth:`RaceCandidate.key`
order.  The sweep builds no per-pair object.  The Section IV
suppressions (:meth:`repro.core.suppress.SuppressionEngine.filter_all`)
classify all rows at once, and only pairs with surviving bytes become
:class:`RaceCandidate` objects.  :func:`analyze_and_suppress` is that
pipeline — pass, raw count, replay pair filter, suppression — shared by
the online tool and the offline and served analyzers.

Two passes (:data:`MODES`), both producing the table the faithful
Algorithm 1 would — for every pair of segments with no happens-before
path, ``s1.w ∩ (s2.r ∪ s2.w)`` — without visiting all :math:`O(n^2)`
pairs:

* the indexed pass — address-indexed candidate generation: a vectorized
  sweep over all access intervals
  (:meth:`repro.core.npkernel.KernelContext.candidate_pairs`) finds only
  the segment pairs that actually share bytes, as two index arrays sorted
  by ``(i, j)``, then filters them by happens-before and intersects them
  with :meth:`~repro.core.npkernel.KernelContext.check_pairs`.  ``repro
  run`` uses it.
* the parallel pass — the paper's future-work item ("the analysis is
  embarrassingly parallel, but currently run sequentially"): the indexed
  candidate arrays are sliced into fixed chunks across supervised worker
  threads.  The server, the chaos smoke and the fault campaigns use it for
  its deadlines and quarantine; the A1 ablation benchmarks it.

The faithful all-pairs pass and the per-pair Python check are test
oracles (``tests/core/analysis_oracle.py``), not production paths.

Both passes share one front half (:func:`_front_half`) and its phase
names: ``analysis.prepare`` for the HB index and its batched backing,
``analysis.candidates`` for the interval pools and the sweep, and
``analysis.pairs`` for the pair check alone.

The parallel pass runs under a supervisor (:func:`find_races_supervised`):
each chunk of candidate pairs gets a bounded number of retries with
exponential backoff and an optional per-chunk deadline; chunks that keep
failing are quarantined rather than allowed to take down the whole pass, and
the result is a :class:`PartialAnalysis` that states exactly how many
candidate pairs went unchecked.  A worker exception therefore degrades the
analysis instead of discarding every completed chunk.

:func:`find_races_indexed` and :func:`find_races_parallel` return the
*raw* (pre-suppression) table materialized as a sorted
``List[RaceCandidate]`` — the form tests, the baseline tools and the
ablations consume.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.npkernel import KernelContext
from repro.core.segments import Segment, SegmentGraph
from repro.faults.inject import get_injector
from repro.obs.metrics import get_registry
from repro.util.intervals import IntervalSet

_FAULTS = get_injector()

#: the analysis passes a run can select (``TaskgrindOptions.analysis``)
MODES = ("indexed", "parallel")

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


def _conflict_ranges(s1: Segment, s2: Segment) -> IntervalSet:
    """``(s1.w ∩ (s2.r ∪ s2.w)) ∪ (s2.w ∩ s1.r)`` as a normalized set.

    Uses each segment's cached flat :class:`IntervalSet` view, so each of the
    three intersections is one linear merge of sorted interval lists instead
    of a tree-stabbing walk; the results are unioned in one pass.  The pair
    check calls it per pair when addresses reach ``2**48``, past what its
    batched window relocation can hold.
    """
    w1, w2 = s1.writes_set(), s2.writes_set()
    out = w1.intersection(w2)
    for part in (w1.intersection(s2.reads_set()),
                 w2.intersection(s1.reads_set())):
        for lo, hi in part.pairs():
            out.add(lo, hi)
    return out


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` names an analysis pass."""
    if mode not in MODES:
        raise ValueError(f"unknown analysis mode {mode!r} "
                         f"(expected {'|'.join(MODES)})")


def _record_pass(reg, mode: str, checked: int, ordered: int,
                 conflicts: int) -> None:
    """Publish one analysis pass's pair-work counters."""
    reg.counter("analysis.pairs_checked").inc(checked)
    reg.counter("analysis.pairs_ordered").inc(ordered)
    reg.counter("analysis.conflicts").inc(conflicts)
    reg.gauge("analysis.last_mode").set(mode)


def _front_half(reg, graph: SegmentGraph
                ) -> Tuple[KernelContext, np.ndarray, np.ndarray]:
    """What the indexed and supervised passes do before the pair check.

    Phases: the HB index and its batched backing under
    ``analysis.prepare``; the interval pools and the candidate sweep under
    ``analysis.candidates``.  Returns ``(ctx, ii, jj)``.
    """
    with reg.phase("analysis.prepare"):
        graph.prepare_queries()
    segs = [s for s in graph.segments if s.has_accesses]
    with reg.phase("analysis.candidates"):
        ctx = KernelContext(graph, segs)
        ii, jj = ctx.candidate_pairs()
    reg.counter("analysis.candidate_pairs").inc(len(ii))
    with reg.phase("analysis.prepare"):
        ctx.prepare_hb()
    return ctx, ii, jj


def _indexed_table(graph: SegmentGraph) -> ConflictTable:
    """Address-indexed Algorithm 1."""
    reg = get_registry()
    with reg.phase("analysis"):
        ctx, ii, jj = _front_half(reg, graph)
        with reg.phase("analysis.pairs"):
            rows, ordered = ctx.check_pairs(ii, jj)
        table = ConflictTable.build(ctx.segs, [rows])
        _record_pass(reg, "indexed", len(ii), ordered, table.pair_count())
    return table


def find_races_indexed(graph: SegmentGraph) -> List[RaceCandidate]:
    """Address-indexed Algorithm 1: the raw candidates, sorted by key."""
    return _indexed_table(graph).candidates()


#: fixed chunk size for the parallel pass — independent of the worker count
#: so the work partition (and therefore any fp-free result assembly) is
#: deterministic on every machine
_PARALLEL_CHUNK = 64


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
    """The supervised pass's result: conflicts + explicit coverage.

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


def find_races_supervised(graph: SegmentGraph, *,
                          workers: Optional[int] = None,
                          deadline_s: Optional[float] = None,
                          max_retries: int = 2,
                          backoff_s: float = 0.01) -> PartialAnalysis:
    """The parallel pass under supervision.

    Every chunk is attempted up to ``1 + max_retries`` times with
    exponential backoff between attempts; a chunk whose worker raises (or
    misses the per-chunk ``deadline_s``) on every attempt is quarantined
    and its candidate pairs booked as unchecked — the chunks that *did*
    complete are never discarded.  Faults are observed exactly where the
    fault injector plants them (:meth:`FaultInjector.on_analysis_chunk`).
    """
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    reg = get_registry()
    result = PartialAnalysis()
    with reg.phase("analysis"):
        # everything workers read is built here, single-threaded: the HB
        # index, the segments' flat interval sets and the kernel context
        ctx, ii, jj = _front_half(reg, graph)
        result.pairs_total = len(ii)

        def check(index: int, chunk: Tuple[np.ndarray, np.ndarray]
                  ) -> Tuple[Rows, int]:
            _FAULTS.on_analysis_chunk(index)   # may raise / hang on demand
            # per-worker-thread phase: wall seconds sum across workers
            with reg.phase("analysis.pairs"):
                return ctx.check_pairs(*chunk)

        if not len(ii):
            reg.gauge("analysis.workers_requested").set(workers)
            reg.gauge("analysis.workers_effective").set(0)
            _record_pass(reg, "parallel", 0, 0, 0)
            return result
        chunks = [(ii[k:k + _PARALLEL_CHUNK], jj[k:k + _PARALLEL_CHUNK])
                  for k in range(0, len(ii), _PARALLEL_CHUNK)]
        result.chunks_total = len(chunks)
        # a pool wider than the chunk list would silently idle the extra
        # workers; clamp explicitly and record both counts so perf runs can
        # see the effective parallelism, not the requested one
        workers_eff = max(1, min(workers, len(chunks)))
        reg.gauge("analysis.workers_requested").set(workers)
        reg.gauge("analysis.workers_effective").set(workers_eff)
        reg.histogram("analysis.chunk_pairs").observe(len(chunks))
        blocks: List[Rows] = []
        ordered = 0
        pending = list(range(len(chunks)))
        last_error: Dict[int, str] = {}
        attempt = 0
        with reg.phase("analysis.supervise"):
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers_eff)
            try:
                while pending:
                    if attempt > 0:
                        reg.counter("resilience.chunks_retried").inc(
                            len(pending))
                        result.retries += len(pending)
                        time.sleep(backoff_s * (2 ** (attempt - 1)))
                    futures = {idx: pool.submit(check, idx, chunks[idx])
                               for idx in pending}
                    failed: List[int] = []
                    for idx, fut in futures.items():
                        try:
                            rows, n_ordered = fut.result(timeout=deadline_s)
                        except concurrent.futures.TimeoutError:
                            result.deadline_hits += 1
                            reg.counter(
                                "resilience.analysis_deadline_hits").inc()
                            last_error[idx] = (
                                f"deadline exceeded ({deadline_s}s)")
                            failed.append(idx)
                            continue
                        except Exception as exc:
                            last_error[idx] = repr(exc)
                            failed.append(idx)
                            continue
                        blocks.append(rows)
                        ordered += n_ordered
                        result.chunks_ok += 1
                        result.pairs_checked += len(chunks[idx][0])
                    pending = failed
                    attempt += 1
                    if pending and attempt > max_retries:
                        for idx in pending:
                            result.quarantined.append(QuarantinedChunk(
                                index=idx, pairs=len(chunks[idx][0]),
                                attempts=attempt,
                                error=last_error.get(idx, "unknown")))
                        reg.counter("resilience.chunks_quarantined").inc(
                            len(pending))
                        reg.counter("resilience.pairs_unchecked").inc(
                            sum(len(chunks[idx][0]) for idx in pending))
                        pending = []
            finally:
                # don't block on a worker stuck past its deadline; cancel
                # anything not yet started and let stragglers finish alone
                pool.shutdown(wait=deadline_s is None, cancel_futures=True)
        result.table = ConflictTable.build(ctx.segs, blocks)
        _record_pass(reg, "parallel", result.pairs_checked, ordered,
                     result.table.pair_count())
    return result


def find_races_parallel(graph: SegmentGraph, *,
                        workers: Optional[int] = None) -> List[RaceCandidate]:
    """Parallelized candidate verification (paper Section VII future work).

    Candidate generation stays sequential (it is a single cheap sweep); the
    happens-before check + interval intersection of each candidate pair —
    the dominant cost — is farmed out over a thread pool.  Produces the same
    sorted candidate list as :func:`find_races_indexed` for any worker count.

    Runs under the supervisor, so a worker exception costs (at most) the
    failing chunk, never the completed ones; callers that need the explicit
    coverage accounting should call :func:`find_races_supervised` directly.
    """
    return find_races_supervised(graph, workers=workers).candidates


@dataclass
class Detection:
    """What :func:`analyze_and_suppress` found, with the pipeline's books."""

    surviving: List[RaceCandidate]
    #: segment pairs with conflicting bytes before any filter
    raw_candidates: int
    #: the supervised pass's coverage (``mode="parallel"`` only)
    partial: Optional[PartialAnalysis] = None
    #: pairs the replay pair filter dropped before suppression
    pair_dropped: int = 0


def analyze_and_suppress(graph: SegmentGraph, engine, *,
                         mode: str = "indexed",
                         workers: int = 4,
                         deadline_s: Optional[float] = None,
                         max_retries: int = 2,
                         pair_filter=None) -> Detection:
    """Algorithm 1, the replay pair filter and Section IV suppression.

    The one pipeline behind :meth:`repro.core.tool.TaskgrindTool.finalize`
    and :func:`repro.core.trace.analyze_loaded` (offline and served).
    ``mode`` picks the pass: ``indexed`` or ``parallel`` (supervised; only
    it uses ``workers``, ``deadline_s`` and ``max_retries``); any other
    value raises ``ValueError``.  ``pair_filter`` (a
    :class:`repro.replay.filter.ReplayFilter`) keeps only the rows of the
    segment pairs it admits.  ``engine`` is the run's
    :class:`repro.core.suppress.SuppressionEngine`.
    """
    check_mode(mode)
    partial = None
    if mode == "parallel":
        partial = find_races_supervised(graph, workers=workers,
                                        deadline_s=deadline_s,
                                        max_retries=max_retries)
        table = partial.table
    else:
        table = _indexed_table(graph)
    raw = table.pair_count()
    dropped = 0
    if pair_filter is not None and pair_filter.pairs:
        table = table.select(table.pair_mask(pair_filter.admits_pair))
        dropped = raw - table.pair_count()
    return Detection(engine.filter_all(table), raw, partial, dropped)
