"""TaskgrindTool: the Valgrind plugin (paper Sections III–IV).

Wiring (mirrors Fig. 2 of the paper):

* ``attach`` replaces ``malloc``/``free`` through the Valgrind replacement
  registry — ``malloc`` to save allocation-site stack traces for reports
  (III-C), ``free`` as a no-op to defeat allocator recycling (IV-B) — and
  subscribes to the ``tg_*`` client requests issued by the injected OMPT shim
  (:mod:`repro.core.ompt_shim`).
* ``on_access`` observes **every** access (DBI), drops those filtered by the
  ignore/instrument lists (IV-A), and records the rest into the current
  segment's read/write interval sets (III-B).
* ``finalize`` hands the graph to the back half every run shares
  (:func:`repro.core.analysis.analyze_and_suppress`: Algorithm 1, the TLS
  and stack suppressions of IV-C/IV-D, the Listing-6 reports), adding
  only what a live run has: report dedupe, the suppression file and the
  memory-budget note.

Modeled defect — the Table II multi-thread ``deadlock``
-------------------------------------------------------
The paper reports that Taskgrind deadlocks on LULESH with 4 threads and that
the cause "remains to be investigated".  We model a concrete, plausible tool
bug with exactly the paper's trigger matrix: when an *annotated-deferrable*
task with dependence predecessors starts on a thread other than a
predecessor's executor, the plugin waits for that executor to confirm the
cross-thread event ordering by issuing a subsequent request.  If the executor
ran the predecessor *inside a barrier* and then went idle, it never issues
one — and since it is itself waiting for the blocked task to finish, the
circular wait trips the simulator's deadlock detector.  Single-thread runs
(predecessor executor == current thread) and the TMB suite (annotated but
dependence-free) never take this path, matching Tables I and II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.analysis import PartialAnalysis, analyze_and_suppress
from repro.core.ompt_shim import TaskgrindOmptShim
from repro.core.reports import RaceReport, dedupe_reports
from repro.core.segments import SegmentBuilder
from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.machine.cost import ToolCost
from repro.obs.metrics import get_registry
from repro.obs.prof import get_profiler
from repro.vex.elide import ElisionPlan
from repro.vex.tool import Tool

#: prebound attribution profiler — the access hot paths below guard every
#: hint with a single ``_PROF.enabled`` attribute test (same pattern as the
#: tracer), so the disabled cost is one boolean check
_PROF = get_profiler()


@dataclass
class TaskgrindOptions:
    """Command-line-ish options of the tool."""

    suppression: SuppressionConfig = field(default_factory=SuppressionConfig)
    #: collapse reports with identical segment-label pairs
    dedupe: bool = False
    #: model the multi-thread cross-thread-confirmation lock-up (Table II)
    model_multithread_lockup: bool = True
    #: path to a Valgrind-style suppression file (see repro.core.suppfile)
    suppression_file: Optional[str] = None
    #: honor ``private=True`` site declarations with compile-time elision
    #: (no-op instrumentation); False records every declared site normally
    elide_sites: bool = True
    #: attach a provenance witness (ancestry, NCA, reachability evidence) to
    #: each report — the ``--explain`` flag
    explain: bool = False
    #: tool-memory ceiling in bytes (None = unlimited): when the modeled
    #: footprint crosses it, access recording degrades to coarse 64-byte
    #: intervals (:meth:`SegmentBuilder.enter_coarse_mode`) instead of
    #: dying OOM, and every report carries a degraded-precision warning
    memory_budget: Optional[int] = None
    #: supervised analysis: per-chunk wall deadline (None = none) and
    #: retry budget before a failing chunk is quarantined
    analysis_deadline_s: Optional[float] = None
    analysis_max_retries: int = 2
    #: two-phase detection (repro.replay): ``"full"`` records accesses and
    #: analyzes as usual; ``"sync"`` is the cheap first pass — accesses are
    #: observed (so virtual time, and therefore the schedule, is identical
    #: to a full run's) but never recorded, and finalize skips analysis
    record_mode: str = "full"
    #: partial replay scope (a :class:`repro.replay.filter.ReplayFilter`):
    #: accesses are clipped to its address ranges at record time and race
    #: candidates outside its segment pairs are dropped before suppression
    replay_filter: Optional[object] = None


class TaskgrindTool(Tool):
    """The Taskgrind Valgrind tool."""

    name = "taskgrind"
    is_dbi = True
    # ~100x single-thread slowdown and the Valgrind big lock (serialized
    # client); translation charged once per symbol (JIT to VEX IR).  Plain
    # accesses charge a cheaper per-access factor than atomic ones (most
    # hit the write-combining recorder's direct-mapped cache instead of
    # the trees).
    cost = ToolCost(access_factor=117.0, compute_factor=20.0,
                    translation_ops=200_000.0,
                    serialize=True, bytes_per_tree_node=64,
                    bytes_per_segment=192,
                    fast_access_factor=95.0)

    #: Valgrind core resident baseline: translation cache, VEX, tool statics.
    VALGRIND_CORE_BYTES = 44 << 20

    def __init__(self, options: Optional[TaskgrindOptions] = None) -> None:
        super().__init__()
        self.options = options or TaskgrindOptions()
        self.builder: Optional[SegmentBuilder] = None
        self.suppressor: Optional[SuppressionEngine] = None
        #: ahead-of-time per-site elision decisions (tg_static_site)
        self.elision = ElisionPlan(self.options.suppression,
                                   enabled=self.options.elide_sites)
        self.reports: List[RaceReport] = []
        self.raw_candidates: int = 0
        self.filtered_accesses = 0
        self.recorded_accesses = 0
        self.file_suppressed = 0
        self._symbol_filtered: dict = {}       # symbol name -> filtered?
        #: supervised-analysis coverage of the last finalize
        self.partial_analysis: Optional[PartialAnalysis] = None
        #: vtime-ordered access count at which the memory budget tripped
        self.budget_tripped_at: Optional[int] = None
        self._budget_check_every = 2048
        self._budget_active = self.options.memory_budget is not None
        #: sync-only recording (two-phase first pass): the hub still
        #: dispatches every access here — keeping the cost-model charges,
        #: and therefore the schedule, identical to a full run — but the
        #: handler is rebound to a counter bump, skipping the symbol memo,
        #: budget check and tree insert entirely
        self.sync_only = self.options.record_mode == "sync"
        self.sync_skipped = 0
        if self.options.record_mode not in ("full", "sync"):
            raise ValueError(
                f"unknown record_mode {self.options.record_mode!r}")
        if self.sync_only:
            self.on_access = self._on_access_sync
        #: partial-replay scope + its accounting
        self.replay_filter = self.options.replay_filter
        self.filter_recorded = 0        # accesses recorded (possibly clipped)
        self.filter_dropped = 0         # accesses fully outside the scope
        self.filter_pair_dropped = 0    # candidates dropped by pair scope

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        self.builder = SegmentBuilder(machine)
        if _PROF.enabled:
            # fallback attribution frame when a thread has no shadow stack
            # (runtime-internal charges): the executing task's ancestry label
            def _task_frame(tid: int, _builder=self.builder):
                # peek only: current_entry() would open a segment as a
                # side effect, which a profiler fallback must never do
                st = _builder._entries.get(tid)
                if not st or st[-1].task is None:
                    return None
                return f"task:{st[-1].task.label()}"

            _PROF.bind_ancestry_provider(_task_frame)
        self.suppressor = SuppressionEngine(machine.space,
                                            self.options.suppression)
        if self.options.suppression.suppress_recycling:
            machine.replacements.replace("free")      # free -> no-op (IV-B)
        machine.replacements.replace("malloc")        # stack traces (III-C)

        req = machine.client_requests
        b = self.builder
        req.subscribe("tg_parallel_begin", lambda p: b.on_parallel_begin(*p))
        req.subscribe("tg_parallel_end", lambda p: b.on_parallel_end(*p))
        req.subscribe("tg_implicit_begin",
                      lambda p: b.on_implicit_task_begin(*p))
        req.subscribe("tg_implicit_end", lambda p: b.on_implicit_task_end(*p))
        req.subscribe("tg_task_create", lambda p: b.on_task_create(*p))
        req.subscribe("tg_task_dependence",
                      lambda p: b.on_task_dependence_pair(*p))
        req.subscribe("tg_task_begin", self._on_task_begin)
        req.subscribe("tg_task_end", lambda p: b.on_task_schedule_end(*p))
        req.subscribe("tg_task_detach_fulfill",
                      lambda p: b.on_task_detach_fulfill(*p))
        req.subscribe("tg_sync_begin", lambda p: b.on_sync_begin(*p))
        req.subscribe("tg_sync_end", lambda p: b.on_sync_end(*p))
        req.subscribe("taskgrind_deferrable", b.on_task_annotate_deferrable)
        req.subscribe("tg_static_site", self._on_static_site)

    def _on_static_site(self, payload):
        """A ``private=True`` declaration: decide elision for the site.

        Returns the :class:`~repro.vex.elide.StaticSite` token only when the
        site is elided — the guest attaches it to the handle and the hub
        carries it back on every access, so the hot path is one None test.
        """
        name, klass, symbol, file, line = payload
        return self.elision.declare(name, klass, symbol=symbol,
                                    file=file, line=line)

    def make_ompt_shim(self) -> TaskgrindOmptShim:
        """The OMPT tool Taskgrind injects into the client (register it on
        the runtime's dispatcher)."""
        return TaskgrindOmptShim(self.machine)

    # -- the modeled multi-thread lock-up ----------------------------------------

    def _on_task_begin(self, payload) -> None:
        task, thread_id = payload
        if self.options.model_multithread_lockup:
            self._confirm_cross_thread_order(task, thread_id)
        self.builder.on_task_schedule_begin(task, thread_id)

    def _confirm_cross_thread_order(self, task, thread_id: int) -> None:
        info = self.builder.info(task)
        if not info.annotated or not info.preds:
            return
        sched = self.machine.scheduler
        for pred, _dep in info.preds:
            pi = self.builder.info(pred)
            if pi.exec_thread in (-1, thread_id):
                continue
            t, seq = pi.exec_thread, pi.completion_seq
            # Wait for the predecessor's executor to issue any later request,
            # "confirming" it observed the completion ordering.  An executor
            # that ran the predecessor inside a barrier and then parked never
            # does — circular wait, detected as a simulated deadlock.
            sched.block_until(
                lambda t=t, seq=seq:
                self.builder.last_seq_by_thread.get(t, 0) > seq,
                f"taskgrind: cross-thread ordering confirmation from t{t}")

    # -- access recording ------------------------------------------------------------

    def on_access(self, thread_id: int, addr: int, size: int,
                  is_write: bool, symbol, loc, site, atomic: bool) -> None:
        """Record one observed access, atomic or not, into its segment."""
        if site is not None:
            # statically elided: the declaration already proved the runtime
            # suppression verdict, so the access never enters the trees
            self.elision.note(site)
            if _PROF.enabled:
                _PROF.hint_access("elide.noop")
            return
        # memoized ignore/instrument-list decision (one lookup per symbol
        # name instead of re-running the pattern match per access)
        filtered = self._symbol_filtered.get(symbol.name)
        if filtered is None:
            filtered = self._symbol_filtered[symbol.name] = \
                self.suppressor.symbol_filtered(symbol.name)
        if filtered:
            self.filtered_accesses += 1
            if _PROF.enabled:
                _PROF.hint_access("suppress.symbol-filter")
            return
        if self.replay_filter is not None \
                and self.replay_filter.filters_addresses:
            self._record_clipped(thread_id, addr, size, is_write, loc)
            return
        self.recorded_accesses += 1
        if self._budget_active:
            self._check_memory_budget()
        self.builder.record_access(thread_id, addr, size, is_write, loc)

    def _record_clipped(self, thread_id: int, addr: int, size: int,
                        is_write: bool, loc) -> None:
        """Partial replay: record only the bytes inside the filter scope.

        Clipping (rather than dropping whole accesses) keeps the recorded
        evidence inside the scope *identical* to a full recording's — the
        invariant the --verify-single-pass parity check rests on.
        """
        if _PROF.enabled:
            _PROF.hint_access("record.access.clipped")
        spans = self.replay_filter.clip(addr, addr + size)
        if not spans:
            self.filter_dropped += 1
            return
        self.recorded_accesses += 1
        self.filter_recorded += 1
        if self._budget_active:
            self._check_memory_budget()
        for lo, hi in spans:
            self.builder.record_access(thread_id, lo, hi - lo, is_write,
                                       loc)

    # -- sync-only recording (two-phase first pass) -----------------------------

    def _on_access_sync(self, thread_id: int, addr: int, size: int,
                        is_write: bool, symbol, loc, site,
                        atomic: bool) -> None:
        self.sync_skipped += 1
        if _PROF.enabled:
            _PROF.hint_access("record.sync-skip")

    def _check_memory_budget(self) -> None:
        """Trip into coarse recording when the footprint crosses the budget.

        The check amortizes: the (non-trivial) footprint model runs once per
        ``_budget_check_every`` recorded accesses, so between checks the
        footprint can overshoot by at most one check window's worth of tree
        nodes.  Tripping is one-way — precision already spent recording at
        byte granularity stays, only *new* accesses coarsen.
        """
        if self.budget_tripped_at is not None \
                or self.recorded_accesses % self._budget_check_every:
            return
        if self.memory_bytes() <= self.options.memory_budget:
            return
        self.budget_tripped_at = self.recorded_accesses
        self.builder.enter_coarse_mode()
        reg = get_registry()
        reg.counter("resilience.memory_budget_trips").inc()
        reg.gauge("resilience.coarse_granule").set(
            self.builder.coarse_granule)

    # -- post-mortem analysis -----------------------------------------------------------

    def finalize(self) -> List[RaceReport]:
        reg = get_registry()
        if self.sync_only:
            # sync-only pass: there is no access evidence to analyze — the
            # run exists to produce a schedule document, not verdicts
            self.reports = []
            reg.counter("replay.sync_runs").inc()
            reg.publish("taskgrind", self.stats())
            return self.reports
        with reg.phase("finalize"):
            opts = self.options
            found = analyze_and_suppress(
                self.builder.graph, self.suppressor, self.machine.allocator,
                deadline_s=opts.analysis_deadline_s,
                max_retries=opts.analysis_max_retries,
                pair_filter=self.replay_filter, select=self._select,
                explain=opts.explain, notes=self._budget_note())
            self.partial_analysis = found.partial
            self.raw_candidates = found.raw_candidates
            self.filter_pair_dropped = found.pair_dropped
            self.reports = found.reports
        reg.publish("taskgrind", self.stats())
        return self.reports

    def _select(self, reports: List[RaceReport]) -> List[RaceReport]:
        """What only a live run narrows reports by: dedupe, then the
        suppression file (counting what it mutes)."""
        if self.options.dedupe:
            reports = dedupe_reports(reports)
        if self.options.suppression_file is not None:
            from repro.core.suppfile import load_suppressions
            supp = load_suppressions(self.options.suppression_file)
            reports, self.file_suppressed = supp.filter(reports)
        return reports

    def _budget_note(self) -> Tuple[str, ...]:
        """The warning every report carries once the memory budget
        tripped: a reader must never mistake coarsened evidence for the
        exact kind."""
        if self.budget_tripped_at is None:
            return ()
        return (f"degraded precision: memory budget "
                f"({self.options.memory_budget} bytes) exceeded after "
                f"{self.budget_tripped_at} accesses; later accesses "
                f"recorded at {self.builder.coarse_granule}-byte granularity "
                f"(byte ranges over-approximate)",)

    # -- observability --------------------------------------------------------------------

    def stats(self) -> dict:
        """The run's stats document (record / hb / analysis / suppression).

        Key names are stable — the CI offline smoke test and the perf gate
        parse this document; see ``docs/INTERNALS.md`` §6.
        """
        builder = self.builder
        graph = builder.graph if builder is not None else None
        machine = self.machine
        doc: dict = {
            "schema": "taskgrind-stats/1",
            "record": {
                "mode": self.options.record_mode,
                "recorded_accesses": self.recorded_accesses,
                "filtered_accesses": self.filtered_accesses,
                "sync_skipped_accesses": self.sync_skipped,
            },
        }
        if self.replay_filter is not None:
            doc["replay"] = {
                "filter": self.replay_filter.describe(),
                "recorded_accesses": self.filter_recorded,
                "dropped_accesses": self.filter_dropped,
                "pair_dropped_candidates": self.filter_pair_dropped,
            }
        if machine is not None:
            doc["record"]["hub"] = machine.instrumentation.stats()
            doc["virtual"] = machine.cost.stats()
            doc["sched"] = machine.scheduler.stats()
        if graph is not None:
            doc["graph"] = graph.stats()
        doc["analysis"] = {
            "raw_candidates": self.raw_candidates,
            "reports": len(self.reports),
            "stack_local_intervals": (
                self.partial_analysis.stack_local_intervals
                if self.partial_analysis is not None else 0),
        }
        resilience: dict = {
            "memory_budget": self.options.memory_budget,
            "budget_tripped_at": self.budget_tripped_at,
            "coarse_granule": (builder.coarse_granule
                               if builder is not None else 0),
        }
        if self.partial_analysis is not None:
            resilience["analysis"] = self.partial_analysis.to_dict()
        doc["resilience"] = resilience
        supp: dict = {"ignore_list": self.filtered_accesses,
                      "file_suppressed": self.file_suppressed}
        if machine is not None and hasattr(machine, "allocator"):
            supp["recycling_retained_blocks"] = sum(
                1 for b in machine.allocator.all_blocks
                if getattr(b, "retained", False))
        if self.suppressor is not None:
            supp.update(self.suppressor.stats_doc())
        supp["elided_sites"] = self.elision.elided_sites
        supp["elided_accesses"] = self.elision.elided_accesses
        supp["elision"] = self.elision.stats_doc()
        doc["suppress"] = supp
        return doc

    # -- accounting -----------------------------------------------------------------------

    def memory_bytes(self, app_bytes: int = 0) -> int:
        graph_bytes = self.builder.graph.memory_bytes(
            bytes_per_node=self.cost.bytes_per_tree_node,
            bytes_per_segment=self.cost.bytes_per_segment)
        # allocation-site stack traces saved by the malloc wrapper
        alloc_meta = len(self.machine.allocator.all_blocks) * 96
        return self.VALGRIND_CORE_BYTES + graph_bytes + alloc_meta
