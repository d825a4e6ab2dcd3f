"""The analyze → pair filter → suppress pipeline is one function of the
recorded evidence, whichever candidate set and pair check produce the
conflict table.

``raw_candidates``, the reports and the ``suppress`` block must be
identical for the candidate sweep and for the all-pairs oracle
candidates (less the pairs that share bytes only in frames both segments
pushed, by the oracle's scalar form of Section IV-D's interval rule), with
the batched pair check and with the oracle's per-pair Python loop in its
place, both on the pass that skips those pairs and on the unfiltered one;
a run with injected chunk faults may lose
exactly the rows of its quarantined chunks and must invent none; a replay
``--pairs`` filter keeps exactly the admitted pairs.
"""

import contextlib

import pytest

import repro.core.analysis as analysis_mod
import repro.core.npkernel as npkernel_mod
from repro.bench import drb, tmb
from repro.bench.programs import BenchProgram
from repro.bench.runner import run_benchmark
from repro.core.analysis import analyze_and_suppress, find_races
from repro.core.npkernel import KernelContext
from repro.core.reports import format_report
from repro.core.suppress import SuppressionEngine
from repro.core.tool import TaskgrindOptions
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.replay.filter import ReplayFilter
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from tests.core.analysis_oracle import (all_pairs_outside_frames,
                                        candidate_pairs, loop_check_pairs)

#: (candidates, pair check): ``naive`` swaps the oracle's all-pairs
#: candidates, less the pairs the run's engine would skip as stack-local,
#: for the ``sweep``; ``python`` patches the oracle's per-pair loop over
#: the batched ``numpy`` check
PASSES = [("naive", "python"), ("sweep", "python"), ("sweep", "numpy")]


@contextlib.contextmanager
def _pass(candidates, kernel, prefilter=True):
    """Swap the oracles in for one :data:`PASSES` entry.
    ``prefilter=False`` runs the unfiltered pass: ``find_races`` ignores
    the engine it is given, so it skips no pair as stack-local and
    suppression drops them instead."""
    with pytest.MonkeyPatch.context() as mp:
        if kernel == "python":
            mp.setattr(KernelContext, "check_pairs", loop_check_pairs)
        find_races_in_pass = analysis_mod.find_races

        def find_races_of_pass(graph, *, engine=None, **kwargs):
            if not prefilter:
                engine = None
            if candidates == "naive":
                # the candidates of the engine the pass runs with
                mp.setattr(KernelContext, "candidate_pairs",
                           all_pairs_outside_frames(engine))
            return find_races_in_pass(graph, engine=engine, **kwargs)

        mp.setattr(analysis_mod, "find_races", find_races_of_pass)
        yield

LULESH = BenchProgram(
    name="lulesh", racy=True,
    entry=lambda env: run_lulesh(env, LuleshConfig(
        s=8, tel=2, tnl=2, iterations=2, progress=True, racy=True)),
    description="small racy LULESH", source_file="lulesh.cc",
    features=frozenset({"task"}))

PROGRAMS = [(tmb.by_name("1003-stack.3"), 1), (tmb.by_name("1006-tls.1"), 1),
            (tmb.by_name("1001-stack.1"), 4),
            (drb.by_name("127-tasking-threadprivate1-orig"), 4), (LULESH, 1)]


def _outcome(program, nthreads, candidates="sweep", kernel="numpy",
             prefilter=True, **options):
    with _pass(candidates, kernel, prefilter):
        result = run_benchmark(
            program, "taskgrind", nthreads=nthreads, seed=2,
            taskgrind_options=TaskgrindOptions(**options),
            keep_machine=True)
    stats = result.stats
    return ([format_report(r) for r in result.reports],
            stats["analysis"]["raw_candidates"],
            {k: stats["suppress"][k] for k in (
                "stack", "tls", "survived", "fully_suppressed_pairs",
                "tls_gen_warnings")},
            result)


@pytest.mark.parametrize("program,nthreads", PROGRAMS,
                         ids=[p.name for p, _ in PROGRAMS])
def test_every_pass_and_kernel_agree(program, nthreads):
    reference = {}
    for prefilter in (False, True):
        outcomes = {combo: _outcome(program, nthreads, *combo, prefilter)[:3]
                    for combo in PASSES}
        reference[prefilter] = outcomes[("sweep", "numpy")]
        for combo, outcome in outcomes.items():
            assert outcome == reference[prefilter], (prefilter, combo)
    (texts, raw, supp), (skip_texts, skip_raw, skip_supp) = (
        reference[False], reference[True])
    assert raw > 0
    # the skipped pairs are those suppression drops whole: the same
    # survivors, and only the stack rule's books shrink
    assert skip_texts == texts
    for key in ("tls", "survived", "tls_gen_warnings"):
        assert skip_supp[key] == supp[key], key
    skipped = raw - skip_raw
    assert skipped >= 0
    assert supp["fully_suppressed_pairs"] - skip_supp[
        "fully_suppressed_pairs"] == skipped
    assert supp["stack"] - skip_supp["stack"] >= skipped


def test_offline_passes_agree(tmp_path):
    """The offline analyzer (and so the server) runs the same pipeline."""
    from repro.core.trace import analyze_trace_with_stats, save_trace
    path = str(tmp_path / "lulesh.trace")
    for prefilter in (False, True):
        texts, raw, supp, result = _outcome(LULESH, 1, prefilter=prefilter)
        save_trace(result.tool_obj, result.machine, path)
        for candidates, kernel in PASSES:
            with _pass(candidates, kernel, prefilter):
                reports, stats = analyze_trace_with_stats(path)
            combo = (prefilter, candidates, kernel)
            assert [format_report(r) for r in reports] == texts, combo
            assert stats["analysis"]["raw_candidates"] == raw, combo
            assert stats["analysis"]["stack_local_intervals"] == \
                result.stats["analysis"]["stack_local_intervals"], combo
            assert stats["suppress"] == supp, combo


def _rows(table):
    return set(zip(*(col.tolist() for col in
                     (table.i, table.j, table.lo, table.hi))))


@pytest.fixture
def small_chunks(monkeypatch):
    """Four candidate pairs per chunk: a poisoned chunk costs a slice."""
    monkeypatch.setattr(npkernel_mod, "_PAIR_BATCH", 4)


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_quarantined_chunk_rows_absent_none_invented(small_chunks, kernel):
    *_, result = _outcome(LULESH, 1)
    graph = result.tool_obj.builder.graph
    full = _rows(find_races(graph).table)
    with inject_plan(FaultPlan.single("worker-exc", 1)), \
            _pass("sweep", kernel):
        partial = find_races(graph, max_retries=0)
    assert [q.index for q in partial.quarantined] == [1]
    segs = [s for s in graph.segments if s.has_accesses]
    lost = set(sorted(candidate_pairs(segs))[4:8])
    expected = {row for row in full if row[:2] not in lost}
    assert _rows(partial.table) == expected
    assert expected < full                  # the fault really cost rows


def test_faulted_pipeline_keeps_a_subset(small_chunks):
    *_, result = _outcome(LULESH, 1)
    graph, machine = result.tool_obj.builder.graph, result.machine

    def survivors(found):
        return {((r.s1.id, r.s2.id), tuple(r.ranges.pairs()))
                for r in found.reports}

    clean = analyze_and_suppress(graph, SuppressionEngine(machine.space),
                                 machine.allocator)
    # poison the first chunk that holds a conflicting pair
    table = clean.partial.table
    conflicting = set(zip(table.i.tolist(), table.j.tolist()))
    segs = [s for s in graph.segments if s.has_accesses]
    ii, jj = KernelContext(graph, segs, SuppressionEngine(
        machine.space)).candidate_pairs()
    chunk = next(k for k, pair in enumerate(zip(ii.tolist(), jj.tolist()))
                 if pair in conflicting) // npkernel_mod._PAIR_BATCH
    with inject_plan(FaultPlan.single("worker-exc", chunk)):
        faulted = analyze_and_suppress(graph,
                                       SuppressionEngine(machine.space),
                                       machine.allocator, max_retries=0)
    assert [q.index for q in faulted.partial.quarantined] == [chunk]
    assert faulted.raw_candidates < clean.raw_candidates
    assert survivors(faulted) <= survivors(clean)


@pytest.mark.parametrize("candidates,kernel", PASSES)
def test_replay_pair_filter(candidates, kernel):
    texts, raw, _supp, full = _outcome(LULESH, 1, candidates, kernel)
    first = full.reports[0]
    keep = (first.s1.id, first.s2.id)
    flt = ReplayFilter(pairs=frozenset({keep}))
    f_texts, f_raw, _f_supp, filtered = _outcome(
        LULESH, 1, candidates, kernel, replay_filter=flt)
    assert f_raw == raw
    assert f_texts == [t for t, r in zip(texts, full.reports)
                       if (r.s1.id, r.s2.id) == keep]
    tool = filtered.tool_obj
    assert tool.filter_pair_dropped == raw - 1
    assert tool.stats()["replay"]["pair_dropped_candidates"] == raw - 1
