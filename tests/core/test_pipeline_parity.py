"""The analyze → pair filter → suppress pipeline is one function of the
recorded evidence, whichever pass and kernel produce the conflict table.

``raw_candidates``, the reports and the ``suppress`` block must be
identical across naive / indexed / parallel × python / numpy; a
supervised run with injected chunk faults may lose exactly the rows of
its quarantined chunks and must invent none; a replay ``--pairs`` filter
keeps exactly the admitted pairs.
"""

import pytest

import repro.core.analysis as analysis_mod
from repro.bench import drb, tmb
from repro.bench.programs import BenchProgram
from repro.bench.runner import run_benchmark
from repro.core.analysis import (_indexed_table, analyze_and_suppress,
                                 find_races_supervised)
from repro.core.reports import format_report
from repro.core.suppress import SuppressionEngine
from repro.core.tool import TaskgrindOptions
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.replay.filter import ReplayFilter
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from tests.core.analysis_oracle import candidate_pairs

PASSES = [("naive", "python"), ("indexed", "python"), ("indexed", "numpy"),
          ("parallel", "python"), ("parallel", "numpy")]

LULESH = BenchProgram(
    name="lulesh", racy=True,
    entry=lambda env: run_lulesh(env, LuleshConfig(
        s=8, tel=2, tnl=2, iterations=2, progress=True, racy=True)),
    description="small racy LULESH", source_file="lulesh.cc",
    features=frozenset({"task"}))

PROGRAMS = [(tmb.by_name("1003-stack.3"), 1), (tmb.by_name("1006-tls.1"), 1),
            (tmb.by_name("1001-stack.1"), 4),
            (drb.by_name("127-tasking-threadprivate1-orig"), 4), (LULESH, 1)]


def _outcome(program, nthreads, **options):
    result = run_benchmark(program, "taskgrind", nthreads=nthreads, seed=2,
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
    outcomes = {(mode, kernel): _outcome(program, nthreads, analysis=mode,
                                         analysis_kernel=kernel)[:3]
                for mode, kernel in PASSES}
    reference = outcomes[("indexed", "numpy")]
    assert reference[1] > 0
    for combo, outcome in outcomes.items():
        assert outcome == reference, combo


def test_offline_passes_agree(tmp_path):
    """The offline analyzer (and so the server) runs the same pipeline."""
    from repro.core.trace import analyze_trace_with_stats, save_trace
    texts, raw, supp, result = _outcome(LULESH, 1)
    path = str(tmp_path / "lulesh.trace")
    save_trace(result.tool_obj, result.machine, path)
    for mode, kernel in PASSES:
        reports, stats = analyze_trace_with_stats(path, mode=mode,
                                                  kernel=kernel)
        assert [format_report(r) for r in reports] == texts, (mode, kernel)
        assert stats["analysis"]["raw_candidates"] == raw
        assert stats["suppress"] == supp


def _rows(table):
    return set(zip(*(col.tolist() for col in
                     (table.i, table.j, table.lo, table.hi))))


@pytest.fixture
def small_chunks(monkeypatch):
    """Four candidate pairs per chunk: a poisoned chunk costs a slice."""
    monkeypatch.setattr(analysis_mod, "_PARALLEL_CHUNK", 4)


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_quarantined_chunk_rows_absent_none_invented(small_chunks, kernel):
    *_, result = _outcome(LULESH, 1)
    graph = result.tool_obj.builder.graph
    full = _rows(_indexed_table(graph))
    with inject_plan(FaultPlan.single("worker-exc", 1)):
        partial = find_races_supervised(graph, workers=2, max_retries=0,
                                        kernel=kernel)
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
        return {(c.key(), tuple(c.ranges.pairs())) for c in found.surviving}

    clean = analyze_and_suppress(graph, SuppressionEngine(machine),
                                 mode="parallel")
    with inject_plan(FaultPlan.single("worker-exc", 0)):
        faulted = analyze_and_suppress(graph, SuppressionEngine(machine),
                                       mode="parallel", max_retries=0)
    assert not faulted.partial.complete
    assert faulted.raw_candidates < clean.raw_candidates
    assert survivors(faulted) <= survivors(clean)


@pytest.mark.parametrize("mode,kernel", PASSES)
def test_replay_pair_filter(mode, kernel):
    texts, raw, _supp, full = _outcome(LULESH, 1, analysis=mode,
                                       analysis_kernel=kernel)
    first = full.reports[0]
    keep = (first.s1.id, first.s2.id)
    flt = ReplayFilter(pairs=frozenset({keep}))
    f_texts, f_raw, _f_supp, filtered = _outcome(
        LULESH, 1, analysis=mode, analysis_kernel=kernel, replay_filter=flt)
    assert f_raw == raw
    assert f_texts == [t for t, r in zip(texts, full.reports)
                       if (r.s1.id, r.s2.id) == keep]
    tool = filtered.tool_obj
    assert tool.filter_pair_dropped == raw - 1
    assert tool.stats()["replay"]["pair_dropped_candidates"] == raw - 1
