"""Tests for the execution timeline tracer (repro.obs.tracer).

Four groups:

* tracer unit semantics — ring-buffer bounding, disabled no-op, span/flow
  pairing, export-time timestamp ordering;
* schema — a real instrumented run's export passes the
  :mod:`repro.obs.tracecheck` validator (the same check CI runs);
* provenance witnesses — ``--explain`` content for a known-racy DRB
  program, and absence of reports for a known race-free one;
* CLI wiring — ``--trace-timeline`` through the runner and offline CLIs.
"""

import json

import pytest

from repro.bench import drb
from repro.bench.runner import run_benchmark
from repro.bench.runner import main as run_main
from repro.core.offline import main as offline_main
from repro.core.tool import TaskgrindOptions
from repro.obs.tracecheck import validate, validate_events
from repro.obs.tracer import JOIN_TID, TimelineTracer, get_tracer

RACY = "027-taskdependmissing-orig"
RACE_FREE = "072-taskdep1-orig"


def program(name):
    for p in drb.REGISTRY:
        if p.name == name:
            return p
    raise LookupError(name)


@pytest.fixture
def tracer():
    """The process singleton, reset after the test so other tests see it
    disabled (the hooks prebind it at import time)."""
    t = get_tracer()
    yield t
    t.reset()


# ---------------------------------------------------------------------------
# tracer unit semantics
# ---------------------------------------------------------------------------

class TestTracerUnit:
    def test_disabled_records_nothing(self):
        t = TimelineTracer()
        assert not t.enabled
        t.instant("x")
        t.begin_span("p", 0)
        t.end_span("p", 0)
        # emit methods are unguarded at this level; the *hooks* guard on
        # .enabled — but a never-enabled tracer must still export cleanly
        t2 = TimelineTracer()
        assert len(t2) == 0
        assert t2.to_dict()["traceEvents"] == []

    def test_enable_resets_previous_buffer(self):
        t = TimelineTracer()
        t.enable(max_events=100)
        t.instant("a")
        n = len(t)
        t.enable(max_events=100)
        assert len(t) < n + 1          # old events gone, only fresh metadata

    def test_ring_buffer_bounds_and_counts_drops(self):
        t = TimelineTracer()
        t.enable(max_events=50)
        for i in range(200):
            t.instant(f"e{i}")
        assert len(t) == 50
        doc = t.to_dict()
        assert doc["otherData"]["dropped"] > 0
        assert len(doc["traceEvents"]) == 50

    def test_span_pairing_and_nesting(self):
        t = TimelineTracer()
        t.enable()
        t.begin_span("outer", 0)
        t.begin_span("inner", 0)
        t.end_span("inner", 0)
        t.end_span("outer", 0)
        assert validate(t.to_dict()) == []

    def test_flow_pairs_match(self):
        t = TimelineTracer()
        t.enable()
        t.edge_flow("hb", 0, 1)
        doc = t.to_dict()
        assert validate(doc) == []
        phases = [e["ph"] for e in doc["traceEvents"] if e["ph"] in "sf"]
        assert phases.count("s") == 1 and phases.count("f") == 1

    def test_close_all_terminates_open_segments_lifo(self):
        t = TimelineTracer()
        t.enable()
        t.segment_begin(0, 0, "serial", "root")
        t.segment_begin(1, 0, "task", "leaf")
        doc = t.to_dict()                # close_all runs inside
        assert validate(doc) == []
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert all(e["args"]["unterminated"] for e in ends)

    def test_exported_ts_monotone_nonnegative(self):
        t = TimelineTracer()
        t.enable()
        t.segment_begin(0, 0, "serial", "a")
        t.segment_begin(1, 1, "task", "b")
        t.segment_end(1)
        t.segment_end(0)
        # race flow back-dates anchors to span midpoints: export order must
        # still be monotone (stable sort by ts)
        assert t.race_flow(0, 1)
        last = -1.0
        for ev in t.to_dict()["traceEvents"]:
            if ev["ph"] == "M":
                continue
            assert ev["ts"] >= 0
            assert ev["ts"] >= last
            last = ev["ts"]

    def test_race_flow_without_spans_needs_thread_fallback(self):
        t = TimelineTracer()
        t.enable()
        assert not t.race_flow(7, 8)                   # no spans, no tids
        assert t.race_flow(7, 8, t1=0, t2=1)           # offline fallback
        assert validate(t.to_dict()) == []

    def test_virtual_segment_maps_to_join_lane(self):
        t = TimelineTracer()
        t.enable()
        t.instant("barrier", -1)
        ev = [e for e in t.to_dict()["traceEvents"] if e["ph"] == "i"][0]
        assert ev["tid"] == JOIN_TID

    def test_phase_lanes_are_per_os_thread(self):
        import threading
        t = TimelineTracer()
        t.enable()
        lanes = []
        threads = [threading.Thread(target=lambda: lanes.append(t.phase_lane()))
                   for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(set(lanes)) == 3


# ---------------------------------------------------------------------------
# schema of a real instrumented run (the check CI performs)
# ---------------------------------------------------------------------------

class TestRealRunSchema:
    def test_run_export_passes_tracecheck(self, tracer):
        tracer.enable()
        result = run_benchmark(program(RACY), "taskgrind")
        doc = tracer.to_dict()
        assert result.report_count >= 1
        assert validate(doc, require_flows=1, require_segments=True) == []
        assert doc["otherData"]["axis"] == "virtual"
        # at least one race-provenance flow per reported race
        races = [e for e in doc["traceEvents"]
                 if e.get("cat") == "race" and e["ph"] == "s"]
        assert len(races) >= result.report_count
        names = {e["name"] for e in doc["traceEvents"]}
        assert any(n.startswith("seg#") for n in names)
        assert any(n.startswith("shim.ompt.") for n in names)
        assert "task.create" in names

    def test_required_keys_on_every_event(self, tracer):
        tracer.enable()
        run_benchmark(program(RACY), "taskgrind")
        for ev in tracer.to_dict()["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in ev

    def test_disabled_tracer_records_nothing_during_run(self, tracer):
        assert not tracer.enabled
        run_benchmark(program(RACY), "taskgrind")
        assert len(tracer) == 0

    def test_validator_flags_malformed_traces(self):
        assert validate({}) != []
        bad = [{"ph": "B", "ts": 0, "pid": 1, "tid": 0, "name": "x"}]
        assert any("unclosed" in e for e in validate_events(bad))
        unordered = [
            {"ph": "i", "ts": 5.0, "pid": 1, "tid": 0, "name": "a"},
            {"ph": "i", "ts": 1.0, "pid": 1, "tid": 0, "name": "b"},
        ]
        assert any("monotone" in e for e in validate_events(unordered))


# ---------------------------------------------------------------------------
# provenance witnesses (--explain)
# ---------------------------------------------------------------------------

class TestWitness:
    def test_racy_program_witness_content(self):
        result = run_benchmark(program(RACY), "taskgrind",
                               taskgrind_options=TaskgrindOptions(explain=True))
        assert result.report_count >= 1
        for rep in result.reports:
            w = rep.witness
            assert w is not None
            assert w.s1_path and w.s1_path[0][0] == rep.s1.id
            assert w.s2_path and w.s2_path[0][0] == rep.s2.id
            assert w.s1_tasks and w.s2_tasks        # live run: tasks known
            assert w.nca_id is not None             # same parallel region
            assert w.first_interval is not None
            assert w.hb_explanation["tier"] == "dp"
            assert not w.hb_explanation["a_reaches_b"]
            assert not w.hb_explanation["b_reaches_a"]
            assert "reason" in w.hb_explanation
            # the witness survives the JSON path
            d = w.to_dict()
            json.dumps(d)
            assert d["nca"]["segment"] == w.nca_id

    def test_witness_rendered_in_report(self):
        from repro.core.reports import format_report
        result = run_benchmark(program(RACY), "taskgrind",
                               taskgrind_options=TaskgrindOptions(explain=True))
        text = format_report(result.reports[0])
        assert "provenance:" in text
        assert "no happens-before path" in text

    def test_race_free_program_reports_nothing(self):
        result = run_benchmark(program(RACE_FREE), "taskgrind",
                               taskgrind_options=TaskgrindOptions(explain=True))
        assert result.report_count == 0

    def test_without_explain_no_witness(self):
        result = run_benchmark(program(RACY), "taskgrind")
        assert all(r.witness is None for r in result.reports)

    def test_multi_report_run_walks_graph_once(self, tmp_path, monkeypatch):
        """Online and offline, ``--explain`` walks the graph's reverse
        adjacency and topological order once per report list, not once
        per report."""
        from repro.bench.programs import BenchProgram
        from repro.core.segments import SegmentGraph
        from repro.core.trace import analyze_trace, save_trace
        from repro.workloads.lulesh import LuleshConfig, run_lulesh
        calls = {"predecessors_map": 0, "topo_positions": 0}
        for name in calls:
            def counted(graph, _walk=getattr(SegmentGraph, name), _name=name):
                calls[_name] += 1
                return _walk(graph)
            monkeypatch.setattr(SegmentGraph, name, counted)
        cfg = LuleshConfig(s=16, tel=4, tnl=4, iterations=4, progress=True,
                           racy=True)
        lulesh = BenchProgram(name="lulesh", racy=True,
                              entry=lambda env: run_lulesh(env, cfg),
                              description="racy LULESH",
                              source_file="lulesh.cc",
                              features=frozenset({"task"}))
        result = run_benchmark(lulesh, "taskgrind", nthreads=1,
                               keep_machine=True,
                               taskgrind_options=TaskgrindOptions(
                                   explain=True))
        assert result.report_count > 1
        assert all(r.witness is not None for r in result.reports)
        assert calls == {"predecessors_map": 1, "topo_positions": 1}
        path = str(tmp_path / "lulesh.trace")
        save_trace(result.tool_obj, result.machine, path)
        reports = analyze_trace(path, explain=True)
        assert len(reports) > 1
        assert all(r.witness is not None for r in reports)
        assert calls == {"predecessors_map": 2, "topo_positions": 2}


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

class TestCli:
    def test_runner_trace_timeline_and_explain(self, tracer, tmp_path,
                                               capsys):
        out = tmp_path / "timeline.json"
        rc = run_main([RACY, "--trace-timeline", str(out), "--explain"])
        assert rc == 1                               # races reported
        doc = json.loads(out.read_text())
        assert validate(doc, require_flows=1, require_segments=True) == []
        captured = capsys.readouterr().out
        assert "provenance:" in captured

    def test_offline_trace_timeline_and_explain(self, tracer, tmp_path,
                                                capsys):
        trace = tmp_path / "trace.json"
        rc = run_main([RACY, "--save-trace", str(trace)])
        assert rc == 1
        out = tmp_path / "timeline.json"
        rc = offline_main([str(trace), "--trace-timeline", str(out),
                           "--explain"])
        assert rc == 1
        doc = json.loads(out.read_text())
        # offline axis is wall-clock; hb edge flows come from graph load,
        # race flows from the thread-lane fallback
        assert doc["otherData"]["axis"] == "wall"
        assert validate(doc, require_flows=1) == []
        captured = capsys.readouterr().out
        assert "provenance:" in captured
        assert "no common ancestor" in captured or "diverged at" in captured

    def test_explain_requires_taskgrind(self, capsys):
        rc = run_main([RACY, "--tool", "archer", "--explain"])
        assert rc == 2


# ---------------------------------------------------------------------------
# per-run scope (mark / delta_since / new_run)
# ---------------------------------------------------------------------------

class TestPerRunScope:
    def test_mark_and_delta_since(self, tracer):
        tracer.enable()
        tracer.instant("a")
        base = tracer.mark()
        tracer.instant("b")
        tracer.instant("c")
        delta = tracer.delta_since(base)
        assert [ev["name"] for ev in delta] == ["b", "c"]
        assert tracer.delta_since(tracer.mark()) == []

    def test_delta_survives_ring_eviction(self, tracer):
        tracer.enable(max_events=4)
        base = tracer.mark()
        for i in range(10):
            tracer.instant(f"e{i}")
        delta = tracer.delta_since(base)
        # 10 were emitted but only the last 4 remain in the ring; the
        # shortfall is how callers detect eviction
        assert [ev["name"] for ev in delta] == ["e6", "e7", "e8", "e9"]
        assert tracer._total_emitted - base == 10

    def test_new_run_clears_span_anchors_not_buffer(self, tracer):
        tracer.enable()
        tracer.segment_begin(0, 0, "task", "t1")
        tracer.segment_end(0)
        assert 0 in tracer.seg_spans
        before = len(tracer)
        tracer.new_run()
        assert tracer.seg_spans == {}
        assert len(tracer) == before       # recorded events survive

    def test_back_to_back_runs_do_not_share_ring_events(self, tracer):
        """Two run_benchmark calls in one process: the second run's scope
        contains only its own events (the regression this API exists for)."""
        tracer.enable()
        run_benchmark(program(RACE_FREE), "taskgrind", nthreads=2, seed=0)
        first_total = tracer._total_emitted
        assert first_total > 0
        base = tracer.mark()
        run_benchmark(program(RACE_FREE), "taskgrind", nthreads=2, seed=0)
        second = tracer.delta_since(base)
        assert len(second) == tracer._total_emitted - first_total
        # run 2's segment spans re-anchor from zero, so every span ts in
        # the new scope is fresh (no ids resolved against run 1's table)
        assert all(ev["ts"] >= 0 for ev in second)
        # and run_benchmark itself opened the new scope: no stale anchors
        begins = [ev for ev in second
                  if ev.get("ph") == "B" and ev.get("cat") == "segment"]
        assert begins, "second run recorded no segment spans"

    def test_counter_events_validate(self, tracer):
        tracer.enable()
        tracer.counter("prof.ops", {"record.access": 10.0, "sync": 2.0},
                       tid=0)
        events = list(tracer._events)
        cev = [ev for ev in events if ev["ph"] == "C"]
        assert len(cev) == 1
        assert cev[0]["args"] == {"record.access": 10.0, "sync": 2.0}
        assert validate_events([ev for ev in events if ev["ph"] != "M"]) == []

    def test_profiler_counters_merge_onto_timeline(self, tracer, tmp_path):
        """With profiler + tracer both on, segment closes sample cumulative
        per-class op counters onto the run's lanes — and the exported doc
        still passes tracecheck."""
        from repro.obs.prof import get_profiler
        prof = get_profiler()
        tracer.enable()
        prof.enable()
        try:
            run_benchmark(program(RACE_FREE), "taskgrind", nthreads=2,
                          seed=0)
        finally:
            prof.disable()
            prof.reset()
        out = tmp_path / "timeline.json"
        tracer.export(str(out))
        doc = json.loads(out.read_text())
        counters = [ev for ev in doc["traceEvents"]
                    if ev.get("ph") == "C" and ev.get("name") == "prof.ops"]
        assert counters, "no prof.ops counter samples on the timeline"
        assert all(isinstance(v, (int, float))
                   for ev in counters for v in ev["args"].values())
        assert validate(doc) == []
