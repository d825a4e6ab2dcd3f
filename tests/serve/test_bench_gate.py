"""Tests for the load-generator helpers and the serve gate: breach
naming, blame lines, the chaos degradation contract, and the distinct
exit code for an unusable baseline."""

import json

import pytest

import repro.bench.serve as serve_bench
from repro.bench.perf import EXIT_BASELINE_UNUSABLE
from repro.bench.serve import (_check_chaos_outcome, _check_serve, _race_key,
                               _summarize_ms, _well_formed_partial,
                               percentile)


class TestPercentile:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(samples, 0.50) == 5.0
        assert percentile(samples, 0.95) == 10.0
        assert percentile(samples, 0.0) == 1.0

    def test_empty_and_singleton(self):
        assert percentile([], 0.95) == 0.0
        assert percentile([7.5], 0.50) == 7.5

    def test_summary_shape(self):
        doc = _summarize_ms([1.0, 2.0, 3.0])
        assert doc["count"] == 3
        assert doc["p50_ms"] == 2.0
        assert doc["mean_ms"] == 2.0


class TestRaceKey:
    ERROR = {
        "kind": "DeterminacyRace",
        "segments": [{"label": "t8", "thread": 1, "access": "a.c:9"},
                     {"label": "t11", "thread": 2, "access": "a.c:12"}],
        "conflict": {"ranges": [[0, 8]], "bytes": 8, "region": "heap"},
        "allocation": {"block": 4096, "size": 8, "site": "a.c:3"},
        "witness": None,
        "notes": [],
    }

    def test_ignores_evidence_dependent_fields(self):
        degraded = json.loads(json.dumps(self.ERROR))
        degraded["notes"] = ["incomplete evidence: 2 chunks lost"]
        degraded["allocation"] = None           # environment chunk lost
        degraded["conflict"]["region"] = "unknown"
        assert _race_key(self.ERROR) == _race_key(degraded)

    def test_distinguishes_actual_races(self):
        other = json.loads(json.dumps(self.ERROR))
        other["conflict"]["ranges"] = [[8, 16]]
        assert _race_key(self.ERROR) != _race_key(other)


def _report(resilience=None):
    doc = {"schema": "taskgrind-serve-report/1", "errors": [],
           "error_count": 0, "coverage": {"complete": False},
           "analysis": {"reports": 0}}
    if resilience is not None:
        doc["analysis"]["resilience"] = resilience
    return doc


class TestWellFormedPartial:
    def test_accepts_real_shape(self):
        res = {"schema": "taskgrind-partial-analysis/1", "complete": False,
               "pairs": {"total": 10, "checked": 7, "unchecked": 3}}
        assert _well_formed_partial(_report(res)) == []
        assert _well_formed_partial(_report()) == []

    def test_flags_missing_pairs_accounting(self):
        problems = _well_formed_partial(_report({"complete": False}))
        assert any("unchecked-pairs" in p for p in problems)

    def test_flags_missing_top_level_keys(self):
        doc = _report()
        del doc["coverage"]
        assert any("coverage" in p for p in _well_formed_partial(doc))


class TestChaosContract:
    BASE = {"trace": "heat", "plan": "save-crash@1"}

    def test_hang_is_fatal(self):
        out = dict(self.BASE, hang="job j3 still running after 60s")
        problems = _check_chaos_outcome(out, set())
        assert len(problems) == 1 and "HANG" in problems[0]

    def test_invented_race_is_flagged(self):
        race = {"kind": "DeterminacyRace", "segments": [],
                "conflict": {"ranges": [[0, 8]], "bytes": 8}}
        out = dict(self.BASE, job_state="degraded",
                   report=dict(_report(), errors=[race], error_count=1))
        problems = _check_chaos_outcome(out, clean=set())
        assert any("INVENTED" in p for p in problems)
        # same race present in the clean universe: no violation
        assert _check_chaos_outcome(out, clean={_race_key(race)}) == []

    def test_fault_that_never_fired_violates(self):
        out = dict(self.BASE, job_state="done", report=_report(),
                   fired={"save-crash@1": 0})
        problems = _check_chaos_outcome(out, set())
        assert any("never fired" in p for p in problems)
        out["fired"] = {"save-crash@1": 1}
        assert _check_chaos_outcome(out, set()) == []

    def test_analysis_fault_without_a_chunk_has_no_target(self):
        """A worker-hang needs a chunk to stall: with no candidate pair
        it cannot fire, and with one it must."""
        chunks = {"complete": True, "chunks": {"total": 0},
                  "pairs": {"total": 0, "checked": 0, "unchecked": 0}}
        out = dict(self.BASE, plan="worker-hang@0", job_state="done",
                   report=_report(chunks), fired={"worker-hang@0": 0})
        assert _check_chaos_outcome(out, set()) == []
        chunks["chunks"]["total"] = 1
        problems = _check_chaos_outcome(out, set())
        assert any("never fired" in p for p in problems)

    def test_failed_job_violates(self):
        out = dict(self.BASE, job_state="failed",
                   report_error={"status": 409})
        problems = _check_chaos_outcome(out, set())
        assert any("partial report" in p for p in problems)

    def test_untyped_edge_rejection_violates(self):
        out = dict(self.BASE, job_state="degraded", report=_report(),
                   edge_status=500, edge_error={})
        problems = _check_chaos_outcome(out, set())
        assert any("untyped" in p for p in problems)


# ---------------------------------------------------------------------------
# the serve gate (_check_serve)
# ---------------------------------------------------------------------------

def _serve_block(tp=1000.0, upload_p95=1.0, analyze_p95=5.0):
    return {
        "sessions": 10,
        "chunks_uploaded": 40,
        "elapsed_s": 0.04,
        "throughput_chunks_per_s": tp,
        "endpoints": {
            "upload_chunk": {"count": 40, "p50_ms": upload_p95 / 2,
                             "p95_ms": upload_p95, "mean_ms": upload_p95 / 2},
            "report": {"count": 10, "p50_ms": 0.5, "p95_ms": 1.0,
                       "mean_ms": 0.6},
        },
        "job_phases": {
            "build": {"count": 10, "p50_ms": 0.5, "p95_ms": 1.0},
            "analyze": {"count": 10, "p50_ms": 2.0, "p95_ms": analyze_p95},
        },
        "failures": [],
        "mismatches": [],
    }


class TestServeGate:
    def test_identical_blocks_pass(self):
        ok, lines = _check_serve(_serve_block(), _serve_block(), 0.4)
        assert ok, lines
        assert any("throughput" in line for line in lines)

    def test_throughput_floor_breach_names_serve(self):
        ok, lines = _check_serve(_serve_block(tp=100.0),
                                 _serve_block(tp=1000.0), 0.4)
        assert not ok
        assert any("breached tolerance: serve/throughput" in line
                   for line in lines)

    def test_p95_ceiling_breach_names_endpoint_and_phase(self):
        fresh = _serve_block(upload_p95=50.0, analyze_p95=60.0)
        base = _serve_block(upload_p95=1.0, analyze_p95=5.0)
        ok, lines = _check_serve(fresh, base, 0.4)
        assert not ok
        breach = [ln for ln in lines if ln.startswith("breached")][0]
        assert "serve/upload_chunk.p95" in breach
        # the blame line names the job phase whose p95 grew the most
        assert any("top regressing phase 'analyze'" in ln for ln in lines)

    def test_breach_without_phase_growth_blames_http_side(self):
        ok, lines = _check_serve(_serve_block(upload_p95=50.0),
                                 _serve_block(upload_p95=1.0), 0.4)
        assert not ok
        assert any("HTTP/queueing-side regression" in ln for ln in lines)

    def test_serve_only_documents_are_comparable(self, bench):
        # the serve gate reads only the baseline's serve block: a perf
        # document without the real-run blocks still gates
        assert bench({"serve": _serve_block()}) == 0

    def test_absolute_grace_absorbs_submillisecond_noise(self):
        # 0.1ms -> 0.55ms is >5x relative, but within the absolute grace
        ok, _lines = _check_serve(_serve_block(upload_p95=0.55),
                                  _serve_block(upload_p95=0.1), 0.4)
        assert ok

    def test_lost_endpoint_measurement_is_a_breach(self):
        fresh = _serve_block()
        del fresh["endpoints"]["report"]
        ok, lines = _check_serve(fresh, _serve_block(), 0.4)
        assert not ok
        assert any("serve/report.p95" in line for line in lines)


# ---------------------------------------------------------------------------
# --baseline / --merge-into exit codes (repro.bench.serve)
# ---------------------------------------------------------------------------

@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Run the serve bench's CLI on a canned load block; returns its rc.

    ``baseline`` is a document (written to a file) or a path.
    """
    fresh = {"block": _serve_block()}
    monkeypatch.setattr(serve_bench, "materialize_traces",
                        lambda *a, **kw: [])
    monkeypatch.setattr(serve_bench, "run_load",
                        lambda *a, **kw: fresh["block"])

    def run(baseline, block=None, *extra):
        if block is not None:
            fresh["block"] = block
        if isinstance(baseline, dict):
            path = tmp_path / "base.json"
            path.write_text(json.dumps(baseline))
            baseline = str(path)
        return serve_bench.main(["--baseline", baseline, *extra])

    return run


class TestBaselineExitCodes:
    def test_missing_baseline_file(self, bench, tmp_path, capsys):
        rc = bench(str(tmp_path / "nope.json"))
        assert rc == EXIT_BASELINE_UNUSABLE
        assert "cannot read baseline" in capsys.readouterr().err

    def test_unparseable_baseline(self, bench, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert bench(str(bad)) == EXIT_BASELINE_UNUSABLE

    def test_baseline_lacking_gated_workload(self, bench, capsys):
        # a perf document without the serve block cannot gate the bench
        rc = bench({"bench": "perf", "layers": {}})
        assert rc == EXIT_BASELINE_UNUSABLE
        assert "'serve' block" in capsys.readouterr().err

    def test_usable_baseline_passes(self, bench):
        assert bench({"serve": _serve_block()}) == 0

    def test_real_regression_still_exits_one(self, bench):
        assert bench({"serve": _serve_block()},
                     _serve_block(tp=100.0)) == 1

    def test_merge_into_needs_a_readable_perf_document(self, bench,
                                                       tmp_path):
        target = tmp_path / "perf.json"
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"serve": _serve_block()}))
        assert bench(str(base), None, "--merge-into", str(target)) \
            == EXIT_BASELINE_UNUSABLE
        assert not target.exists()
        target.write_text(json.dumps({"bench": "perf", "layers": {}}))
        assert bench(str(base), _serve_block(tp=900.0), "--merge-into",
                     str(target)) == 0
        merged = json.loads(target.read_text())
        assert merged["layers"] == {}
        assert merged["serve"]["throughput_chunks_per_s"] == 900.0
