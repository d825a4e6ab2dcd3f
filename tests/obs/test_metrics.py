"""Tests for the observability layer (repro.obs.metrics).

Four groups:

* instrument semantics — counters, gauges, histograms;
* phase timers — nesting, re-entrancy, exception safety, wall vs virtual
  time (both clocks injectable for determinism);
* the stable key contract — the stats documents the end-to-end benchmark
  and the offline smoke job parse, produced by a real instrumented run;
* the perf gate (``repro.bench.perf``) — its comparison of real-run
  layers against a baseline, and its exit codes.
"""

import json

import pytest

from repro.bench import drb
import repro.bench.perf as perf
from repro.bench.perf import (EXIT_BASELINE_UNUSABLE, compare_to_baseline,
                              summarize)
from repro.bench.runner import run_benchmark
from repro.core.trace import analyze_trace_with_stats, save_trace
from repro.obs.metrics import MetricsRegistry, get_registry


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------

class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_reset_preserves_identity(self):
        # hot paths prebind counters at import time; reset() must zero the
        # value without replacing the object or the binding goes stale
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(3)
        reg.reset()
        assert c.value == 0
        assert reg.counter("x") is c


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("mode")
        g.set(3)
        g.set(7)
        assert g.value == 7
        assert reg.snapshot()["gauges"]["mode"] == 7


class TestHistogram:
    def test_summary_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes")
        for v in (1, 2, 4, 9):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 16
        assert h.min == 1
        assert h.max == 9
        assert h.mean == 4.0

    def test_power_of_two_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes")
        # bucket k holds 2**(k-1) < v <= 2**k; bucket 0 holds v <= 1
        for v in (1, 2, 3, 4, 5, 8, 9):
            h.observe(v)
        d = h.as_dict()
        assert d["buckets"] == {"0": 1,   # 1
                                "1": 1,   # 2
                                "2": 2,   # 3, 4
                                "3": 2,   # 5, 8
                                "4": 1}   # 9

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        d = reg.histogram("empty").as_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None
        assert d["mean"] == 0.0


# ---------------------------------------------------------------------------
# phase timers
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_timed_registry():
    wall, vclock = FakeClock(), FakeClock()
    reg = MetricsRegistry(wallclock=wall)
    reg.set_vclock(vclock, ops_per_second=100.0)
    return reg, wall, vclock


class TestPhaseTimers:
    def test_wall_and_virtual_time(self):
        reg, wall, vclock = make_timed_registry()
        with reg.phase("record"):
            wall.advance(2.0)
            vclock.advance(500.0)
        p = reg.snapshot()["phases"]["record"]
        assert p["count"] == 1
        assert p["wall_s"] == 2.0
        assert p["vtime_ops"] == 500.0
        assert p["vtime_s"] == 5.0      # 500 ops at 100 ops/s

    def test_nested_phases_record_independently(self):
        reg, wall, _ = make_timed_registry()
        with reg.phase("analysis"):
            wall.advance(1.0)
            with reg.phase("analysis.pairs"):
                wall.advance(3.0)
            wall.advance(1.0)
        phases = reg.snapshot()["phases"]
        assert phases["analysis"]["wall_s"] == 5.0       # includes the child
        assert phases["analysis.pairs"]["wall_s"] == 3.0

    def test_reentrant_phase_counts_but_books_once(self):
        # a recursive phase must not double-book elapsed time
        reg, wall, _ = make_timed_registry()
        with reg.phase("suppress"):
            wall.advance(1.0)
            with reg.phase("suppress"):
                wall.advance(2.0)
            wall.advance(1.0)
        p = reg.snapshot()["phases"]["suppress"]
        assert p["count"] == 2
        assert p["wall_s"] == 4.0

    def test_exception_still_records_elapsed(self):
        reg, wall, _ = make_timed_registry()
        with pytest.raises(ValueError):
            with reg.phase("finalize"):
                wall.advance(7.0)
                raise ValueError("boom")
        p = reg.snapshot()["phases"]["finalize"]
        assert p["wall_s"] == 7.0
        # and the active-phase stack unwound: a fresh phase books normally
        with reg.phase("finalize"):
            wall.advance(1.0)
        assert reg.snapshot()["phases"]["finalize"]["wall_s"] == 8.0

    def test_no_vclock_reports_zero_virtual_time(self):
        wall = FakeClock()
        reg = MetricsRegistry(wallclock=wall)
        with reg.phase("offline"):
            wall.advance(1.0)
        p = reg.snapshot()["phases"]["offline"]
        assert p["vtime_ops"] == 0.0
        assert p["vtime_s"] == 0.0      # key always present (CI contract)

    def test_render_smoke(self):
        reg, wall, vclock = make_timed_registry()
        with reg.phase("record"):
            wall.advance(1.0)
            vclock.advance(50.0)
        reg.counter("record.wc_hits").inc(3)
        text = reg.render()
        assert "record" in text
        assert "record.wc_hits" in text


# ---------------------------------------------------------------------------
# the stable-key contract (what CI parses)
# ---------------------------------------------------------------------------

RACY = "027-taskdependmissing-orig"


def run_racy():
    get_registry().reset()
    return run_benchmark(drb.by_name(RACY), "taskgrind", nthreads=4, seed=0,
                         keep_machine=True)


class TestStatsDocuments:
    def test_tool_stats_keys(self):
        result = run_racy()
        doc = result.stats
        assert doc["schema"] == "taskgrind-stats/1"
        rec = doc["record"]
        for key in ("mode", "recorded_accesses", "filtered_accesses",
                    "fast_accesses", "legacy_accesses", "hub"):
            assert key in rec, f"missing record.{key}"
        assert rec["recorded_accesses"] > 0
        assert rec["fast_accesses"] + rec["legacy_accesses"] \
            == rec["recorded_accesses"]
        assert doc["virtual"]["makespan_ops"] > 0
        assert doc["virtual"]["seconds"] > 0
        graph = doc["graph"]
        for key in ("segments", "edges", "hb_exact", "queries",
                    "dp_rebuilds"):
            assert key in graph, f"missing graph.{key}"
        for key in ("fast_path", "hb_mode"):
            assert key not in rec and key not in graph, key
        for key in ("mode", "kernel"):
            assert key not in doc["analysis"], key
        assert doc["resilience"]["analysis"]["complete"] is True
        assert doc["analysis"]["reports"] == result.report_count

    def test_sched_block_publishes_the_scheduler_ints(self):
        result = run_racy()
        sched = result.machine.scheduler
        assert result.stats["sched"] == {"switches": sched.switches,
                                         "self_picks": sched.self_picks,
                                         "cpu": sched.cpu}
        assert 0 <= sched.self_picks < sched.switches

    def test_suppression_classes_all_present(self):
        # Section IV's four suppression classes each have a counter
        supp = run_racy().stats["suppress"]
        for key in ("ignore_list", "recycling_retained_blocks", "tls",
                    "stack", "survived", "fully_suppressed_pairs",
                    "file_suppressed"):
            assert key in supp, f"missing suppress.{key}"
        # free() is replaced with a no-op, so DRB heap blocks are retained
        assert supp["recycling_retained_blocks"] >= 0

    def test_registry_phases_cover_pipeline(self):
        run_racy()
        phases = get_registry().snapshot()["phases"]
        for name in ("record", "finalize", "analysis", "suppress", "report"):
            assert name in phases, f"missing phase {name}"
            assert phases[name]["count"] >= 1
        # the record phase wraps the instrumented run: simulated time moved
        assert phases["record"]["vtime_ops"] > 0

    def test_snapshot_is_json_serializable(self):
        run_racy()
        json.dumps(get_registry().snapshot())

    def test_trace_embeds_stats_and_offline_reexposes_them(self, tmp_path):
        result = run_racy()
        path = str(tmp_path / "trace.json")
        save_trace(result.tool_obj, result.machine, path)
        with open(path) as fh:
            embedded = next(json.loads(line)["payload"] for line in fh
                            if json.loads(line)["kind"] == "stats")
        assert embedded["schema"] == "taskgrind-stats/1"

        reports, stats = analyze_trace_with_stats(path)
        assert stats["schema"] == "taskgrind-offline-stats/1"
        assert stats["record_run"]["virtual"]["makespan_ops"] \
            == embedded["virtual"]["makespan_ops"]
        assert stats["analysis"]["reports"] == len(reports) > 0
        for phase in ("offline", "offline.load", "analysis", "suppress",
                      "report"):
            assert phase in stats["phases"], f"missing phase {phase}"
            assert "vtime_s" in stats["phases"][phase]


# ---------------------------------------------------------------------------
# the perf-gate comparison (pure function, no timing)
# ---------------------------------------------------------------------------

def result(correct=True, failed=0, **metrics):
    """A ``perfbench/run.py --trace 1`` result line (racy LULESH-like)."""
    values = {"record_ms": 30.0, "hb_filter_ms": 1.0, "suppress_ms": 0.3,
              "segments": 245, "hb_dp_queries": 6216}
    values.update(metrics)
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {k: {"value": v,
                            "unit": "ms" if k.endswith("_ms") else "count"}
                        for k, v in values.items() if v is not None}}


def doc(**results):
    """A perf document: one run per workload, heat's record-sync speedup."""
    out = summarize({wl: [r] for wl, r in results.items()})
    out["record_sync"] = {"heat": {"speedup": 11.2}}
    return out


def breach_and_blame(lines):
    """The gate's ``breached:`` and ``blame:`` lines (None when absent)."""
    return tuple(next((ln for ln in lines if ln.startswith(prefix)), None)
                 for prefix in ("breached: ", "blame: "))


class TestPerfGate:
    def test_passes_within_tolerance(self):
        # 55 ms is under the 2 x 30 + 1 ms ceiling
        ok, lines = compare_to_baseline(doc(lulesh=result(record_ms=55.0)),
                                        doc(lulesh=result()))
        assert ok, lines
        assert not any(ln.startswith(("breached", "blame")) for ln in lines)

    def test_fails_beyond_tolerance(self):
        ok, lines = compare_to_baseline(doc(lulesh=result(suppress_ms=5.3)),
                                        doc(lulesh=result()))
        assert not ok
        breach, blame = breach_and_blame(lines)
        assert breach == "breached: lulesh/suppress_ms"
        assert blame.startswith("blame: lulesh/suppress_ms grew most")

    def test_failure_names_the_breaching_workload_and_phase(self):
        # both layers pass their ceilings; the blame line names the one
        # furthest past it, not the one with the larger absolute growth
        fresh = doc(fib=result(),
                    lulesh=result(record_ms=62.0, hb_filter_ms=30.0))
        ok, lines = compare_to_baseline(fresh, doc(fib=result(),
                                                   lulesh=result()))
        assert not ok
        breach, blame = breach_and_blame(lines)
        assert breach == "breached: lulesh/record_ms, lulesh/hb_filter_ms"
        assert blame.startswith("blame: lulesh/hb_filter_ms grew most")

    def test_count_mismatch_inside_time_ceiling_breaches(self):
        # lulesh's record_ms is nearer its ceiling, but only fib breached:
        # the blame line names fib's layer
        fresh = doc(fib=result(hb_dp_queries=7000, hb_filter_ms=2.5),
                    lulesh=result(record_ms=58.0))
        ok, lines = compare_to_baseline(fresh, doc(fib=result(),
                                                   lulesh=result()))
        assert not ok
        breach, blame = breach_and_blame(lines)
        assert breach == "breached: fib/hb_dp_queries"
        assert blame.startswith("blame: fib/hb_filter_ms grew most")

    def test_improvement_always_passes(self):
        fast = result(record_ms=1.0, hb_filter_ms=0.1, suppress_ms=0.0)
        fresh = doc(lulesh=fast)
        fresh["record_sync"]["heat"]["speedup"] = 90.0
        ok, lines = compare_to_baseline(fresh, doc(lulesh=result()))
        assert ok, lines

    def test_fresh_doc_missing_a_gated_phase_fails(self):
        ok, lines = compare_to_baseline(doc(lulesh=result(suppress_ms=None)),
                                        doc(lulesh=result()))
        assert not ok
        breach, blame = breach_and_blame(lines)
        assert breach == "breached: lulesh/suppress_ms"
        assert "lost" in blame

    def test_only_common_workloads_compared(self):
        # a run the baseline has no entry for is held to its own checks
        # only (main refuses such a baseline with exit 3; without
        # --baseline this is every run)
        fresh = doc(fib=result(), lulesh=result(record_ms=900.0))
        ok, lines = compare_to_baseline(fresh, doc(fib=result()))
        assert ok, lines
        assert [ln.split()[0] for ln in lines if ln.startswith("lulesh")] \
            == ["lulesh/run"]

    def test_no_common_workloads_fails(self):
        ok, lines = compare_to_baseline(doc(), doc(fib=result(),
                                                   lulesh=result()))
        assert not ok
        assert breach_and_blame(lines)[0] == "breached: fib/run, lulesh/run"

    def test_record_sync_speedup_is_gated(self):
        fresh = doc(lulesh=result())
        fresh["record_sync"]["heat"]["speedup"] = 6.0   # floor 6.72x
        ok, lines = compare_to_baseline(fresh, doc(lulesh=result()))
        assert not ok
        assert breach_and_blame(lines)[0] == "breached: heat/record_sync"

    def test_repeated_workload_gates_its_medians(self):
        fresh = summarize({"fib": [result(record_ms=t)
                                   for t in (90.0, 31.0, 29.0)]})
        assert fresh["runs"]["fib"] == {"count": 3, "correct": True,
                                        "failed": 0}
        assert fresh["layers"]["fib"]["record_ms"] == 31.0
        assert fresh["layers"]["fib"]["segments"] == 245


class TestPerfGateExitCodes:
    """``main``: the run files, the baseline file and the exit code."""

    def _main(self, tmp_path, monkeypatch, runs, baseline):
        monkeypatch.setattr(perf, "run_record_sync", lambda: {
            "fib": {"full_s": 0.05, "sync_s": 0.001, "speedup": 50.0},
            "heat": {"full_s": 0.01, "sync_s": 0.001, "speedup": 10.0}})
        args = []
        for wl, res in runs:
            path = tmp_path / f"{wl}.out"
            text = res if isinstance(res, str) else json.dumps(res)
            path.write_text("fib(17) = 1597\n" + text + "\n")
            args.append(f"{wl}={path}")
        if isinstance(baseline, dict):
            path = tmp_path / "base.json"
            path.write_text(json.dumps(baseline))
            baseline = str(path)
        return perf.main(["--baseline", baseline,
                          "--json", str(tmp_path / "fresh.json"), *args])

    def base(self, **results):
        out = doc(**results)
        out["record_sync"] = {"fib": {"speedup": 47.8},
                              "heat": {"speedup": 11.2}}
        return out

    def test_passing_runs_exit_zero(self, tmp_path, monkeypatch):
        rc = self._main(tmp_path, monkeypatch,
                        [("fib", result()), ("lulesh", result())],
                        self.base(fib=result(), lulesh=result()))
        assert rc == 0
        fresh = json.loads((tmp_path / "fresh.json").read_text())
        assert set(fresh) == {"bench", "runs", "layers", "record_sync"}

    @pytest.mark.parametrize("bad", [result(correct=False),
                                     result(failed=2),
                                     "Traceback (most recent call last):"],
                             ids=["incorrect", "failed", "no-result"])
    def test_bad_run_exits_one_and_names_workload(self, tmp_path,
                                                  monkeypatch, capsys, bad):
        rc = self._main(tmp_path, monkeypatch,
                        [("fib", bad), ("lulesh", result())],
                        self.base(fib=result(), lulesh=result()))
        assert rc == 1
        assert "breached: fib/run" in capsys.readouterr().out

    def test_missing_run_exits_one_and_names_workload(self, tmp_path,
                                                      monkeypatch, capsys):
        rc = self._main(tmp_path, monkeypatch, [("lulesh", result())],
                        self.base(fib=result(), lulesh=result()))
        assert rc == 1
        assert "breached: fib/run" in capsys.readouterr().out

    def test_unusable_baseline_exits_three(self, tmp_path, monkeypatch):
        runs = [("fib", result())]
        assert self._main(tmp_path, monkeypatch, runs,
                          str(tmp_path / "nope.json")) \
            == EXIT_BASELINE_UNUSABLE
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert self._main(tmp_path, monkeypatch, runs, str(bad)) \
            == EXIT_BASELINE_UNUSABLE

    def test_baseline_lacking_a_workload_exits_three(self, tmp_path,
                                                     monkeypatch, capsys):
        rc = self._main(tmp_path, monkeypatch,
                        [("fib", result()), ("serve", result())],
                        self.base(fib=result()))
        assert rc == EXIT_BASELINE_UNUSABLE
        assert "layers.serve" in capsys.readouterr().err
        no_sync = self.base(fib=result())
        del no_sync["record_sync"]["heat"]
        assert self._main(tmp_path, monkeypatch, [("fib", result())],
                          no_sync) == EXIT_BASELINE_UNUSABLE


# ---------------------------------------------------------------------------
# percentile estimation from power-of-two buckets
# ---------------------------------------------------------------------------

class TestPercentiles:
    def test_empty_histogram_has_no_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.percentile(0.5) is None
        d = h.as_dict()
        assert d["p50"] is None and d["p95"] is None

    def test_single_value_percentiles_clamp_to_it(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(7)
        # one sample in bucket (4, 8]: every quantile is clamped to min=max=7
        assert h.percentile(0.5) == 7
        assert h.percentile(0.95) == 7

    def test_p50_p95_order_and_bucket_accuracy(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(v)
        p50, p95 = h.percentile(0.5), h.percentile(0.95)
        assert p50 is not None and p95 is not None
        assert p50 <= p95 <= 100
        # power-of-two sketch: the estimate lands in the right bucket
        assert 32 < p50 <= 64          # true median 50 lives in (32, 64]
        assert 64 < p95 <= 100         # true p95 95 lives in (64, 128]

    def test_as_dict_keeps_bucket_keys_stable(self):
        # the CI smoke test parses buckets; adding p50/p95 must not disturb it
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(3)
        d = h.as_dict()
        assert d["buckets"] == {"2": 1}
        assert set(d) == {"count", "sum", "min", "max", "mean",
                          "p50", "p95", "buckets"}

    def test_render_shows_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("batch")
        for v in (1, 2, 4, 8):
            h.observe(v)
        out = reg.render()
        assert "p50" in out and "p95" in out and "batch" in out


# ---------------------------------------------------------------------------
# per-run scoping (mark/delta): back-to-back runs must not leak state
# ---------------------------------------------------------------------------

class TestRunScoping:
    def test_mark_delta_isolates_counter_activity(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(10)
        base = reg.mark()
        c.inc(3)
        delta = reg.delta_since(base)
        assert delta["counters"]["x"] == 3

    def test_delta_drops_untouched_instruments(self):
        reg = MetricsRegistry()
        reg.counter("quiet").inc(5)
        reg.histogram("hquiet").observe(1)
        base = reg.mark()
        delta = reg.delta_since(base)
        assert "quiet" not in delta["counters"]
        assert "hquiet" not in delta["histograms"]

    def test_delta_histograms_and_phases(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(2)
        with reg.phase("p"):
            pass
        base = reg.mark()
        h.observe(4)
        h.observe(4)
        with reg.phase("p"):
            pass
        delta = reg.delta_since(base)
        assert delta["histograms"]["h"]["count"] == 2
        assert delta["histograms"]["h"]["sum"] == 8.0
        assert delta["histograms"]["h"]["buckets"] == {"2": 2}
        assert delta["phases"]["p"]["count"] == 1

    def test_two_sequential_runs_report_independent_registry_stats(self):
        # regression: process-wide registry state used to leak into the
        # second run's stats document (cumulative counters/phases)
        prog = next(p for p in drb.REGISTRY
                    if p.name == "027-taskdependmissing-orig")
        r1 = run_benchmark(prog, "taskgrind")
        r2 = run_benchmark(prog, "taskgrind")
        reg1, reg2 = r1.stats["registry"], r2.stats["registry"]
        # identical runs: the per-run deltas must match, not accumulate
        assert reg1["counters"] == reg2["counters"]
        assert reg1["phases"]["finalize"]["count"] == 1
        assert reg2["phases"]["finalize"]["count"] == 1

    def test_two_sequential_offline_analyses_scoped(self, tmp_path):
        prog = next(p for p in drb.REGISTRY
                    if p.name == "027-taskdependmissing-orig")
        result = run_benchmark(prog, "taskgrind", keep_machine=True)
        path = str(tmp_path / "t.json")
        save_trace(result.tool_obj, result.machine, path)
        _, s1 = analyze_trace_with_stats(path)
        _, s2 = analyze_trace_with_stats(path)
        assert s1["phases"]["offline"]["count"] == 1
        assert s2["phases"]["offline"]["count"] == 1
        assert s1["phases"]["offline.load"]["count"] == 1
        assert s2["phases"]["offline.load"]["count"] == 1


# ---------------------------------------------------------------------------
# Prometheus text exposition (--stats=prom)
# ---------------------------------------------------------------------------

class TestPromExposition:
    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prom() == ""

    def test_counters_and_numeric_gauges(self):
        reg = MetricsRegistry()
        reg.counter("record.fast").inc(7)
        reg.gauge("graph.segments").set(42)
        text = reg.render_prom()
        assert "# TYPE taskgrind_record_fast_total counter" in text
        assert "taskgrind_record_fast_total 7" in text
        assert "# TYPE taskgrind_graph_segments gauge" in text
        assert "taskgrind_graph_segments 42" in text
        assert text.endswith("\n")

    def test_non_numeric_gauge_becomes_info(self):
        reg = MetricsRegistry()
        reg.gauge("analysis.hb_tier").set("label")
        text = reg.render_prom()
        assert 'taskgrind_analysis_hb_tier_info{value="label"} 1' in text

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.counter("vex.sb-hit/miss").inc()
        text = reg.render_prom()
        assert "taskgrind_vex_sb_hit_miss_total 1" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("accesses.size")
        h.observe(1)      # bucket 2^0
        h.observe(2)      # bucket 2^1
        h.observe(2)
        text = reg.render_prom()
        assert "# TYPE taskgrind_accesses_size histogram" in text
        # cumulative: the le="2.0" bucket includes the le="1.0" count
        assert 'taskgrind_accesses_size_bucket{le="1.0"} 1' in text
        assert 'taskgrind_accesses_size_bucket{le="2.0"} 3' in text
        assert 'taskgrind_accesses_size_bucket{le="+Inf"} 3' in text
        assert "taskgrind_accesses_size_count 3" in text
        assert "taskgrind_accesses_size_sum 5" in text

    def test_phase_families_labeled(self):
        reg = MetricsRegistry(wallclock=iter([0.0, 1.5]).__next__)
        with reg.phase("analysis"):
            pass
        text = reg.render_prom()
        assert ('taskgrind_phase_runs_total{phase="analysis"} 1'
                in text)
        assert ('taskgrind_phase_wall_seconds_total{phase="analysis"} 1.5'
                in text)
        assert "taskgrind_phase_vtime_ops_total" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("path").set('a"b\\c')
        text = reg.render_prom()
        assert 'value="a\\"b\\\\c"' in text

    def test_real_run_parses_line_by_line(self):
        """Every non-comment line is `name{labels}? value` with a numeric
        value — the shape a Prometheus scraper requires."""
        reg = get_registry()
        reg.reset()
        for p in drb.REGISTRY:
            if p.name == "072-taskdep1-orig":
                run_benchmark(p, "taskgrind", nthreads=2, seed=0)
                break
        text = reg.render_prom()
        reg.reset()
        assert text
        for line in text.rstrip("\n").splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE taskgrind_")
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("taskgrind_")
            float(value)            # must parse
