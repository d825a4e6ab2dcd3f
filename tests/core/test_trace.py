"""Tests for trace export + offline analysis (the Section VII pipeline)."""

import json

import pytest

from repro.core.npkernel import KernelContext
from repro.core.offline import main as offline_main
from repro.core.reports import format_report
from repro.core.trace import (_payload_crc, analyze_trace, load_trace,
                              save_trace)
from repro.errors import TraceVersionError
from tests.core.analysis_oracle import all_pairs


def racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")

    def single_body():
        ctx.line(8)
        env.task(lambda tv: x.write(0, line=9), name="t8")
        ctx.line(11)
        env.task(lambda tv: x.write(0, line=12), name="t11")

    env.parallel_single(single_body)


def stacky_clean(env):
    """Only suppressed (stack-local) conflicts: offline must stay clean."""
    def task_body(tv):
        z = env.ctx.stack_var("z", 8, elem=8)
        z.write(0)

    def make():
        env.task(task_body, annotate_deferrable=True)
        env.task(task_body, annotate_deferrable=True)
        env.taskwait()
    env.parallel_single(make, num_threads=1)


@pytest.fixture
def trace_path(run_taskgrind, tmp_path):
    tool, machine = run_taskgrind(racy_listing)
    path = tmp_path / "run.trace.json"
    save_trace(tool, machine, str(path))
    return str(path), tool


class TestRoundTrip:
    def test_graph_survives(self, trace_path):
        path, tool = trace_path
        graph, view, _flags = load_trace(path)
        orig = tool.builder.graph
        assert len(graph.segments) == len(orig.segments)
        assert graph.edge_count == orig.edge_count
        for a, b in zip(graph.segments, orig.segments):
            assert a.reads.pairs() == b.reads.pairs()
            assert a.writes.pairs() == b.writes.pairs()
            assert a.thread_id == b.thread_id
            assert (a.tls_snapshot is None) == (b.tls_snapshot is None)

    def test_offline_reports_match_online(self, trace_path):
        path, tool = trace_path
        offline = analyze_trace(path)
        assert len(offline) == len(tool.reports) == 1
        assert offline[0].key() == tool.reports[0].key()
        assert offline[0].block_size == tool.reports[0].block_size
        assert str(offline[0].alloc_site) == str(tool.reports[0].alloc_site)

    def test_all_modes_agree_offline(self, trace_path, monkeypatch):
        """One worker and two report what the all-pairs oracle reports."""
        path, _ = trace_path

        def texts(workers):
            return [format_report(r)
                    for r in analyze_trace(path, workers=workers)]
        got = {workers: texts(workers) for workers in (1, 2)}
        monkeypatch.setattr(KernelContext, "candidate_pairs", all_pairs)
        oracle = texts(1)
        assert len(oracle) == 1
        assert all(t == oracle for t in got.values())

    def test_version_gate(self, trace_path, tmp_path):
        path, _ = trace_path
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        bad = tmp_path / "bad.json"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_trace(str(bad))

    def test_version_gate_legacy_doc(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "graph": {}}))
        with pytest.raises(ValueError, match="version"):
            load_trace(str(bad))

    def test_version_1_doc_is_rejected(self, tmp_path, capsys):
        """The retired single-document format is a typed version error:
        exit 2 offline, naming the version found and the one spoken."""
        old = tmp_path / "v1.json"
        old.write_text(json.dumps({
            "version": 1, "graph": {"segments": [], "edges": []},
            "environment": {"regions": [], "blocks": []},
            "suppression": {"suppress_tls": True, "suppress_stack": True}}))
        with pytest.raises(TraceVersionError) as exc:
            load_trace(str(old))
        assert exc.value.found == 1
        assert "version 1" in str(exc.value)
        assert "version 2" in str(exc.value)
        assert offline_main([str(old)]) == 2
        assert "version 2" in capsys.readouterr().err


class TestSuppressionsOffline:
    def test_stack_suppression_applies_offline(self, run_taskgrind,
                                               tmp_path):
        tool, machine = run_taskgrind(stacky_clean, nthreads=1)
        assert tool.reports == []
        path = tmp_path / "clean.json"
        save_trace(tool, machine, str(path))
        assert analyze_trace(str(path)) == []

    def test_raw_candidates_visible_without_flags(self, run_taskgrind,
                                                  tmp_path):
        tool, machine = run_taskgrind(stacky_clean, nthreads=1)
        path = tmp_path / "clean.json"
        save_trace(tool, machine, str(path))
        lines = open(path).read().splitlines()
        for i, line in enumerate(lines):
            doc = json.loads(line)
            if doc["kind"] == "suppression":
                doc["payload"] = {"suppress_stack": False,
                                  "suppress_tls": False}
                doc["crc"] = _payload_crc(doc["payload"])
                lines[i] = json.dumps(doc)
        raw = tmp_path / "raw.json"
        raw.write_text("\n".join(lines) + "\n")
        assert analyze_trace(str(raw))       # the stack FP reappears


class TestCli:
    def test_text_output(self, trace_path, capsys):
        path, _ = trace_path
        rc = offline_main([path])
        out = capsys.readouterr().out
        assert rc == 1                       # races found -> nonzero
        assert "1 determinacy race(s)" in out
        assert "main.c:8" in out

    def test_json_output(self, trace_path, capsys):
        path, _ = trace_path
        offline_main([path, "--json", "--workers", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_count"] == 1

    def test_clean_exit_code(self, run_taskgrind, tmp_path, capsys):
        tool, machine = run_taskgrind(stacky_clean, nthreads=1)
        path = tmp_path / "clean.json"
        save_trace(tool, machine, str(path))
        assert offline_main([str(path)]) == 0
