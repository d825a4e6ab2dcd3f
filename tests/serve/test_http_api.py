"""End-to-end tests over real HTTP: an in-process server on a loopback
socket, the stdlib client, and a recorded racy trace.

The load-bearing assertion is byte parity: the report the server
produces for an uploaded trace must serialize identically to what
``repro.core.offline`` computes from the same file.
"""

import json
import sys

from repro.core.reports import report_to_dict
from repro.core.trace import (TRACE_VERSION, analyze_trace,
                              analyze_trace_with_stats)
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.obs.tracecheck import validate_events
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.client import read_trace_lines

from tests.serve.conftest import chunk_line, header_line


class TestLifecycle:
    def test_report_byte_parity_with_offline(self, client, trace_file,
                                             trace_lines):
        offline = json.dumps(
            [report_to_dict(r) for r in analyze_trace(trace_file)],
            sort_keys=True)
        trace_id, ack = client.upload_trace(trace_lines)
        assert ack["state"] == "complete"
        job_id = client.analyze(trace_id)
        doc = client.wait(job_id, timeout=60.0)
        assert doc["state"] == "done"
        status, report = client.report(job_id)
        assert status == 200
        assert report["schema"] == "taskgrind-serve-report/1"
        assert report["error_count"] >= 1
        assert json.dumps(report["errors"], sort_keys=True) == offline
        assert report["coverage"]["complete"] is True
        assert report["job_id"] == job_id
        assert report["trace_id"] == trace_id

    def test_timeline_is_valid_chrome_trace(self, client, trace_lines):
        trace_id, _ = client.upload_trace(trace_lines)
        job_id = client.analyze(trace_id)
        client.wait(job_id, timeout=60.0)
        doc = client.timeline(job_id)
        events = doc["traceEvents"]
        validate_events(events)
        spans = {e["name"] for e in events if e["ph"] == "X"}
        assert {"queue-wait", "build", "analyze", "report"} <= spans

    def test_healthz_and_metrics(self, client, server):
        status, doc = client.request("GET", "/healthz")
        assert status == 200 and doc["ok"] is True
        status, doc = client.request("GET", "/metrics")
        assert status == 200
        assert "serve" in doc.get("raw", "")


class TestStructuredErrors:
    def test_identical_reput_is_idempotent_200(self, client, trace_lines):
        # a resuming client may resend a chunk whose ack it never saw;
        # the identical body must ack as a no-op, not 409
        trace_id = client.create_trace()
        assert client.upload_chunk(trace_id, 0, trace_lines[0])[0] == 200
        status, doc = client.upload_chunk(trace_id, 0, trace_lines[0])
        assert status == 200
        assert doc["duplicate"] is True
        assert doc["next_seq"] == 1

    def test_conflicting_reput_is_409(self, client, trace_lines):
        trace_id = client.create_trace()
        assert client.upload_chunk(trace_id, 0, trace_lines[0])[0] == 200
        assert client.upload_chunk(trace_id, 1, trace_lines[1])[0] == 200
        # seq 1 again but with different (valid-envelope) content
        other = json.loads(trace_lines[2])
        other["seq"] = 1
        status, doc = client.upload_chunk(trace_id, 1,
                                          json.dumps(other).encode(),
                                          retry=False)
        assert status == 409
        err = doc["error"]
        assert err["type"] == "UploadSequenceError"
        assert "different content" in err["reason"]

    def test_out_of_order_chunk_is_409(self, client, trace_lines):
        trace_id = client.create_trace()
        assert client.upload_chunk(trace_id, 0, trace_lines[0])[0] == 200
        status, doc = client.upload_chunk(trace_id, 5, trace_lines[5])
        assert status == 409
        assert "out-of-order" in doc["error"]["reason"]

    def test_crc_mismatch_is_422_with_location(self, client, trace_lines):
        trace_id = client.create_trace()
        assert client.upload_chunk(trace_id, 0, trace_lines[0])[0] == 200
        doc = json.loads(trace_lines[1])
        doc["crc"] = (doc["crc"] + 1) & 0xFFFFFFFF
        status, body = client.upload_chunk(trace_id, 1,
                                           json.dumps(doc).encode())
        assert status == 422
        err = body["error"]
        assert err["type"] == "TraceCorruptionError"
        assert err["chunk_seq"] == 1
        assert "byte_offset" in err

    def test_undecodable_chunk_is_400(self, client):
        trace_id = client.create_trace()
        status, doc = client.upload_chunk(trace_id, 0, b"}{")
        assert status == 400
        assert doc["error"]["type"] == "TraceFormatError"

    def test_wrong_version_is_400(self, client):
        trace_id = client.create_trace()
        status, doc = client.upload_chunk(
            trace_id, 0, header_line(version=TRACE_VERSION + 1))
        assert status == 400
        assert doc["error"]["type"] == "TraceVersionError"

    def test_unknown_trace_is_404(self, client):
        status, doc = client.request("GET", "/v1/traces/t404")
        assert status == 404
        assert doc["error"]["type"] == "ResourceNotFound"

    def test_unknown_job_is_404(self, client):
        status, doc = client.request("GET", "/v1/jobs/j404")
        assert status == 404

    def test_unmatched_route_is_404(self, client):
        status, doc = client.request("POST", "/v1/nonsense")
        assert status == 404

    def test_non_integer_seq_is_400(self, client):
        trace_id = client.create_trace()
        status, doc = client.request(
            "PUT", f"/v1/traces/{trace_id}/chunks/zero", body=b"{}")
        assert status == 400


#: malformed analyze bodies -> the field the 400 must name
BAD_ANALYZE_BODIES = [
    ({"workers": "two"}, "workers"),
    ({"workers": 0}, "workers"),
    ({"workers": True}, "workers"),
    ({"max_retries": -1}, "max_retries"),
    ({"max_retries": 1.5}, "max_retries"),
    ({"deadline_s": 0}, "deadline_s"),
    ({"deadline_s": "1"}, "deadline_s"),
    ({"explain": "yes"}, "explain"),
    ({"mode": "indexed"}, "mode"),
    ({"mode": "parallel"}, "mode"),
    ({"kernel": "numpy"}, "kernel"),
    ([1, 2], "JSON object"),
    ("indexed", "JSON object"),
]


class TestAnalyzeOptionValidation:
    """The analyze body is validated at the edge: a malformed request is a
    typed 400 naming the field, never a 500 from the job executor."""

    def _analyze(self, client, trace_id, body):
        return client.request("POST", f"/v1/traces/{trace_id}/analyze",
                              body=json.dumps(body).encode(), retry=False)

    def test_each_malformed_body_is_a_typed_400(self, client, trace_lines):
        trace_id, _ = client.upload_trace(trace_lines)
        for body, field in BAD_ANALYZE_BODIES:
            status, doc = self._analyze(client, trace_id, body)
            assert status == 400, body
            assert doc["error"]["type"] == "TraceFormatError", body
            assert field in doc["error"]["message"], body

    def test_malformed_requests_leave_analyze_usable(self, client,
                                                     trace_lines):
        trace_id, _ = client.upload_trace(trace_lines)
        for body, _field in BAD_ANALYZE_BODIES[:6]:
            assert self._analyze(client, trace_id, body)[0] == 400
        status, doc = self._analyze(client, trace_id,
                                    {"workers": 2, "deadline_s": None,
                                     "max_retries": 0, "explain": True})
        assert status == 202, doc
        assert client.wait(doc["job_id"], timeout=60.0)["state"] == "done"


class TestCacheKeying:
    def test_reupload_reanalysis_is_a_memo_hit(self, server, trace_lines):
        with ServeClient(server.base_url) as client:
            t1, _ = client.upload_trace(trace_lines)
            j1 = client.analyze(t1)
            assert client.wait(j1, timeout=60.0)["cache_hit"] is False
            # same bytes again: same content hash, identical options
            t2, _ = client.upload_trace(trace_lines)
            assert t2 != t1
            j2 = client.analyze(t2)
            doc2 = client.wait(j2, timeout=60.0)
            assert doc2["cache_hit"] is True
            s1, r1 = client.report(j1)
            s2, r2 = client.report(j2)
            assert s1 == s2 == 200
            r1.pop("job_id"), r2.pop("job_id")
            r1.pop("trace_id"), r2.pop("trace_id")
            assert json.dumps(r1, sort_keys=True) == \
                json.dumps(r2, sort_keys=True)

    def test_each_memo_miss_reports_the_offline_graph(self, server,
                                                      trace_file,
                                                      trace_lines):
        """Every analysis that runs builds its own graph, so the query
        counts in a report are that analysis's alone."""
        _reports, offline = analyze_trace_with_stats(trace_file)
        with ServeClient(server.base_url) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            for options in ({}, {"workers": 1}, {"explain": True}):
                job_id = client.analyze(trace_id, **options)
                doc = client.wait(job_id, timeout=60.0)
                assert doc["state"] == "done", options
                assert doc["cache_hit"] is False, options
                _status, report = client.report(job_id)
                assert report["graph"] == offline["graph"], options
                assert report["analysis"]["stack_local_intervals"] == \
                    offline["analysis"]["stack_local_intervals"], options


class TestConcurrentJobs:
    def test_same_trace_jobs_run_at_once(self, trace_file, trace_lines):
        """Two analyses of one trace overlap on two threads, one of them
        held by a hung analysis worker, and both match offline."""
        reports, offline = analyze_trace_with_stats(trace_file)
        want_errors = json.dumps([report_to_dict(r) for r in reports],
                                 sort_keys=True)
        with ServerThread(ServeConfig(shards=2)) as srv, \
                ServeClient(srv.base_url) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            with inject_plan(FaultPlan.single("worker-hang", 0,
                                              seconds=0.5, times=1)):
                j1 = client.analyze(trace_id)
                j2 = client.analyze(trace_id, workers=1)
                docs = [client.wait(j, timeout=60.0) for j in (j1, j2)]
            assert [d["state"] for d in docs] == ["done", "done"]
            a, b = (srv.service.pool.get(j) for j in (j1, j2))
            assert max(a.started_at, b.started_at) < \
                min(a.finished_at, b.finished_at)
            for job_id in (j1, j2):
                _status, report = client.report(job_id)
                assert json.dumps(report["errors"],
                                  sort_keys=True) == want_errors
                assert report["graph"] == offline["graph"]

    def test_many_jobs_on_more_threads_than_cores(self, trace_file,
                                                  trace_lines):
        """Twelve analyses of one trace over three option sets on four
        threads with a short switch interval: each job that runs builds
        and queries only its own graph, and memo hits run nothing."""
        reports, offline = analyze_trace_with_stats(trace_file)
        want_errors = json.dumps([report_to_dict(r) for r in reports],
                                 sort_keys=True)
        option_sets = ({}, {"workers": 1}, {"max_retries": 0}) * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServerThread(ServeConfig(shards=4)) as srv, \
                    ServeClient(srv.base_url) as client:
                trace_id, _ = client.upload_trace(trace_lines)
                job_ids = [client.analyze(trace_id, **options)
                           for options in option_sets]
                docs = [client.wait(j, timeout=120.0) for j in job_ids]
                served = [client.report(j)[1] for j in job_ids]
        finally:
            sys.setswitchinterval(interval)
        assert [d["state"] for d in docs] == ["done"] * len(job_ids)
        assert sum(not d["cache_hit"] for d in docs) >= 3
        for doc, report in zip(docs, served):
            assert ("build" in doc["phases"]) is not doc["cache_hit"]
            assert json.dumps(report["errors"],
                              sort_keys=True) == want_errors
            assert report["graph"] == offline["graph"]


class TestDegradedUpload:
    def test_truncated_upload_yields_partial_report(self, client,
                                                    trace_lines):
        # drop the tail (stats + end): an analyzable dense prefix
        trace_id = client.create_trace()
        for seq, line in enumerate(trace_lines[:-2]):
            assert client.upload_chunk(trace_id, seq, line)[0] == 200
        job_id = client.analyze(trace_id)
        doc = client.wait(job_id, timeout=60.0)
        assert doc["state"] == "degraded"
        status, report = client.report(job_id)
        assert status == 200
        assert report["coverage"]["complete"] is False
        for error in report["errors"]:
            assert any("incomplete evidence" in n for n in error["notes"])

    def test_malformed_segment_degrades(self, client, trace_lines):
        """A CRC-valid segment whose interval is not a pair is a lost
        segment, so the job degrades instead of failing."""
        lines = list(trace_lines)
        for seq, line in enumerate(lines):
            doc = json.loads(line)
            if doc["kind"] == "segments":
                doc["payload"]["segments"][0]["writes"] = [[1, 2, 3]]
                lines[seq] = chunk_line(seq, "segments", doc["payload"])
        trace_id = client.create_trace()
        for seq, line in enumerate(lines):
            assert client.upload_chunk(trace_id, seq, line)[0] == 200
        job_id = client.analyze(trace_id)
        doc = client.wait(job_id, timeout=60.0)
        assert doc["state"] == "degraded"
        status, report = client.report(job_id)
        assert status == 200
        assert report["coverage"]["complete"] is False
        assert report["coverage"]["segments"]["recovered"] == 0
        assert report["error_count"] == 0

    def test_cyclic_edges_degrade(self, client, trace_lines):
        """A CRC-valid segment chunk whose edges close a cycle is lost
        whole, so the job degrades; it used to fail with the reachability
        DP's ``AssertionError``."""
        lines = list(trace_lines)
        for seq, line in enumerate(lines):
            doc = json.loads(line)
            if doc["kind"] == "segments":
                src, dst = doc["payload"]["edges"][0]
                doc["payload"]["edges"].append([dst, src])
                lines[seq] = chunk_line(seq, "segments", doc["payload"])
        trace_id = client.create_trace()
        for seq, line in enumerate(lines):
            assert client.upload_chunk(trace_id, seq, line)[0] == 200
        job_id = client.analyze(trace_id)
        doc = client.wait(job_id, timeout=60.0)
        assert doc["state"] == "degraded", doc.get("error")
        status, report = client.report(job_id)
        assert status == 200
        coverage = report["coverage"]
        assert coverage["segments"]["recovered"] == 0
        assert any("close a cycle" in e for e in coverage["errors"])

    def test_header_only_upload_analyzes_empty(self, client):
        trace_id = client.create_trace()
        assert client.upload_chunk(trace_id, 0, header_line())[0] == 200
        assert client.upload_chunk(
            trace_id, 1, chunk_line(1, "end", {}))[0] == 200
        job_id = client.analyze(trace_id)
        doc = client.wait(job_id, timeout=60.0)
        assert doc["state"] in ("done", "degraded")
        status, report = client.report(job_id)
        assert status == 200
        assert report["error_count"] == 0


def test_read_trace_lines_round_trip(trace_file, trace_lines):
    assert trace_lines == read_trace_lines(trace_file)
    assert all(json.loads(line)["seq"] == i
               for i, line in enumerate(trace_lines))
    kinds = [json.loads(line)["kind"] for line in trace_lines]
    assert kinds[0] == "header" and kinds[-1] == "end"
