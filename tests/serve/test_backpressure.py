"""Overload behavior: admission control, drain refusal, client backoff.

Overload must turn into *typed* 429s with ``Retry-After`` — never into
unbounded queues, silent drops or untyped 500s — and the client must
honor the hint with decorrelated-jitter backoff (satellite: typed
``{"error": {...}}`` bodies re-raise as the matching
:mod:`repro.errors` classes on the client side).
"""

import pytest

from repro.errors import (JobStateError, ResourceNotFound,
                          ServeOverloadError, UploadSequenceError)
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.client import error_from_body
from repro.serve.overload import AdmissionControl, backoff_delays


class TestAdmissionUnit:
    def test_job_queue_limit(self):
        adm = AdmissionControl(max_queue_depth=4, retry_after_s=0.5)
        adm.admit_job(3)
        with pytest.raises(ServeOverloadError) as exc:
            adm.admit_job(4)
        fields = exc.value.fields()
        assert fields["resource"] == "job-queue"
        assert fields["limit"] == 4 and fields["current"] == 4
        assert fields["retry_after_s"] == 0.5

    def test_upload_bytes_limit(self):
        adm = AdmissionControl(max_upload_bytes=100)
        adm.admit_upload(40, 60)
        with pytest.raises(ServeOverloadError) as exc:
            adm.admit_upload(41, 60)
        assert exc.value.fields()["resource"] == "upload-bytes"


class TestBackoffDelays:
    def test_bounds_and_growth(self):
        # deterministic "uniform": always the max of the range
        delays = list(backoff_delays(base_s=0.1, cap_s=2.0, attempts=6,
                                     rand=lambda lo, hi: hi))
        assert len(delays) == 6
        assert delays[0] == pytest.approx(0.3)
        assert all(d <= 2.0 for d in delays)
        assert delays[-1] == 2.0            # growth saturates at the cap

    def test_jitter_stays_above_base(self):
        delays = list(backoff_delays(base_s=0.05, cap_s=1.0, attempts=8,
                                     rand=lambda lo, hi: lo))
        assert all(d >= 0.05 for d in delays)


class TestServerSheds:
    def test_queue_depth_429_with_retry_after(self, trace_lines):
        cfg = ServeConfig(shards=1, max_queue_depth=1, retry_after_s=0.05)
        with ServerThread(cfg) as srv, \
                ServeClient(srv.base_url, retries=0) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            with inject_plan(FaultPlan.single("worker-hang", 0,
                                              seconds=0.4, times=1)):
                j1 = client.analyze(trace_id)
                status, doc = client.request(
                    "POST", f"/v1/traces/{trace_id}/analyze", retry=False)
                assert status == 429
                err = doc["error"]
                assert err["type"] == "ServeOverloadError"
                assert err["resource"] == "job-queue"
                assert "retry-after" in client.last_headers
                assert float(client.last_headers["retry-after"]) > 0
                client.wait(j1, timeout=30.0)

    def test_upload_bytes_429(self, trace_lines):
        cfg = ServeConfig(max_upload_bytes=1)
        with ServerThread(cfg) as srv, \
                ServeClient(srv.base_url, retries=0) as client:
            trace_id = client.create_trace()
            status, doc = client.upload_chunk(trace_id, 0, trace_lines[0],
                                              retry=False)
            assert status == 429
            assert doc["error"]["resource"] == "upload-bytes"

    def test_draining_is_typed_503(self, trace_lines):
        with ServerThread(ServeConfig()) as srv, \
                ServeClient(srv.base_url, retries=0) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            srv.service.draining = True
            status, doc = client.request("POST", "/v1/traces", retry=False)
            assert status == 503
            assert doc["error"]["type"] == "ServeOverloadError"
            assert doc["error"]["draining"] is True
            assert "retry-after" in client.last_headers
            # reads still work during a drain: clients collect results
            assert client.trace_status(trace_id)["state"] == "complete"


class TestClientBackoff:
    def test_retries_until_queue_frees(self, trace_lines):
        cfg = ServeConfig(shards=1, max_queue_depth=1, retry_after_s=0.02)
        with ServerThread(cfg) as srv, \
                ServeClient(srv.base_url, retries=8,
                            backoff_base_s=0.02,
                            backoff_cap_s=0.1) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            with inject_plan(FaultPlan.single("worker-hang", 0,
                                              seconds=0.2, times=1)):
                j1 = client.analyze(trace_id)
                # the retrying client rides out the full queue
                j2 = client.analyze(trace_id)
            assert client.retry_sleeps > 0
            client.wait(j1, timeout=30.0)
            client.wait(j2, timeout=30.0)


class TestTypedClientErrors:
    def test_unknown_trace_raises_resource_not_found(self, server):
        with ServeClient(server.base_url) as client:
            with pytest.raises(ResourceNotFound) as exc:
                client.analyze("t404")
            assert exc.value.resource_id == "t404"

    def test_early_report_raises_job_state_error(self, server, trace_lines):
        with ServeClient(server.base_url) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            with inject_plan(FaultPlan.single("worker-hang", 0,
                                              seconds=0.3, times=1)):
                job_id = client.analyze(trace_id)
                status, doc = client.report(job_id)
            assert status == 409
            exc = error_from_body(status, doc)
            assert isinstance(exc, JobStateError)
            assert exc.job_id == job_id
            client.wait(job_id, timeout=30.0)

    def test_sequence_error_round_trips_fields(self, server, trace_lines):
        with ServeClient(server.base_url) as client:
            trace_id = client.create_trace()
            status, doc = client.upload_chunk(trace_id, 3, trace_lines[3],
                                              retry=False)
            assert status == 409
            exc = error_from_body(status, doc)
            assert isinstance(exc, UploadSequenceError)
            assert exc.expected_seq == 0 and exc.got_seq == 3

    def test_overload_round_trips_retry_after(self):
        body = {"error": {"type": "ServeOverloadError",
                          "resource": "job-queue", "retry_after_s": 0.75,
                          "limit": 8, "current": 8, "draining": False}}
        exc = error_from_body(429, body)
        assert isinstance(exc, ServeOverloadError)
        assert exc.retry_after_s == 0.75 and exc.limit == 8

    def test_unstructured_body_degrades_gracefully(self):
        exc = error_from_body(500, {"raw": "<html>nope</html>"})
        assert "500" in str(exc)
