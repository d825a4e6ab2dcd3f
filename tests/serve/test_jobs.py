"""Unit tests for the job pool and the per-job timeline."""

import asyncio

import pytest

from repro.errors import JobStateError, ResourceNotFound
from repro.obs.tracecheck import validate_events
from repro.serve.jobs import JobPool


def _pool(execute=lambda job: ({"error_count": 0}, False)):
    return JobPool(execute, threads=4)


def _run_to_end(pool):
    async def drive():
        pool.start()
        try:
            job = pool.create("t1", "00" * 32, {})
            pool.submit(job)
            await asyncio.wait_for(pool.drain(), timeout=10.0)
            return job
        finally:
            pool.stop()

    job = asyncio.run(drive())
    assert job.wait(0)
    return job


class TestJobStates:
    def test_report_before_terminal_is_job_state_error(self):
        pool = _pool()
        job = pool.create("t1", "00" * 32, {})
        with pytest.raises(JobStateError) as exc:
            pool.report_of(job.job_id)
        assert exc.value.fields()["state"] == "queued"

    def test_unknown_job_is_resource_not_found(self):
        with pytest.raises(ResourceNotFound):
            _pool().get("j999")

    def test_failed_job_has_no_report(self):
        def boom(job):
            raise ValueError("executor exploded")

        pool = _pool(execute=boom)
        job = _run_to_end(pool)
        assert job.state == "failed"
        assert job.error["type"] == "ValueError"
        with pytest.raises(JobStateError, match="exploded"):
            pool.report_of(job.job_id)

    def test_degraded_flag_from_executor(self):
        pool = _pool(execute=lambda job: ({"error_count": 1}, True))
        job = _run_to_end(pool)
        assert job.state == "degraded"
        assert pool.report_of(job.job_id) == {"error_count": 1}


class TestTimeline:
    def test_span_booking_and_chrome_schema(self):
        pool = _pool()
        job = pool.create("t1", "00" * 32, {})
        job.started_at = job.submitted_at + 0.001
        with job.span("build"):
            pass
        with job.span("analyze"):
            pass
        events = job.timeline_events()
        validate_events(events)
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names[0] == "queue-wait"
        assert "build" in names and "analyze" in names
        assert len({(e["pid"], e["tid"]) for e in events}) == 1

    def test_status_dict_carries_phases(self):
        pool = _pool()
        job = pool.create("t1", "00" * 32, {"workers": 2})
        with job.span("build"):
            pass
        doc = job.status_dict()
        assert doc["state"] == "queued"
        assert "build" in doc["phases"]
        assert doc["params"]["workers"] == 2
        assert doc["queue_wait_s"] >= 0
