"""Unit tests for the sharded job pool and the per-job timeline."""

import asyncio

import pytest

from repro.errors import JobStateError, ResourceNotFound
from repro.obs.tracecheck import validate_events
from repro.serve.jobs import JobPool


def _pool(execute=lambda job: ({"error_count": 0}, False), shards=4):
    return JobPool(execute, shards=shards)


class TestShardAffinity:
    def test_shard_is_deterministic_in_content_hash(self):
        pool = _pool(shards=4)
        h = "deadbeef" + "0" * 56
        assert pool.shard_of(h) == pool.shard_of(h)
        assert pool.shard_of(h) == int("deadbeef", 16) % 4
        assert 0 <= pool.shard_of("") < 4

    def test_same_hash_same_shard_across_jobs(self):
        pool = _pool(shards=3)
        a = pool.create("t1", "ab" * 32, {})
        b = pool.create("t2", "ab" * 32, {})
        assert a.shard == b.shard
        assert a.job_id != b.job_id


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

        async def drive():
            await pool.start()
            try:
                job = pool.create("t1", "00" * 32, {})
                await pool.submit(job)
                await asyncio.get_event_loop().run_in_executor(
                    None, job.wait, 10.0)
                return job
            finally:
                await pool.stop()

        job = asyncio.run(drive())
        assert job.state == "failed"
        assert job.error["type"] == "ValueError"
        with pytest.raises(JobStateError, match="exploded"):
            pool.report_of(job.job_id)

    def test_degraded_flag_from_executor(self):
        pool = _pool(execute=lambda job: ({"error_count": 1}, True))

        async def drive():
            await pool.start()
            try:
                job = pool.create("t1", "00" * 32, {})
                await pool.submit(job)
                await asyncio.get_event_loop().run_in_executor(
                    None, job.wait, 10.0)
                return job
            finally:
                await pool.stop()

        job = asyncio.run(drive())
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
        assert all(e["tid"] == job.shard for e in events)

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
