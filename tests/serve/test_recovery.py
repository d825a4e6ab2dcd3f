"""Crash-recovery tests: kill a durable server, restart it, compare.

The contract under test (INTERNALS §14): recovered state is a **prefix**
of the killed server's state.  Sealed uploads reappear byte-exactly,
partial uploads resume at the journaled ``next_seq``, terminal jobs keep
byte-identical reports, interrupted jobs re-enqueue exactly once, and a
journal truncated at *any* byte recovers a consistent prefix (the same
sweep discipline as ``tests/core/test_trace_salvage.py``).
"""

import json
import shutil
import time

import pytest

from repro.errors import StateDirError
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.durable import ChunkStore, DurableLog, replay_wal
from repro.serve.wal import read_wal
from repro.util.chunks import canonical_json, payload_crc
from tests.util.chunk_forms import foreign_line, loose_line, v2_trace_lines


def _config(state_dir) -> ServeConfig:
    # fsync=never keeps the suite fast; process-death durability is what
    # freeze() models, and these tests never actually SIGKILL the runner
    return ServeConfig(state_dir=str(state_dir), fsync="never", shards=2)


@pytest.fixture
def state_dir(tmp_path):
    return tmp_path / "state"


class TestUploadRecovery:
    def test_sealed_upload_survives_kill(self, state_dir, trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, ack = client.upload_trace(trace_lines)
                hash_before = ack["content_hash"]
        finally:
            srv.kill()

        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                doc = client.trace_status(trace_id)
                assert doc["state"] == "complete"
                assert doc["recovered"] is True
                assert doc["content_hash"] == hash_before
                assert doc["chunks_accepted"] == len(trace_lines)
        finally:
            srv.stop()

    def test_partial_upload_resumes_at_exact_seq(self, state_dir,
                                                 trace_lines):
        half = len(trace_lines) // 2
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id = client.create_trace()
                for seq in range(half):
                    status, _ = client.upload_chunk(trace_id, seq,
                                                    trace_lines[seq])
                    assert status == 200
        finally:
            srv.kill()

        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                doc = client.trace_status(trace_id)
                assert doc["state"] == "open"
                assert doc["next_seq"] == half
                # the resume helper reads next_seq and sends the suffix
                _tid, ack = client.upload_trace(trace_lines,
                                                resume=trace_id)
                assert ack["state"] == "complete"
                # the recovered+resumed hash matches a one-shot upload
                t2, ack2 = client.upload_trace(trace_lines)
                assert t2 != trace_id
                assert ack2["content_hash"] == ack["content_hash"]
        finally:
            srv.stop()

    def test_bytes_received_survives_restarts(self, state_dir, trace_lines):
        """A restart reports the bytes the server received, not their
        canonical re-encoding, and so does a second boot, which reads
        the compacted journal."""
        loose = [json.dumps(json.loads(line)).encode()
                 for line in trace_lines]
        half = len(loose) // 2
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id = client.create_trace()
                for seq in range(half):
                    status, _ = client.upload_chunk(trace_id, seq,
                                                    loose[seq])
                    assert status == 200
                want = client.trace_status(trace_id)["bytes_received"]
        finally:
            srv.kill()
        assert want == sum(len(body) for body in loose[:half])
        for _boot in range(2):
            srv = ServerThread(_config(state_dir)).start()
            try:
                with ServeClient(srv.base_url) as client:
                    doc = client.trace_status(trace_id)
            finally:
                srv.kill()
            assert doc["next_seq"] == half
            assert doc["bytes_received"] == want

    def test_restart_reports_the_live_content_hash(self, state_dir,
                                                   trace_lines):
        """A restart re-derives each upload's content hash from the
        journaled bodies over the bytes the live accept hashed: the payload
        as written for a writer line and for a foreign one (a canonical
        envelope around a spaced payload, its CRC over those bytes), the
        canonical re-encoding for a loose one.  So does a second boot,
        which reads the compacted journal."""
        forms = {"writer": trace_lines,
                 "loose": [loose_line(line) for line in trace_lines],
                 "foreign": [foreign_line(line) for line in trace_lines]}
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                live = {form: client.upload_trace(lines)
                        for form, lines in forms.items()}
        finally:
            srv.kill()
        hashes = {form: ack["content_hash"] for form, (_, ack) in live.items()}
        assert hashes["writer"] == hashes["loose"] != hashes["foreign"]
        for _boot in range(2):
            srv = ServerThread(_config(state_dir)).start()
            try:
                with ServeClient(srv.base_url) as client:
                    for form, (trace_id, _ack) in live.items():
                        doc = client.trace_status(trace_id)
                        assert doc["recovered"], form
                        assert doc["state"] == "complete", form
                        assert doc["content_hash"] == hashes[form], form
            finally:
                srv.kill()

    def test_recovered_ids_are_never_reissued(self, state_dir, trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                first_id = client.create_trace()
        finally:
            srv.kill()
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                assert client.create_trace() != first_id
        finally:
            srv.stop()


class TestJobRecovery:
    def test_terminal_job_report_is_byte_identical(self, state_dir,
                                                   trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, _ = client.upload_trace(trace_lines)
                job_id = client.analyze(trace_id)
                done = client.wait(job_id, timeout=60.0)
                assert done["state"] == "done"
                status, report_before = client.report(job_id)
                assert status == 200
        finally:
            srv.kill()

        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                doc = client.job(job_id)
                assert doc["state"] == "done"
                assert doc["recovered"] is True
                status, report_after = client.report(job_id)
                assert status == 200
                assert json.dumps(report_after, sort_keys=True) == \
                    json.dumps(report_before, sort_keys=True)
                # a recovered terminal job must NOT have re-executed
                assert srv.service.pool.get(job_id).executions == 0
        finally:
            srv.stop()

    def test_interrupted_job_reenqueued_exactly_once(self, state_dir,
                                                     trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, _ = client.upload_trace(trace_lines)
                # slow the executor so the kill lands mid-run
                with inject_plan(FaultPlan.single("worker-hang", 0,
                                                  seconds=0.4, times=1)):
                    job_id = client.analyze(trace_id)
                    time.sleep(0.05)
                    srv.kill()      # inside the plan: the hang is live
        finally:
            pass

        srv = ServerThread(_config(state_dir)).start()
        try:
            recovered = srv.service.durable.recovered
            assert [j.job_id for j in recovered.requeue_jobs] == [job_id]
            with ServeClient(srv.base_url) as client:
                done = client.wait(job_id, timeout=60.0)
                assert done["state"] == "done"
            # exactly one execution in the recovered process
            assert srv.service.pool.get(job_id).executions == 1
        finally:
            srv.stop()

        # a THIRD restart must not re-enqueue: the terminal record exists
        srv = ServerThread(_config(state_dir)).start()
        try:
            assert srv.service.durable.recovered.requeue_jobs == []
            assert srv.service.pool.get(job_id).state == "done"
        finally:
            srv.stop()


    def test_job_journaled_with_retired_params_runs(self, state_dir,
                                                    trace_lines):
        """A journal whose job params still carry ``kernel`` and
        ``workers`` (written while they were analyze options) recovers
        and runs the job, and serves the report a fresh job serves."""
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, ack = client.upload_trace(trace_lines)
                want = client.wait(client.analyze(trace_id), timeout=60.0)
                _status, want_report = client.report(want["job_id"])
        finally:
            srv.kill()
        log = DurableLog(str(state_dir), fsync_policy="never")
        log.job_enqueued("j99", trace_id, ack["content_hash"], {
            "mode": "parallel", "workers": 2, "deadline_s": None,
            "max_retries": 2, "kernel": "python", "explain": False,
            "chunk_count": len(trace_lines)})
        log.close()

        srv = ServerThread(_config(state_dir)).start()
        try:
            recovered = srv.service.durable.recovered
            assert [j.job_id for j in recovered.requeue_jobs] == ["j99"]
            with ServeClient(srv.base_url) as client:
                assert client.wait("j99", timeout=60.0)["state"] == "done"
                status, report = client.report("j99")
            assert status == 200
            for doc in (report, want_report):
                doc.pop("job_id"), doc.pop("trace_id")
            assert json.dumps(report, sort_keys=True) == \
                json.dumps(want_report, sort_keys=True)
        finally:
            srv.stop()


    def test_journaled_version_2_upload_fails_typed(self, state_dir):
        """A journal written before the format moved to version 3 holds a
        version-2 upload the edge accepted then.  It recovers as
        journaled, and its analysis fails with ``TraceVersionError``
        instead of loading its segments as malformed rows (a degraded
        report with zero segments)."""
        log = DurableLog(str(state_dir), fsync_policy="never")
        log.upload_created("t1")
        for seq, line in enumerate(v2_trace_lines()):
            log.chunk_accepted("t1", seq, json.loads(line)["kind"], line)
        log.close()

        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                assert client.trace_status("t1")["state"] == "complete"
                doc = client.wait(client.analyze("t1"), timeout=60.0)
        finally:
            srv.stop()
        assert doc["state"] == "failed"
        assert doc["error"]["type"] == "TraceVersionError"
        assert "version 2" in doc["error"]["message"]
        assert "version 3" in doc["error"]["message"]


class TestCleanVsCrash:
    def test_graceful_stop_is_clean(self, state_dir, trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                client.upload_trace(trace_lines)
        finally:
            srv.stop()
        srv = ServerThread(_config(state_dir)).start()
        try:
            assert srv.service.durable.recovered.clean is True
        finally:
            srv.stop()

    def test_kill_is_a_crash(self, state_dir, trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                client.upload_trace(trace_lines)
        finally:
            srv.kill()
        srv = ServerThread(_config(state_dir)).start()
        try:
            assert srv.service.durable.recovered.clean is False
        finally:
            srv.stop()

    def test_drain_finishes_jobs_then_marks_clean(self, state_dir,
                                                  trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        with ServeClient(srv.base_url) as client:
            trace_id, _ = client.upload_trace(trace_lines)
            job_id = client.analyze(trace_id)
        srv.drain()         # graceful SIGTERM path: queued job completes
        srv = ServerThread(_config(state_dir)).start()
        try:
            assert srv.service.durable.recovered.clean is True
            job = srv.service.pool.get(job_id)
            assert job.state == "done"      # terminal record was journaled
            assert srv.service.durable.recovered.requeue_jobs == []
        finally:
            srv.stop()


class TestMalformedRecords:
    """A CRC-valid journal record whose payload lacks a field its kind
    needs, or holds one of another type, ends the trusted prefix like a
    torn line.  It used to raise ``KeyError``/``TypeError`` out of
    ``DurableLog`` and stop the server from starting."""

    @pytest.mark.parametrize("kind,payload", [
        ("upload-created", {}),
        ("job-enqueued", {"job_id": "j9", "trace_id": "t1",
                          "content_hash": "0" * 64, "params": [1]}),
    ], ids=["upload-without-id", "params-not-an-object"])
    def test_server_restarts_on_the_prefix(self, state_dir, trace_lines,
                                           kind, payload):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, ack = client.upload_trace(trace_lines)
                job_id = client.analyze(trace_id)
                assert client.wait(job_id, timeout=60.0)["state"] == "done"
        finally:
            srv.kill()
        wal = state_dir / "wal.jsonl"
        seq = len(wal.read_bytes().splitlines())
        with open(wal, "ab") as fh:
            # the malformed record, then an intact one past it
            for rec in ((kind, payload),
                        ("upload-created", {"trace_id": "t77"})):
                fh.write(canonical_json({
                    "seq": seq, "kind": rec[0], "crc": payload_crc(rec[1]),
                    "payload": rec[1]}) + b"\n")
                seq += 1

        srv = ServerThread(_config(state_dir)).start()
        try:
            recovered = srv.service.durable.recovered
            assert recovered.dropped_records == 2
            assert any(f"record line {seq - 2}: payload field" in e
                       for e in recovered.errors)
            assert not recovered.clean
            # the earlier state, and nothing past the damage
            assert set(recovered.uploads) == {trace_id}
            assert set(recovered.jobs) == {job_id}
            with ServeClient(srv.base_url) as client:
                doc = client.trace_status(trace_id)
                assert doc["state"] == "complete"
                assert doc["content_hash"] == ack["content_hash"]
                assert client.job(job_id)["state"] == "done"
        finally:
            srv.stop()


class TestStateDirRefusal:
    def test_unusable_state_dir_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(StateDirError, match="not-a-dir"):
            DurableLog(str(blocker))

    def test_server_thread_refuses_bad_state_dir(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(StateDirError):
            ServerThread(ServeConfig(state_dir=str(blocker)))


class TestTruncationSweep:
    """Satellite of ``tests/core/test_trace_salvage.py``: cut the journal
    at EVERY byte offset and prove recovery never invents state."""

    def _full_state(self, state_dir, trace_lines):
        srv = ServerThread(_config(state_dir)).start()
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, _ = client.upload_trace(trace_lines)
                job_id = client.analyze(trace_id)
                client.wait(job_id, timeout=60.0)
        finally:
            srv.kill()
        return trace_id, job_id

    def test_every_truncation_point_is_prefix(self, state_dir, trace_lines,
                                              tmp_path):
        self._full_state(state_dir, trace_lines)
        wal_path = state_dir / "wal.jsonl"
        data = wal_path.read_bytes()
        chunks = ChunkStore(str(state_dir / "chunks"), fsync=False)
        full_records, _ = read_wal(str(wal_path))
        full = replay_wal(full_records, chunks)
        full_uploads = {tid: [c for c in up.chunks]
                        for tid, up in full.uploads.items()}

        cut_wal = tmp_path / "cut.jsonl"
        step = max(1, len(data) // 60)
        for cut in range(0, len(data) + 1, step):
            cut_wal.write_bytes(data[:cut])
            try:
                records, info = read_wal(str(cut_wal))
            except StateDirError:
                # the header itself is torn: nothing recoverable, which
                # still invents nothing
                continue
            st = replay_wal(records, chunks)
            assert not info["clean"] or cut == len(data)
            # uploads: a subset, and each one a chunk-prefix of the full
            for tid, up in st.uploads.items():
                assert tid in full_uploads
                full_chunks = full_uploads[tid]
                assert len(up.chunks) <= len(full_chunks)
                for i, doc in enumerate(up.chunks):
                    assert doc == full_chunks[i]
                if up.sealed:
                    assert full.uploads[tid].sealed
                    assert len(up.chunks) == len(full_chunks)
                    assert up.content_hash == full.uploads[tid].content_hash
            # jobs: a subset; terminal only if terminal in the full replay
            for jid, job in st.jobs.items():
                assert jid in full.jobs
                if job.state is not None:
                    assert job.state == full.jobs[jid].state
                    assert job.result == full.jobs[jid].result

    def test_truncated_journal_still_boots_a_server(self, state_dir,
                                                    trace_lines, tmp_path):
        """End to end: cut mid-journal, copy the state dir, boot, resume."""
        trace_id, _job_id = self._full_state(state_dir, trace_lines)
        wal_path = state_dir / "wal.jsonl"
        data = wal_path.read_bytes()
        # cut inside the upload's chunk records: header + created + a few
        cut = data.find(b"\n", len(data) // 3) + 1
        clone = tmp_path / "clone"
        shutil.copytree(str(state_dir), str(clone))
        (clone / "wal.jsonl").write_bytes(data[:cut])

        srv = ServerThread(_config(clone)).start()
        try:
            with ServeClient(srv.base_url) as client:
                doc = client.trace_status(trace_id)
                assert doc["state"] == "open"       # seal was cut away
                assert 0 < doc["next_seq"] < len(trace_lines)
                _tid, ack = client.upload_trace(trace_lines,
                                                resume=trace_id)
                assert ack["state"] == "complete"
                job_id = client.analyze(trace_id)
                assert client.wait(job_id, timeout=60.0)["state"] == "done"
        finally:
            srv.stop()
