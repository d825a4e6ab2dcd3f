"""Unit tests for the write-ahead journal and the chunk store.

The WAL inherits the ``taskgrind-trace/2`` salvage discipline: these
tests pin the framing (CRC-checked dense-seq records), the fsync policy
knob, the two injected failure modes (torn write, server kill), and the
content-addressed chunk store's atomicity/dedupe contract.
"""

import json
import os

import pytest

from repro.errors import InjectedFault, StateDirError
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.obs.metrics import get_registry
from repro.serve.durable import ChunkStore
from repro.serve.wal import (WAL_SCHEMA, WAL_VERSION, WalWriter, read_wal)
from repro.util.chunks import payload_crc


def _open_writer(tmp_path, **kw):
    path = str(tmp_path / "wal.jsonl")
    fh = open(path, "wb")
    kw.setdefault("fsync_policy", "never")
    return path, WalWriter(fh, **kw)


class TestWriterReaderRoundTrip:
    def test_records_round_trip(self, tmp_path):
        path, w = _open_writer(tmp_path)
        w.append("upload-created", {"trace_id": "t1"})
        w.append("chunk-accepted", {"trace_id": "t1", "seq": 0,
                                    "kind": "header", "digest": "ab" * 32})
        w.close()
        records, info = read_wal(path)
        assert [r.kind for r in records] == \
            ["header", "upload-created", "chunk-accepted"]
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[0].payload == {"schema": WAL_SCHEMA,
                                      "version": WAL_VERSION}
        assert records[2].payload["digest"] == "ab" * 32
        assert info["dropped"] == 0 and not info["clean"]

    def test_clean_shutdown_detected(self, tmp_path):
        path, w = _open_writer(tmp_path)
        w.append("upload-created", {"trace_id": "t1"})
        w.append("clean-shutdown", {})
        w.close()
        _records, info = read_wal(path)
        assert info["clean"] is True

    def test_frozen_writer_appends_nothing(self, tmp_path):
        path, w = _open_writer(tmp_path)
        w.append("upload-created", {"trace_id": "t1"})
        w.freeze()
        w.append("clean-shutdown", {})       # a dead process writes nothing
        w.close()
        records, info = read_wal(path)
        assert [r.kind for r in records] == ["header", "upload-created"]
        assert not info["clean"]

    def test_wrong_schema_refused(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        payload = {"schema": "somebody-elses-journal/9", "version": 9}
        doc = {"seq": 0, "kind": "header",
               "crc": payload_crc(payload), "payload": payload}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
        with pytest.raises(StateDirError, match="somebody-elses"):
            read_wal(path)

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            _open_writer(tmp_path, fsync_policy="sometimes")


class TestSalvagePrefix:
    def test_torn_trailing_line_dropped(self, tmp_path):
        path, w = _open_writer(tmp_path)
        w.append("upload-created", {"trace_id": "t1"})
        w.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 2, "kind": "torn')
        records, info = read_wal(path)
        assert [r.kind for r in records] == ["header", "upload-created"]
        assert info["dropped"] == 1
        assert "undecodable" in info["errors"][0]

    def test_crc_flip_stops_the_prefix(self, tmp_path):
        path, w = _open_writer(tmp_path)
        for i in range(4):
            w.append("upload-created", {"trace_id": f"t{i}"})
        w.close()
        lines = open(path, "rb").read().splitlines()
        doc = json.loads(lines[2])
        doc["payload"]["trace_id"] = "tFORGED"    # payload no longer matches crc
        lines[2] = json.dumps(doc, sort_keys=True,
                              separators=(",", ":")).encode()
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        records, info = read_wal(path)
        # records 3 and 4 were intact but follow the damage: untrusted
        assert len(records) == 2
        assert info["dropped"] == 3
        assert "checksum" in info["errors"][0]

    def test_seq_gap_stops_the_prefix(self, tmp_path):
        path, w = _open_writer(tmp_path)
        w.append("upload-created", {"trace_id": "t1"})
        w.close()
        payload = {"trace_id": "t9"}
        doc = {"seq": 7, "kind": "upload-created",
               "crc": payload_crc(payload), "payload": payload}
        with open(path, "ab") as fh:
            fh.write(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")).encode() + b"\n")
        records, info = read_wal(path)
        assert len(records) == 2
        assert "dense prefix" in info["errors"][0]


class TestFsyncPolicies:
    def test_always_fsyncs_every_record(self, tmp_path):
        before = get_registry().counter("serve.wal.fsyncs").value
        _path, w = _open_writer(tmp_path, fsync_policy="always")
        w.append("upload-created", {"trace_id": "t1"})
        w.append("upload-created", {"trace_id": "t2"})
        after = get_registry().counter("serve.wal.fsyncs").value
        w.close()
        assert after - before == 3      # header + two records

    def test_interval_batches_fsyncs(self, tmp_path):
        before = get_registry().counter("serve.wal.fsyncs").value
        _path, w = _open_writer(tmp_path, fsync_policy="interval",
                                fsync_interval=4)
        for i in range(7):              # + header = 8 records = 2 batches
            w.append("upload-created", {"trace_id": f"t{i}"})
        mid = get_registry().counter("serve.wal.fsyncs").value
        assert mid - before == 2
        w.sync()                        # nothing pending: no extra fsync
        assert get_registry().counter("serve.wal.fsyncs").value == mid
        w.append("upload-created", {"trace_id": "t9"})
        w.sync()                        # one pending record force-synced
        assert get_registry().counter("serve.wal.fsyncs").value == mid + 1
        w.close()

    def test_never_policy_never_fsyncs(self, tmp_path):
        before = get_registry().counter("serve.wal.fsyncs").value
        _path, w = _open_writer(tmp_path, fsync_policy="never")
        for i in range(10):
            w.append("upload-created", {"trace_id": f"t{i}"})
        w.sync()
        w.close()
        assert get_registry().counter("serve.wal.fsyncs").value == before


class TestInjectedFaults:
    def test_torn_write_freezes_and_leaves_half_line(self, tmp_path):
        path, w = _open_writer(tmp_path)
        with inject_plan(FaultPlan.single("wal-torn-write", 2)) as inj:
            w.append("upload-created", {"trace_id": "t1"})      # seq 1
            w.append("chunk-accepted", {"trace_id": "t1", "seq": 0,
                                        "kind": "header",
                                        "digest": "00" * 32})   # seq 2: torn
            assert w.frozen
            w.append("upload-created", {"trace_id": "t2"})      # dropped
            assert inj.plan.fired_summary() == {"wal-torn-write@2": 1}
        w.close()
        records, info = read_wal(path)
        assert [r.kind for r in records] == ["header", "upload-created"]
        assert info["dropped"] == 1

    def test_kill_server_raises_and_freezes(self, tmp_path):
        path, w = _open_writer(tmp_path)
        with inject_plan(FaultPlan.single("kill-server", 1)):
            with pytest.raises(InjectedFault, match="kill-server"):
                w.append("upload-created", {"trace_id": "t1"})
            assert w.frozen
            w.append("upload-created", {"trace_id": "t2"})      # dropped
        w.close()
        records, _info = read_wal(path)
        assert [r.kind for r in records] == ["header"]


class TestChunkStore:
    def test_put_get_round_trip(self, tmp_path):
        cs = ChunkStore(str(tmp_path / "chunks"), fsync=False)
        digest = cs.put(b"hello chunks")
        assert cs.has(digest)
        assert cs.get(digest) == b"hello chunks"

    def test_prefix_dir_layout(self, tmp_path):
        cs = ChunkStore(str(tmp_path / "chunks"), fsync=False)
        digest = cs.put(b"x")
        assert os.path.exists(os.path.join(str(tmp_path / "chunks"),
                                           digest[:2], digest))

    def test_dedupe(self, tmp_path):
        cs = ChunkStore(str(tmp_path / "chunks"), fsync=False)
        before = get_registry().counter("serve.chunkstore.writes").value
        d1 = cs.put(b"same body")
        d2 = cs.put(b"same body")
        assert d1 == d2
        assert get_registry().counter(
            "serve.chunkstore.writes").value == before + 1

    def test_missing_digest_is_none(self, tmp_path):
        cs = ChunkStore(str(tmp_path / "chunks"), fsync=False)
        assert cs.get("ff" * 32) is None
        assert not cs.has("ff" * 32)

    def test_bit_rot_detected(self, tmp_path):
        cs = ChunkStore(str(tmp_path / "chunks"), fsync=False)
        digest = cs.put(b"precious bytes")
        path = os.path.join(cs.root, digest[:2], digest)
        with open(path, "wb") as fh:
            fh.write(b"precious bytEs")
        # a blob that no longer matches its digest is treated as lost,
        # never served as if intact
        assert cs.get(digest) is None

    def test_no_tmp_litter(self, tmp_path):
        cs = ChunkStore(str(tmp_path / "chunks"), fsync=False)
        for i in range(5):
            cs.put(f"body {i}".encode())
        litter = [name for _root, _dirs, files in os.walk(cs.root)
                  for name in files if name.startswith(".tmp-")]
        assert litter == []
