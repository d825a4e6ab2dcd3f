"""The shared chunk framing (:mod:`repro.util.chunks`) and one damage
matrix over every reader that uses it.

Each reader keeps its own damage policy: trace salvage loses the chunk,
strict trace loading, schedules and profiles raise their taxonomies, the
journal cuts its trusted prefix, and the serve edge answers 400 or 422.
What they share is that a line failing the framing checks ends in that
policy -- including a CRC-valid line whose payload is not an object, and
a ``vtime`` the CRC does not cover -- never in a traceback, whether the
damaged line is in the writer's canonical form (its CRC checked over the
payload bytes as written) or loose (its payload re-encoded).
"""

import io
import json
import os

import pytest

from repro.bench.runner import _find_program, run_benchmark
from repro.core.trace import (analyze_trace, load_trace, load_trace_salvaged,
                              save_trace)
from repro.errors import (InjectedFault, ProfileCorruptionError,
                          ProfileFormatError, ScheduleCorruptionError,
                          ScheduleFormatError, TraceCorruptionError)
from repro.obs.prof import Profiler
from repro.obs.profdoc import load_profile, save_profile, validate_profile_doc
from repro.replay import record_bench
from repro.replay.schedule import load_schedule, save_schedule
from repro.serve.app import error_response
from repro.serve.durable import DurableLog
from repro.serve.store import TraceStore
from repro.serve.wal import WalWriter
from repro.util import chunks
from repro.util.chunks import (ChunkError, ChunkWriter, canonical_json,
                               chunk_lines, decode_chunk, payload_crc,
                               payload_problem, save_atomic, verify_crc)
from tests.util.chunk_forms import foreign_line

GOOD = {"seq": 3, "kind": "segments", "crc": payload_crc({"a": 1}),
        "payload": {"a": 1}, "vtime": 7.5}


def _line(doc) -> bytes:
    return json.dumps(doc).encode()


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_good_line_decodes(self):
        assert decode_chunk(_line(GOOD)) == GOOD

    def test_vtime_is_optional(self):
        doc = {k: v for k, v in GOOD.items() if k != "vtime"}
        assert decode_chunk(_line(doc)) == doc

    def test_integral_vtime_is_a_number(self):
        assert decode_chunk(_line({**GOOD, "vtime": 12}))["vtime"] == 12

    def test_undecodable_line_is_a_json_error(self):
        with pytest.raises(ChunkError) as exc:
            decode_chunk(b'{"seq": 0, "kind": "to')
        assert exc.value.check == "json" and exc.value.seq is None
        assert "undecodable" in str(exc.value)

    def test_invalid_utf8_is_a_json_error(self):
        with pytest.raises(ChunkError) as exc:
            decode_chunk(b'{"seq": 0, "kind": "\xff"}')
        assert exc.value.check == "json"

    @pytest.mark.parametrize("line", [b"[1, 2]", b'"x"', b"7", b"null"])
    def test_non_object_line(self, line):
        with pytest.raises(ChunkError, match="not a JSON object") as exc:
            decode_chunk(line)
        assert exc.value.check == "envelope"

    @pytest.mark.parametrize("key,value", [
        ("seq", "3"), ("seq", True), ("seq", 3.0), ("seq", None),
        ("kind", 4), ("kind", None),
        ("crc", "123"), ("crc", 1.5),
        ("payload", [1, 2]), ("payload", "x"), ("payload", None),
        ("vtime", None), ("vtime", "1.0"), ("vtime", True),
        ("vtime", float("inf")), ("vtime", float("nan")), ("vtime", 10 ** 400),
    ])
    def test_field_of_the_wrong_type(self, key, value):
        with pytest.raises(ChunkError, match=f"chunk envelope: {key} is not"
                           ) as exc:
            decode_chunk(_line({**GOOD, key: value}))
        assert exc.value.check == "envelope"
        assert exc.value.seq == (None if key == "seq" else 3)

    @pytest.mark.parametrize("key", ["seq", "kind", "crc", "payload"])
    def test_missing_field(self, key):
        doc = {k: v for k, v in GOOD.items() if k != key}
        with pytest.raises(ChunkError, match=f"{key} is missing") as exc:
            decode_chunk(_line(doc))
        assert exc.value.check == "envelope"
        assert exc.value.doc == doc


class TestCrc:
    def test_crc_is_over_the_canonical_payload(self):
        payload = {"b": [1, {"d": 2, "c": 3}], "a": "é"}
        canon = canonical_json(payload)
        assert canon == b'{"a":"\\u00e9","b":[1,{"c":3,"d":2}]}'
        doc = {**GOOD, "payload": payload, "crc": payload_crc(payload)}
        assert verify_crc(doc, _line(doc)) == canon
        assert verify_crc(doc, canonical_json(doc)) == canon

    def test_envelope_noise_does_not_change_the_crc(self):
        loose = json.dumps(GOOD, indent=3, sort_keys=False).encode()
        assert verify_crc(decode_chunk(loose), loose) == b'{"a":1}'

    def test_mismatch_is_a_crc_error(self):
        doc = {**GOOD, "crc": GOOD["crc"] ^ 1}
        for line in (_line(doc), canonical_json(doc)):
            with pytest.raises(ChunkError, match="checksum mismatch") as exc:
                verify_crc(doc, line)
            assert exc.value.check == "crc" and exc.value.seq == 3


@pytest.fixture
def encoded(monkeypatch):
    """Every value ``canonical_json`` encodes while the test runs."""
    seen = []
    real = chunks.canonical_json

    def spy(doc):
        seen.append(doc)
        return real(doc)
    monkeypatch.setattr(chunks, "canonical_json", spy)
    return seen


def _wal_lines():
    fh = io.BytesIO()
    wal = WalWriter(fh, fsync_policy="never")
    wal.append("upload-created", {"trace_id": "t1"})
    wal.append("chunk-accepted", {"trace_id": "t1", "seq": 0,
                                  "kind": "header", "digest": "ab" * 32})
    wal.append("clean-shutdown", {})
    return fh.getvalue().splitlines()


class TestCrcOverBytesAsWritten:
    """A line in the writer's canonical form has its CRC checked over the
    payload bytes as written: no payload is re-encoded."""

    def test_writer_lines_return_their_payload_bytes(self, streams,
                                                     encoded):
        _paths, lines, _full = streams
        every = [*lines.items(), ("wal", _wal_lines())]
        encoded.clear()                         # the journal writer's
        checked = 0
        for name, stream in every:
            for line in stream:
                doc = decode_chunk(line)
                assert verify_crc(doc, line) \
                    == canonical_json(doc["payload"]), name
                checked += 1
        # verify_crc encoded each envelope, with the payload 0, and nothing
        # else (the canonical_json above is not the one it calls)
        assert len(encoded) == checked
        assert all(doc["payload"] == 0 for doc in encoded)

    def test_only_the_envelope_is_encoded(self, encoded):
        line = canonical_json(GOOD)
        assert verify_crc(decode_chunk(line), line) == b'{"a":1}'
        assert encoded == [{**GOOD, "payload": 0}]

    def test_foreign_line_is_checked_over_its_bytes(self):
        """A canonical envelope around non-canonical payload bytes whose
        CRC covers those bytes as written: accepted, returning them.  The
        same envelope written loosely is checked against the canonical
        re-encoding, which that CRC does not match."""
        line = foreign_line(canonical_json(GOOD))
        assert line == (b'{"crc":%d,"kind":"segments","payload":{"a": 1},'
                        b'"seq":3,"vtime":7.5}' % decode_chunk(line)["crc"])
        assert verify_crc(decode_chunk(line), line) == b'{"a": 1}'
        loose = json.dumps(json.loads(line)).encode()
        with pytest.raises(ChunkError, match="checksum mismatch"):
            verify_crc(decode_chunk(loose), loose)

    def test_payload_mark_twice_takes_the_re_encode_path(self, encoded):
        """An extra envelope field holding ``"payload":0`` makes the split
        ambiguous: the payload is re-encoded, and the verdict stands."""
        doc = {**GOOD, "extra": {"payload": 0}}
        line = canonical_json(doc)
        assert verify_crc(decode_chunk(line), line) == b'{"a":1}'
        assert encoded[-1] == {"a": 1}
        foreign = foreign_line(line)
        with pytest.raises(ChunkError, match="checksum mismatch"):
            verify_crc(decode_chunk(foreign), foreign)

    def test_intact_trace_load_encodes_no_payload(self, streams, encoded):
        paths, _lines, _full = streams
        size = os.path.getsize(paths["trace"])
        cov = load_trace_salvaged(paths["trace"]).coverage
        assert cov.complete and len(encoded) == cov.chunks_valid
        assert all(doc["payload"] == 0 for doc in encoded)
        assert sum(len(canonical_json(doc)) for doc in encoded) < size // 10


class TestPayloadProblem:
    FIELDS = {"start": (int,), "items": (list,), "note": (str, type(None))}

    def test_fitting_payload(self):
        assert payload_problem({"start": 0, "items": []}, self.FIELDS) is None

    def test_missing_field(self):
        assert payload_problem({"items": []}, self.FIELDS) \
            == "payload field 'start' is missing"

    def test_wrong_type(self):
        assert payload_problem({"start": True, "items": []}, self.FIELDS) \
            == "payload field 'start' has type bool"
        assert payload_problem({"start": 0, "items": [], "note": 5},
                               self.FIELDS) \
            == "payload field 'note' has type int"


def test_chunk_lines_yield_offsets_of_non_blank_lines():
    data = b'{"a":1}\n\n  {"b":2}  \r\n{"c":3'
    assert list(chunk_lines(data)) == [(0, b'{"a":1}'), (9, b'{"b":2}'),
                                       (22, b'{"c":3')]


class TestWriter:
    def test_lines_are_byte_identical_to_the_trace_writer_before(self):
        """The lines the trace writer emitted before the framing moved
        here, for the same payloads."""
        fh = io.BytesIO()
        w = ChunkWriter(fh, vtime=12.5)
        w.emit("segments", {"start": 0, "edges": [[0, 1]],
                            "segments": [{"id": 0, "reads": [[16, 24]]}]})
        w.emit("header", {"segments": 2, "edges": 1},
               schema="taskgrind-trace/2", version=2)
        assert fh.getvalue() == (
            b'{"crc":1221614045,"kind":"segments","payload":{"edges":'
            b'[[0,1]],"segments":[{"id":0,"reads":[[16,24]]}],"start":0},'
            b'"seq":0,"vtime":12.5}\n'
            b'{"crc":2117856233,"kind":"header","payload":{"edges":1,'
            b'"segments":2},"schema":"taskgrind-trace/2","seq":1,'
            b'"version":2,"vtime":12.5}\n')
        assert w.seq == 2

    def test_no_vtime_is_the_journal_layout(self):
        fh = io.BytesIO()
        written = ChunkWriter(fh).emit("upload-created", {"trace_id": "t1"})
        assert fh.getvalue() == (b'{"crc":1074527512,"kind":"upload-created",'
                                 b'"payload":{"trace_id":"t1"},"seq":0}\n')
        assert written == len(fh.getvalue())

    def test_hook_sees_each_line_and_may_corrupt_it(self):
        seen = []

        def hook(seq, line):
            seen.append(seq)
            return line.replace(b'"a"', b'"A"') if seq == 1 else line
        fh = io.BytesIO()
        w = ChunkWriter(fh, hook)
        for _ in range(3):
            w.emit("k", {"a": 1})
        assert seen == [0, 1, 2]
        lines = [line for _off, line in chunk_lines(fh.getvalue())]
        verify_crc(decode_chunk(lines[0]), lines[0])
        with pytest.raises(ChunkError, match="checksum"):
            verify_crc(decode_chunk(lines[1]), lines[1])

    def test_torn_write_leaves_a_half_line_and_stops(self):
        fh = io.BytesIO()
        w = ChunkWriter(fh, lambda seq, line: None if seq == 1 else line)
        assert w.emit("k", {}) > 0
        assert w.emit("k", {}) == 0 and w.torn
        assert w.emit("k", {}) == 0
        last = fh.getvalue().split(b"\n")[-1]
        assert last == b'{"seq": 1, "kind": "torn'
        with pytest.raises(ChunkError) as exc:
            decode_chunk(last)
        assert exc.value.check == "json"

    def test_hook_exception_writes_nothing(self):
        def hook(seq, line):
            if seq == 1:
                raise InjectedFault("save-crash", "writer killed")
            return line
        fh = io.BytesIO()
        w = ChunkWriter(fh, hook)
        w.emit("k", {})
        before = fh.getvalue()
        with pytest.raises(InjectedFault):
            w.emit("k", {})
        assert fh.getvalue() == before and w.seq == 1


class TestSaveAtomic:
    def test_interrupted_save_keeps_the_old_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        save_atomic(path, lambda fh: fh.write(b"old\n"))

        def dies(fh):
            fh.write(b"half")
            raise InjectedFault("save-crash", "writer killed")
        with pytest.raises(InjectedFault):
            save_atomic(path, dies)
        assert open(path, "rb").read() == b"old\n"
        assert not os.path.exists(path + ".tmp")


# ---------------------------------------------------------------------------
# one damage matrix over every reader
# ---------------------------------------------------------------------------

#: (damage, position, form) -- position 0 is each stream's first line, 1
#: the one after it; a torn line is always the last.  The damaged line is
#: rewritten loosely (``json.dumps``, its payload re-encoded to check the
#: CRC) or in the writer's canonical form (its CRC checked over the payload
#: bytes as written); a torn line is a cut writer line.
CASES = [pytest.param(damage, at, form,
                      id=f"{damage}-{at}" + ("" if form == "loose"
                                             else f"-{form}"))
         for form in ("loose", "writer")
         for damage in ("list-payload", "str-payload", "str-seq",
                        "null-vtime", "flipped-crc")
         for at in (0, 1)] + [pytest.param("torn", -1, "writer",
                                           id="torn--1")]


def _damage(lines, damage, at, form="writer"):
    """``lines`` with line ``at`` damaged and rewritten in ``form``; returns
    (lines, index, the seq the damaged chunk still names, its check)."""
    lines = list(lines)
    at = at % len(lines)
    if damage == "torn":
        lines[at] = lines[at][:len(lines[at]) // 2]
        return lines, at, None, "json"
    doc = json.loads(lines[at])
    if damage == "list-payload":
        doc["payload"] = [1, 2]
        doc["crc"] = payload_crc(doc["payload"])
    elif damage == "str-payload":
        doc["payload"] = "x"
        doc["crc"] = payload_crc(doc["payload"])
    elif damage == "str-seq":
        doc["seq"] = str(doc["seq"])
    elif damage == "null-vtime":
        doc["vtime"] = None
    elif damage == "flipped-crc":
        doc["crc"] ^= 1
    lines[at] = json.dumps(doc).encode() if form == "loose" \
        else canonical_json(doc)
    seq = None if damage == "str-seq" else at
    return lines, at, seq, "crc" if damage == "flipped-crc" else "envelope"


def _write(path, lines):
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


def _offset(lines, index):
    return sum(len(line) + 1 for line in lines[:index])


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """DRB 027's saved trace and sync schedule, a profile, and the lines
    of each."""
    out = tmp_path_factory.mktemp("streams")
    program = _find_program("027-taskdependmissing-orig")
    result = run_benchmark(program, "taskgrind", nthreads=4, seed=0,
                           keep_machine=True)
    paths = {name: str(out / f"{name}.json")
             for name in ("trace", "schedule", "profile")}
    save_trace(result.tool_obj, result.machine, paths["trace"])
    _result, doc = record_bench(program, nthreads=4, seed=0)
    save_schedule(doc, paths["schedule"])
    prof = Profiler()
    prof.enable()
    prof.charge(0, "compute", 10.0, frame="main")
    prof.charge(1, "sync", 4.0, frame="main;leaf")
    prof.count("hb.query.dp", n=2)
    save_profile(paths["profile"], prof)
    lines = {name: open(path, "rb").read().splitlines()
             for name, path in paths.items()}
    return paths, lines, {r.key() for r in result.reports}


@pytest.mark.parametrize("damage,at,form", CASES)
class TestDamageMatrix:
    def test_trace_salvage_loses_the_chunk(self, streams, tmp_path,
                                           damage, at, form):
        _paths, lines, full = streams
        bad, index, seq, _check = _damage(lines["trace"], damage, at, form)
        path = str(tmp_path / "bad.json")
        _write(path, bad)
        cov = load_trace_salvaged(path).coverage
        assert not cov.complete and cov.chunks_corrupt == 1
        assert cov.first_bad_chunk == seq
        assert cov.first_bad_byte == _offset(bad, index)
        assert {r.key() for r in analyze_trace(path)} <= full

    def test_trace_strict_names_the_chunk(self, streams, tmp_path,
                                          damage, at, form):
        _paths, lines, _full = streams
        bad, index, seq, _check = _damage(lines["trace"], damage, at, form)
        path = str(tmp_path / "bad.json")
        _write(path, bad)
        with pytest.raises(TraceCorruptionError) as exc:
            load_trace(path)
        assert exc.value.chunk_seq == seq
        assert exc.value.byte_offset == _offset(bad, index)

    def test_schedule_raises_its_taxonomy(self, streams, tmp_path,
                                          damage, at, form):
        _paths, lines, _full = streams
        bad, index, _seq, check = _damage(lines["schedule"], damage, at,
                                          form)
        path = str(tmp_path / "bad.json")
        _write(path, bad)
        if index == 0 and check != "crc":
            with pytest.raises(ScheduleFormatError, match="first line"):
                load_schedule(path)
            return
        with pytest.raises(ScheduleCorruptionError) as exc:
            load_schedule(path)
        assert exc.value.chunk_seq == index
        assert exc.value.byte_offset == _offset(bad, index)

    def test_profile_raises_and_validation_lists_it(self, streams, tmp_path,
                                                    damage, at, form):
        _paths, lines, _full = streams
        bad, index, _seq, check = _damage(lines["profile"], damage, at,
                                          form)
        path = str(tmp_path / "bad.json")
        _write(path, bad)
        want = ProfileFormatError if check == "envelope" \
            else ProfileCorruptionError
        with pytest.raises(want):
            load_profile(path)
        problems = validate_profile_doc(path)
        assert problems and problems[0].startswith(f"chunk {index}: ")

    def test_wal_cuts_the_prefix_and_the_log_opens(self, streams, tmp_path,
                                                   damage, at, form):
        _paths, lines, _full = streams
        state = tmp_path / "state"
        log = DurableLog(str(state), fsync_policy="never")
        log.upload_created("t1")
        for seq, body in enumerate(lines["trace"][:3]):
            log.chunk_accepted("t1", seq, json.loads(body)["kind"], body)
        log.close()
        wal = state / "wal.jsonl"
        journal = wal.read_bytes().splitlines()
        bad, index, _seq, _check = _damage(journal, damage, at, form)
        _write(wal, bad)
        recovered = DurableLog(str(state), fsync_policy="never").recovered
        assert recovered.dropped_records == len(journal) - index
        assert recovered.errors[-1].startswith(f"record line {index}: ")
        # a prefix of the journal: the upload and its chunks up to the cut
        up = recovered.uploads.get("t1")
        kept = max(0, index - 2)
        assert (up is None) == (index < 2)
        if up is not None:
            assert [json.loads(b) for b in lines["trace"][:kept]] \
                == up.chunks

    def test_serve_edge_rejects_and_stays_retryable(self, streams, damage,
                                                    at, form):
        _paths, lines, _full = streams
        bad, index, _seq, check = _damage(lines["trace"], damage, at, form)
        store = TraceStore()
        up = store.create()
        for seq in range(index):
            store.add_chunk(up.trace_id, seq, lines["trace"][seq])
        with pytest.raises(Exception) as exc:
            store.add_chunk(up.trace_id, index, bad[index])
        assert error_response(exc.value).status == \
            (422 if check == "crc" else 400)
        assert up.next_seq == index
        ack = store.add_chunk(up.trace_id, index, lines["trace"][index])
        assert ack["accepted"] and ack["next_seq"] == index + 1
