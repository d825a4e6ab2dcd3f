"""The ``taskgrind-schedule/1`` document: round trips and strict loading.

A schedule pins an interleaving; unlike traces there is no salvage path,
so every form of damage must fail fast with the schedule error taxonomy.
"""

import json

import pytest

from repro.errors import (ScheduleCorruptionError, ScheduleError,
                          ScheduleFormatError, ScheduleVersionError)
from repro.replay.schedule import (CHUNK_PICKS, SCHEDULE_SCHEMA,
                                   SCHEDULE_VERSION, ScheduleDoc,
                                   load_schedule, save_schedule)
from repro.util.chunks import ChunkWriter, payload_crc


def make_doc(npicks: int = 7) -> ScheduleDoc:
    return ScheduleDoc(
        program={"kind": "bench", "name": "heat", "nthreads": 2, "seed": 0,
                 "record_mode": "sync", "options": {}},
        picks=[k % 2 for k in range(npicks)],
        segments=[[0, "serial", False, 0.0], [1, "task", True, 12.5],
                  [0, "task", False, 40.0]],
        edges=[[0, 1], [1, 2]],
        allocs=[[1, 0, 64], [2, 1, 128]],
        rng_draws={"omp.steal": 3, "sched.tiebreak": 9},
        final_vclock=99.25)


class TestRoundTrip:
    def test_save_load_preserves_every_field(self, tmp_path):
        doc = make_doc()
        path = str(tmp_path / "s.json")
        save_schedule(doc, path)
        again = load_schedule(path)
        assert again.program == doc.program
        assert again.picks == doc.picks
        assert again.segments == doc.segments
        assert again.edges == doc.edges
        assert again.allocs == doc.allocs
        assert again.rng_draws == doc.rng_draws
        assert again.final_vclock == doc.final_vclock

    def test_chunked_round_trip(self, tmp_path):
        # more picks than one chunk holds: the dovetail check must pass
        doc = make_doc(npicks=2 * CHUNK_PICKS + 17)
        path = str(tmp_path / "big.json")
        save_schedule(doc, path)
        assert load_schedule(path).picks == doc.picks

    def test_dict_round_trip(self):
        doc = make_doc()
        again = ScheduleDoc.from_dict(doc.to_dict())
        assert again.to_dict() == doc.to_dict()

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ScheduleFormatError, match="schema"):
            ScheduleDoc.from_dict({"schema": "taskgrind-trace/2"})

    def test_format_error_is_a_value_error(self):
        # callers that catch ValueError on document parsing keep working
        with pytest.raises(ValueError):
            ScheduleDoc.from_dict({"schema": "nope"})

    def test_summary_names_the_program(self):
        assert "heat" in make_doc().summary()


class TestStrictLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScheduleFormatError):
            load_schedule(str(tmp_path / "absent.json"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ScheduleFormatError, match="empty"):
            load_schedule(str(path))

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("definitely not a schedule\n")
        with pytest.raises(ScheduleFormatError, match="junk.json"):
            load_schedule(str(path))

    def test_json_without_chunk_envelope(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"schema": SCHEDULE_SCHEMA}) + "\n")
        with pytest.raises(ScheduleFormatError, match="envelope"):
            load_schedule(str(path))

    def test_wrong_version(self, tmp_path):
        path = str(tmp_path / "future.json")
        with open(path, "wb") as fh:
            w = ChunkWriter(fh, vtime=0.0)
            w.emit("header", {"schema": SCHEDULE_SCHEMA,
                              "version": SCHEDULE_VERSION + 1,
                              "counts": {}, "final_vclock": 0.0})
        with pytest.raises(ScheduleVersionError) as exc:
            load_schedule(path)
        assert exc.value.found == SCHEDULE_VERSION + 1
        assert "re-record" in str(exc.value)

    def test_truncation_at_every_line_fails_fast(self, tmp_path):
        doc = make_doc()
        path = tmp_path / "full.json"
        save_schedule(doc, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 5
        for keep in range(1, len(lines)):
            cut = tmp_path / f"cut{keep}.json"
            cut.write_bytes(b"".join(lines[:keep]))
            with pytest.raises(ScheduleCorruptionError, match="no end chunk"):
                load_schedule(str(cut))

    def test_torn_final_line(self, tmp_path):
        doc = make_doc()
        path = tmp_path / "full.json"
        save_schedule(doc, str(path))
        data = path.read_bytes()
        torn = tmp_path / "torn.json"
        torn.write_bytes(data[:len(data) // 2])
        with pytest.raises(ScheduleError):
            load_schedule(str(torn))

    def test_flipped_byte_breaks_the_checksum(self, tmp_path):
        doc = make_doc()
        path = tmp_path / "full.json"
        save_schedule(doc, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        # flip one alphabetic byte inside the picks payload
        target = next(i for i, ln in enumerate(lines) if b'"picks"' in ln)
        line = lines[target]
        at = line.find(b'"payload"') + len(b'"payload"')
        while not line[at:at + 1].isalpha():
            at += 1
        lines[target] = line[:at] + line[at:at + 1].swapcase() + line[at + 1:]
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"".join(lines))
        with pytest.raises(ScheduleCorruptionError) as exc:
            load_schedule(str(bad))
        assert exc.value.chunk_seq == target
        assert "never attempted" in str(exc.value)

    def test_reordered_chunks(self, tmp_path):
        doc = make_doc()
        path = tmp_path / "full.json"
        save_schedule(doc, str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        bad = tmp_path / "swapped.json"
        bad.write_bytes(b"".join(lines))
        with pytest.raises(ScheduleCorruptionError, match="sequence"):
            load_schedule(str(bad))

    def test_data_after_end_chunk(self, tmp_path):
        doc = make_doc()
        path = tmp_path / "full.json"
        save_schedule(doc, str(path))
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 99, "kind": "picks"}\n')
        with pytest.raises(ScheduleCorruptionError, match="after the end"):
            load_schedule(str(path))

    def test_header_count_mismatch(self, tmp_path):
        # a well-formed stream whose header over-claims: the final count
        # check must refuse, even though every chunk passed its checksum
        path = str(tmp_path / "short.json")
        with open(path, "wb") as fh:
            w = ChunkWriter(fh, vtime=0.0)
            w.emit("header", {"schema": SCHEDULE_SCHEMA,
                              "version": SCHEDULE_VERSION,
                              "counts": {"picks": 2, "segments": 0,
                                         "edges": 0, "allocs": 0,
                                         "rng_streams": 0},
                              "final_vclock": 0.0})
            w.emit("program", {"kind": "bench", "name": "x"})
            w.emit("rng", {"draws": {}})
            w.emit("end", {"chunks": 4})
        with pytest.raises(ScheduleCorruptionError, match="counts"):
            load_schedule(path)

    def test_gap_in_element_stream(self, tmp_path):
        # picks chunk starting past the elements seen so far = a missing
        # chunk that somehow kept valid seq numbers — still refused
        path = str(tmp_path / "gap.json")
        with open(path, "wb") as fh:
            w = ChunkWriter(fh, vtime=0.0)
            w.emit("header", {"schema": SCHEDULE_SCHEMA,
                              "version": SCHEDULE_VERSION,
                              "counts": {"picks": 4, "segments": 0,
                                         "edges": 0, "allocs": 0,
                                         "rng_streams": 0},
                              "final_vclock": 0.0})
            w.emit("picks", {"start": 2, "picks": [0, 1]})
        with pytest.raises(ScheduleCorruptionError, match="element") as exc:
            load_schedule(path)
        assert exc.value.chunk_seq == 1

    @pytest.mark.parametrize("kind,payload,reason", [
        ("header", {"counts": [1]}, "'counts' has type list"),
        ("header", {"final_vclock": "99"}, "'final_vclock' has type str"),
        ("picks", {"start": None}, "'start' is missing"),
        ("picks", {"picks": 7}, "'picks' has type int"),
        ("segments", {"start": True}, "'start' has type bool"),
        ("rng", {"draws": [["omp.steal", 3]]}, "'draws' has type list"),
    ])
    def test_payload_without_its_fields_is_corruption(self, tmp_path, kind,
                                                      payload, reason):
        """A CRC-valid chunk whose payload lacks a field its kind needs, or
        holds one of another type, used to raise ``KeyError`` or
        ``TypeError`` from the loader."""
        path = tmp_path / "s.json"
        save_schedule(make_doc(), str(path))
        lines = path.read_bytes().splitlines()
        seq, doc = next((i, json.loads(line)) for i, line in enumerate(lines)
                        if json.loads(line)["kind"] == kind)
        doc["payload"].update(payload)            # None drops the field
        doc["payload"] = {k: v for k, v in doc["payload"].items()
                          if v is not None}
        doc["crc"] = payload_crc(doc["payload"])
        lines[seq] = json.dumps(doc).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ScheduleCorruptionError, match=reason) as exc:
            load_schedule(str(path))
        assert exc.value.chunk_seq == seq

    @pytest.mark.parametrize("kind,row,reason", [
        ("picks", True, "picks chunk: malformed element 1: True"),
        ("picks", "1", "malformed element 1: '1'"),
        ("segments", 5, "segments chunk: malformed element 1: 5"),
        ("segments", [1, "task", 1, 12.5], "malformed element 1"),
        ("segments", [1, "task", True, "12.5"], "malformed element 1"),
        ("edges", [1], r"edges chunk: malformed element 1: \[1\]"),
        ("edges", [1, 2.0], "malformed element 1"),
        ("allocs", [2, 1, None], "allocs chunk: malformed element 1"),
    ])
    def test_malformed_row_is_corruption(self, tmp_path, kind, row, reason):
        """A CRC-valid element row of another shape used to load, and
        ``repro replay`` then ended in a ``TypeError`` (a segment row
        ``5``) or misreported the damage as a divergence (a pick)."""
        path = tmp_path / "s.json"
        save_schedule(make_doc(), str(path))
        lines = path.read_bytes().splitlines()
        seq, doc = next((i, json.loads(line)) for i, line in enumerate(lines)
                        if json.loads(line)["kind"] == kind)
        doc["payload"][kind][1] = row
        doc["crc"] = payload_crc(doc["payload"])
        lines[seq] = json.dumps(doc).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ScheduleCorruptionError, match=reason) as exc:
            load_schedule(str(path))
        assert exc.value.chunk_seq == seq
