"""Crash-tolerant trace loading: salvage semantics + atomic save.

The load-bearing invariant throughout: a damaged trace may LOSE races but
must never INVENT one — every salvaged report key must also appear in the
fault-free analysis of the intact trace.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.offline import main as offline_main
from repro.core.reports import report_to_dict
from repro.core.trace import (SEGMENT_ROW, analyze_trace,
                              analyze_trace_with_stats, load_trace,
                              load_trace_salvaged, save_trace)
from repro.errors import (InjectedFault, TraceCorruptionError, TraceError,
                          TraceVersionError)
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.util.chunks import canonical_json, payload_crc
from tests.util.chunk_forms import v2_trace_lines


def racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")

    def single_body():
        ctx.line(8)
        env.task(lambda tv: x.write(0, line=9), name="t8")
        ctx.line(11)
        env.task(lambda tv: x.write(0, line=12), name="t11")

    env.parallel_single(single_body)


@pytest.fixture
def traced(run_taskgrind, tmp_path):
    tool, machine = run_taskgrind(racy_listing)
    path = tmp_path / "run.trace.json"
    save_trace(tool, machine, str(path))
    return str(path), tool


def _keys(reports):
    return {r.key() for r in reports}


def _damaged(tmp_path, lines, name="damaged.json"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return str(path)


#: positions in a stored segment row
(THREAD, KIND, VIRTUAL, LABEL, LABEL_LOC, SP, STACK_LO, STACK_HI, READS,
 WRITES, SAMPLES, TLS) = range(len(SEGMENT_ROW))
assert SEGMENT_ROW[WRITES] == "writes" and SEGMENT_ROW[TLS] == "tls"


def _resegmented(path, tmp_path, edit, form="loose"):
    """The trace at ``path`` with ``edit(payload)`` applied to its segment
    chunk payloads (rows and tables) and the chunk re-checksummed: damage
    that passes the CRC and only the segment decoder can catch.  ``form``
    writes the damaged line ``loose`` or in the writer's ``canonical``
    form."""
    lines = []
    for line in open(path).read().splitlines():
        doc = json.loads(line)
        if doc["kind"] == "segments":
            edit(doc["payload"])
            doc["crc"] = payload_crc(doc["payload"])
            line = json.dumps(doc) if form == "loose" \
                else canonical_json(doc).decode()
        lines.append(line)
    return _damaged(tmp_path, lines, "malformed.json")


def _racers(tool):
    """The ids of the racing segment pair, lower first."""
    (report,) = tool.reports
    return sorted((report.s1.id, report.s2.id))


def _offset_of(path, seq):
    """The byte offset of chunk ``seq``'s line in the file at ``path``."""
    lines = open(path, "rb").read().split(b"\n")
    return sum(len(line) + 1 for line in lines[:seq])


def _add(payload, table, row):
    """Append ``row`` to the chunk's ``table``; returns its index."""
    payload[table].append(row)
    return len(payload[table]) - 1


def _tls_copy(payload, seg, **changes):
    """The index of a new TLS table row: ``seg``'s snapshot with
    ``changes``."""
    return _add(payload, "tls", {**payload["tls"][seg[TLS]], **changes})


def _assert_lost_from(bad, first):
    """The trace at ``bad`` loads segments ``0..first-1`` and loses the
    rest as unreadable, with its one segment chunk (seq 1) the first bad
    chunk in salvage and strict mode alike."""
    reports, stats = analyze_trace_with_stats(bad)
    cov = stats["coverage"]
    assert reports == [] and cov["complete"] is False
    # lost whole: neither half-built into the graph nor counted
    assert cov["segments"]["recovered"] == stats["graph"]["segments"] \
        == first
    assert any("unreadable segment" in e for e in cov["errors"])
    assert (cov["chunks"]["first_bad"],
            cov["chunks"]["first_bad_byte"]) == (1, _offset_of(bad, 1))
    with pytest.raises(TraceCorruptionError,
                       match="segment chunk 1: unreadable") as exc:
        analyze_trace(bad, strict=True)
    assert exc.value.chunk_seq == 1
    assert exc.value.byte_offset == _offset_of(bad, 1)


class TestSalvage:
    def test_intact_trace_reads_complete(self, traced):
        path, _ = traced
        salvaged = load_trace_salvaged(path)
        cov = salvaged.coverage
        assert cov.complete
        assert cov.segments_recovered == cov.segments_total
        assert cov.edges_recovered == cov.edges_total
        assert cov.chunks_corrupt == 0

    def test_truncation_recovers_prefix(self, traced, tmp_path):
        path, tool = traced
        lines = open(path).read().splitlines()
        trunc = _damaged(tmp_path, lines[:2])      # header + segments
        salvaged = load_trace_salvaged(trunc)
        cov = salvaged.coverage
        assert not cov.complete
        assert cov.segments_recovered == len(tool.builder.graph.segments)
        assert not cov.environment_recovered
        assert cov.last_good_vtime > 0
        assert any("end marker" in e for e in cov.errors)

    def test_every_truncation_point_is_subset(self, traced, tmp_path):
        """Sweep every prefix length (incl. a torn half-line): salvage
        must degrade monotonically, never invent a report."""
        path, tool = traced
        full = _keys(tool.reports)
        data = open(path, "rb").read()
        for cut in range(0, len(data), max(1, len(data) // 40)):
            trunc = tmp_path / "cut.json"
            trunc.write_bytes(data[:cut])
            reports = analyze_trace(str(trunc))
            assert _keys(reports) <= full, f"invented a race at cut={cut}"

    def test_corrupt_middle_chunk_is_skipped(self, traced, tmp_path):
        path, tool = traced
        lines = open(path).read().splitlines()
        env_idx = next(i for i, line in enumerate(lines)
                       if json.loads(line)["kind"] == "environment")
        doc = json.loads(lines[env_idx])
        doc["payload"]["regions"] = "rotted"       # crc now wrong
        lines[env_idx] = json.dumps(doc)
        bad = _damaged(tmp_path, lines)
        salvaged = load_trace_salvaged(bad)
        cov = salvaged.coverage
        assert cov.chunks_corrupt == 1
        assert cov.first_bad_chunk == doc["seq"]
        assert cov.first_bad_byte is not None
        assert not cov.environment_recovered
        # the graph around the bad chunk survives untouched
        assert cov.segments_recovered == len(tool.builder.graph.segments)
        assert _keys(analyze_trace(bad)) <= _keys(tool.reports)

    def test_empty_file_salvages_to_nothing(self, tmp_path):
        empty = _damaged(tmp_path, [])
        salvaged = load_trace_salvaged(empty)
        assert salvaged.graph.segments == []
        assert not salvaged.coverage.complete
        assert salvaged.coverage.segments_total is None
        assert analyze_trace(empty) == []

    def test_lost_segment_chunk_drops_the_tail(self, traced, tmp_path):
        """A gap in the dense id space makes everything after it
        unrecoverable — the reader must not renumber across the hole."""
        path, _ = traced
        lines = open(path).read().splitlines()
        kept = [line for line in lines
                if json.loads(line)["kind"] != "segments"]
        salvaged = load_trace_salvaged(_damaged(tmp_path, kept))
        assert salvaged.coverage.segments_recovered == 0
        assert salvaged.coverage.edges_recovered == 0

    def test_strict_mode_raises(self, traced, tmp_path):
        path, _ = traced
        lines = open(path).read().splitlines()
        trunc = _damaged(tmp_path, lines[:2])
        with pytest.raises(TraceError):
            analyze_trace(trunc, strict=True)

    def test_coverage_block_in_stats(self, traced, tmp_path):
        path, _ = traced
        lines = open(path).read().splitlines()
        trunc = _damaged(tmp_path, lines[:2])
        _, stats = analyze_trace_with_stats(trunc)
        assert stats["coverage"]["complete"] is False
        assert stats["coverage"]["segments"]["recovered"] > 0


class TestLeadingBlankLines:
    """The empty-file and version checks read the first non-blank line,
    as the chunk scan reads every later one."""

    @pytest.mark.parametrize("lead", [b"\n", b" \r\n\n"],
                             ids=["newline", "blank-lines"])
    def test_blank_lead_loads_complete(self, traced, tmp_path, capsys,
                                       lead):
        path, _ = traced
        padded = tmp_path / "padded.json"
        padded.write_bytes(lead + open(path, "rb").read())
        salvaged = load_trace_salvaged(str(padded))
        assert salvaged.coverage.complete, salvaged.coverage.errors
        assert len(salvaged.graph.segments) == \
            len(load_trace_salvaged(path).graph.segments)
        want = [report_to_dict(r) for r in analyze_trace(path)]
        assert want
        for strict in (False, True):
            assert [report_to_dict(r) for r in
                    analyze_trace(str(padded), strict=strict)] == want
        assert offline_main([str(padded)]) == 1
        assert "WARNING" not in capsys.readouterr().out

    def test_blank_lead_before_version_2_header_is_refused(self, tmp_path,
                                                           capsys):
        old = tmp_path / "v2.trace.json"
        old.write_bytes(b"\n" + b"\n".join(v2_trace_lines()) + b"\n")
        with pytest.raises(TraceVersionError):
            load_trace_salvaged(str(old))
        assert offline_main([str(old)]) == 2
        assert "version 2" in capsys.readouterr().err

    def test_blank_lines_only_read_as_an_empty_file(self, tmp_path):
        blank = tmp_path / "blank.json"
        blank.write_bytes(b"\n \r\n\n")
        salvaged = load_trace_salvaged(str(blank))
        assert salvaged.graph.segments == []
        assert salvaged.coverage.errors == ["empty trace file"]


class TestMalformedSegments:
    """A CRC-valid segment the writer could not have emitted is lost whole,
    with the rest of the dense id prefix after it — never half-loaded."""

    @pytest.mark.parametrize(
        "interval", [[1, 2, 3], [-16, -8], [2 ** 63, 2 ** 63 + 8]],
        ids=["not-a-pair", "negative", "past-int64"])
    def test_malformed_interval_loses_the_segment(self, traced, tmp_path,
                                                  interval):
        """Both racers write ``interval``.  A non-pair used to escape the
        salvage reader as ``ValueError``; negative addresses aliased into
        a neighbouring pair's window in the batched kernel (inventing a
        range); addresses at or past 2**63 overflowed its int64 pools."""
        path, tool = traced
        racers = _racers(tool)

        def edit(payload):
            for sid in racers:
                payload["segments"][sid][WRITES] = [interval]
        _assert_lost_from(_resegmented(path, tmp_path, edit), racers[0])

    @pytest.mark.parametrize("edit", [
        lambda p, seg: seg.__setitem__(
            LABEL_LOC, _add(p, "locations", [["x"], 1, "f"])),
        lambda p, seg: seg.__setitem__(
            LABEL_LOC, _add(p, "locations", ["x", "1", "f"])),
        lambda p, seg: seg[SAMPLES][0].__setitem__(
            3, _add(p, "locations", ["x", 1])),
        lambda p, seg: seg.__setitem__(TLS, _tls_copy(p, seg, dtv=[[1, 2]])),
        lambda p, seg: seg.__setitem__(
            TLS, _tls_copy(p, seg, dtv=[[1, 2, [3]]])),
        lambda p, seg: seg.__setitem__(TLS, _tls_copy(p, seg, tcb="0")),
        lambda p, seg: seg[SAMPLES][0].__setitem__(0, "x"),
        lambda p, seg: seg[SAMPLES][0].__setitem__(2, 1),
        lambda p, seg: seg[SAMPLES][0].append(None),
        lambda p, seg: seg.__setitem__(THREAD, "1"),
        lambda p, seg: seg.__setitem__(THREAD, True),
        lambda p, seg: seg.__setitem__(KIND, 1),
        lambda p, seg: seg.__setitem__(VIRTUAL, 0),
        lambda p, seg: seg.__setitem__(SP, None),
        lambda p, seg: seg.__setitem__(slice(STACK_LO, STACK_HI + 1),
                                       ["a", "b"]),
        lambda p, seg: seg.insert(STACK_HI + 1, 3),
        lambda p, seg: seg.__setitem__(LABEL, ["x"]),
    ], ids=["unhashable-location", "string-line", "short-sample-location",
            "short-dtv-entry", "unhashable-dtv-entry", "string-tcb",
            "sample-string-lo", "sample-int-is-write", "sample-five-fields",
            "string-thread", "bool-thread", "int-kind", "int-virtual",
            "null-sp", "string-stack-bounds", "three-stack-bounds",
            "list-label"])
    def test_malformed_location_or_tls_loses_the_segment(self, traced,
                                                         tmp_path, edit):
        """Locations and TLS snapshots sit in per-chunk tables and are
        interned per load, so each distinct one is checked once, when a
        segment first references it; one the writer could not have
        emitted (an unhashable field among them, which used to load
        silently) loses its segment like a malformed interval.  Each
        damaged value is a new table row only the racers reference.  So
        does any other field not of the writer's type, a bool never
        passing for an int: a sample row whose ``lo`` is a string used to
        end the report step in a ``TypeError`` traceback, and a string
        thread loaded silently.  The damaged line is written loose and in
        the writer's form."""
        path, tool = traced
        racers = _racers(tool)

        def edit_racers(payload):
            for sid in racers:
                edit(payload, payload["segments"][sid])
        for form in ("loose", "canonical"):
            bad = _resegmented(path, tmp_path, edit_racers, form)
            # the segments before the first bad one are kept
            _assert_lost_from(bad, racers[0])

    @pytest.mark.parametrize("index", ["past-end", -1, False, "0"],
                             ids=["out-of-range", "negative", "bool",
                                  "string"])
    @pytest.mark.parametrize("site", ["label_loc", "sample", "tls"])
    def test_bad_table_index_loses_the_segment(self, traced, tmp_path,
                                               site, index):
        """A table index must be a non-bool int naming a row of the
        chunk's table, or null: the racers' label location, sample
        location or TLS snapshot pointing anywhere else loses them (a
        ``False`` would otherwise read row 0, and -1 the last row)."""
        path, tool = traced
        racers = _racers(tool)
        table = "tls" if site == "tls" else "locations"

        def edit(payload):
            bad = len(payload[table]) if index == "past-end" else index
            for sid in racers:
                seg = payload["segments"][sid]
                if site == "sample":
                    seg[SAMPLES][0][3] = bad
                else:
                    seg[TLS if site == "tls" else LABEL_LOC] = bad
        _assert_lost_from(_resegmented(path, tmp_path, edit), racers[0])

    @pytest.mark.parametrize("fields", [11, 13])
    def test_row_of_another_length_loses_the_segment(self, traced, tmp_path,
                                                     fields):
        path, tool = traced
        racers = _racers(tool)

        def edit(payload):
            for sid in racers:
                row = payload["segments"][sid]
                del row[fields:]
                row += [None] * (fields - len(row))
        _assert_lost_from(_resegmented(path, tmp_path, edit), racers[0])

    @pytest.mark.parametrize("damage", [
        lambda row: [row[0], "9", row[2]], lambda row: None],
        ids=["string-line", "null-row"])
    def test_malformed_table_row_loses_from_its_first_reference(
            self, traced, tmp_path, damage):
        """A table row is checked when a segment first references it: a
        malformed location both racers reference, and no segment before
        them, loses the segments from the first racer on."""
        path, tool = traced
        racers = _racers(tool)
        rows = next(json.loads(line)["payload"]["segments"]
                    for line in open(path)
                    if json.loads(line)["kind"] == "segments")

        def locations(row):
            return {row[LABEL_LOC]} | {sample[3] for sample in row[SAMPLES]}
        shared = set.intersection(*(locations(rows[sid]) for sid in racers))
        shared -= set().union(*map(locations, rows[:racers[0]]))
        shared.discard(None)
        assert shared, "no location the racers reference first"

        def edit(payload):
            index = min(shared)
            payload["locations"][index] = damage(payload["locations"][index])
        _assert_lost_from(_resegmented(path, tmp_path, edit), racers[0])


@pytest.fixture
def chunked(run_taskgrind, tmp_path):
    """The racy listing saved four segments to a chunk: five segment
    chunks, the racers in the second and third."""
    tool, machine = run_taskgrind(racy_listing)
    path = tmp_path / "chunked.json"
    save_trace(tool, machine, str(path), chunk_segments=4)
    return str(path), tool


def _load_probe(path, *flags):
    """``[complete, segments recovered]`` of a salvage load of ``path`` in
    a fresh interpreter started with ``flags``."""
    probe = ("import json, sys\n"
             "from repro.core.trace import load_trace_salvaged\n"
             "cov = load_trace_salvaged(sys.argv[1]).coverage\n"
             "print(json.dumps([cov.complete, cov.segments_recovered]))")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, *flags, "-c", probe, path],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


class TestLostSegmentChunk:
    """A whole segment chunk missing from an otherwise intact stream is
    named: by the next segment chunk, whose ids no longer follow on, or,
    when the lost chunks were the last ones, by the header's total.  Both
    used to leave strict mode with "at byte offset -1: incomplete trace"."""

    def _without(self, chunked, tmp_path, which):
        """The chunked trace minus its ``which``-th segment chunk line:
        ``(damaged path, parsed chunks of the intact file, line indexes of
        its segment chunks)``."""
        path, _ = chunked
        lines = open(path).read().splitlines()
        docs = [json.loads(line) for line in lines]
        segs = [i for i, d in enumerate(docs) if d["kind"] == "segments"]
        del lines[segs[which]]
        return _damaged(tmp_path, lines), docs, segs

    def test_gap_names_the_missing_ids(self, chunked, tmp_path):
        bad, docs, segs = self._without(chunked, tmp_path, 1)
        assert [docs[i]["payload"]["start"] for i in segs[:3]] == [0, 4, 8]
        after = docs[segs[2]]["seq"]        # now on line segs[1]
        cov = load_trace_salvaged(bad).coverage
        assert cov.segments_recovered == 4             # the same prefix
        assert f"segment chunk {after}: starts at id 8 where 4 was due; " \
            "segment ids 4..7 are missing" in cov.errors
        assert (cov.first_bad_chunk, cov.first_bad_byte) \
            == (after, _offset_of(bad, segs[1]))
        with pytest.raises(TraceCorruptionError,
                           match="segment ids 4..7 are missing") as exc:
            analyze_trace(bad, strict=True)
        assert (exc.value.chunk_seq, exc.value.byte_offset) \
            == (after, _offset_of(bad, segs[1]))

    def test_start_gap_loses_the_tail_under_optimize(self, chunked,
                                                     tmp_path):
        """Segment ids are implicit, row ``i`` of a chunk is ``start + i``:
        a chunk whose ``start`` skips ids loads only the prefix before it,
        and the check is no ``assert``, so ``python -O`` loads the same."""
        path, _ = chunked
        docs = [json.loads(line) for line in open(path).read().splitlines()]
        second = [d for d in docs if d["kind"] == "segments"][1]
        assert second["payload"]["start"] == 4
        second["payload"]["start"] = 5
        second["crc"] = payload_crc(second["payload"])
        bad = _damaged(tmp_path, [json.dumps(d) for d in docs])
        assert "segment ids 4..4 are missing" in " ".join(
            load_trace_salvaged(bad).coverage.errors)
        for flags in ((), ("-O",)):
            assert _load_probe(bad, *flags) == [False, 4]

    def test_lost_tail_names_the_missing_count(self, chunked, tmp_path):
        bad, docs, segs = self._without(chunked, tmp_path, -1)
        total = docs[0]["payload"]["segments"]
        start = docs[segs[-1]]["payload"]["start"]
        cov = load_trace_salvaged(bad).coverage
        assert cov.segments_recovered == start == 16   # the same prefix
        missing = f"{total - start} of the header's {total} segments " \
            f"missing (ids {start}..{total - 1})"
        assert missing in cov.errors
        with pytest.raises(TraceCorruptionError,
                           match=r"segments missing \(ids 16\.\."):
            analyze_trace(bad, strict=True)


class TestMalformedEdges:
    """A CRC-valid segment chunk whose edges the writer could not have
    emitted (not two non-bool ids inside the chunk's prefix, or closing a
    cycle) is lost whole with everything after it, so no edge is dropped
    without losing an endpoint.  The damage goes in the last chunk."""

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["salvage", "strict"])
    @pytest.mark.parametrize("edge", [
        "2-cycle", [-1, 0], [0, 1, 2], ["0", 1]],
        ids=["2-cycle", "negative", "not-a-pair", "string-id"])
    def test_damaged_edge_loses_its_chunk(self, chunked, tmp_path, edge,
                                          strict):
        """At the parent, the 2-cycle and the negative id (which Python
        indexes from the end) raised ``AssertionError`` from the DP's
        topological sort, the triple a ``ValueError`` in salvage mode and
        the string id a ``TypeError`` in both modes."""
        path, tool = chunked
        lines = open(path).read().splitlines()
        docs = [json.loads(line) for line in lines]
        last = [d for d in docs if d["kind"] == "segments"][-1]
        start = last["payload"]["start"]
        if edge == "2-cycle":                    # reverse one of its edges
            src, dst = last["payload"]["edges"][0]
            edge = [dst, src]
        last["payload"]["edges"].append(edge)
        last["crc"] = payload_crc(last["payload"])
        bad = _damaged(tmp_path, [json.dumps(d) for d in docs])
        if strict:
            with pytest.raises(TraceCorruptionError,
                               match=f"segment chunk {last['seq']}") as exc:
                analyze_trace(bad, strict=True)
            assert exc.value.chunk_seq == last["seq"]
            assert exc.value.byte_offset == _offset_of(bad, last["seq"])
            return
        reports, stats = analyze_trace_with_stats(bad)
        cov = stats["coverage"]
        assert cov["complete"] is False
        assert cov["segments"]["recovered"] == start == 16
        assert any(e.startswith(f"segment chunk {last['seq']}:")
                   for e in cov["errors"])
        # every edge of the kept chunks survives, and the racers (segments
        # 5 and 9) still race
        kept = [e for d in docs if d["kind"] == "segments" and d is not last
                for e in d["payload"]["edges"]]
        assert cov["edges"]["recovered"] == len(kept)
        assert _keys(reports) == _keys(tool.reports)


class TestMalformedHeader:
    """Header totals the writer could not have emitted lose only the
    totals: the segments still load, and the coverage says why it cannot
    tell whether they are all there."""

    @pytest.mark.parametrize("totals", [
        {"segments": "many"}, {"edges": -1}, {"segments": True},
        {"edges": None}], ids=["string", "negative", "bool", "null"])
    def test_bad_totals_are_lost_not_the_load(self, traced, tmp_path,
                                              totals):
        path, tool = traced
        docs = [json.loads(line) for line in open(path).read().splitlines()]
        docs[0]["payload"].update(totals)
        docs[0]["crc"] = payload_crc(docs[0]["payload"])
        bad = _damaged(tmp_path, [json.dumps(d) for d in docs])
        salvaged = load_trace_salvaged(bad)
        cov = salvaged.coverage
        assert not cov.complete
        assert cov.segments_total is None and cov.edges_total is None
        assert cov.segments_recovered == len(tool.builder.graph.segments)
        assert any(e.startswith("header chunk 0: totals") for e in cov.errors)
        assert (cov.first_bad_chunk, cov.first_bad_byte) == (0, 0)
        assert _keys(analyze_trace(bad)) == _keys(tool.reports)
        with pytest.raises(TraceCorruptionError) as exc:
            analyze_trace(bad, strict=True)
        assert (exc.value.chunk_seq, exc.value.byte_offset) == (0, 0)


class TestMalformedEnvironment:
    def test_short_alloc_site_loses_only_the_environment(self, traced,
                                                         tmp_path):
        """An allocation site too short to be a location used to escape
        the salvage reader as ``IndexError``."""
        path, tool = traced
        docs = [json.loads(line) for line in open(path).read().splitlines()]
        env = next(d for d in docs if d["kind"] == "environment")
        env["payload"]["blocks"][0]["site"] = []
        env["crc"] = payload_crc(env["payload"])
        bad = _damaged(tmp_path, [json.dumps(d) for d in docs])
        cov = load_trace_salvaged(bad).coverage
        assert not cov.environment_recovered
        assert cov.segments_recovered == len(tool.builder.graph.segments)
        assert any(e.startswith("environment chunk unreadable")
                   for e in cov.errors)
        assert cov.first_bad_chunk == env["seq"]
        with pytest.raises(TraceCorruptionError) as exc:
            analyze_trace(bad, strict=True)
        assert exc.value.chunk_seq == env["seq"]

    def test_overlapping_regions_lose_the_environment(self, traced,
                                                      tmp_path):
        """The stored regions are mapped into an ``AddressSpace``, which
        rejects an overlap: such an environment used to load, and a
        region lookup silently picked one of the two."""
        path, tool = traced
        docs = [json.loads(line) for line in open(path).read().splitlines()]
        env = next(d for d in docs if d["kind"] == "environment")
        heap = next(r for r in env["payload"]["regions"]
                    if r["kind"] == "heap")
        env["payload"]["regions"].append(
            {**heap, "name": "shadow", "base": heap["base"] + 16})
        env["crc"] = payload_crc(env["payload"])
        bad = _damaged(tmp_path, [json.dumps(d) for d in docs])
        cov = load_trace_salvaged(bad).coverage
        assert not cov.environment_recovered
        assert cov.segments_recovered == len(tool.builder.graph.segments)
        assert any("mapping overlap" in e for e in cov.errors)
        assert cov.first_bad_chunk == env["seq"]


class TestOfflineCli:
    def test_damaged_trace_exits_cleanly(self, traced, tmp_path, capsys):
        path, _ = traced
        lines = open(path).read().splitlines()
        trunc = _damaged(tmp_path, lines[:2])
        rc = offline_main([trunc])
        out = capsys.readouterr().out
        assert rc in (0, 1)                  # 1 only when races survive
        assert "WARNING: trace damaged" in out

    def test_strict_flag_exits_nonzero(self, traced, tmp_path, capsys):
        path, _ = traced
        lines = open(path).read().splitlines()
        trunc = _damaged(tmp_path, lines[:2])
        assert offline_main([trunc, "--strict-trace"]) == 2
        assert capsys.readouterr().err       # actionable message on stderr

    def test_malformed_segment_exits_cleanly(self, traced, tmp_path,
                                             capsys):
        """A CRC-valid interval that is not a pair used to end the CLI
        with a traceback (exit 1, read as "races found")."""
        path, tool = traced

        def edit(payload):
            payload["segments"][_racers(tool)[0]][WRITES] = [[1, 2, 3]]
        bad = _resegmented(path, tmp_path, edit)
        assert offline_main([bad]) == 0          # the racers are lost
        assert "WARNING: trace damaged" in capsys.readouterr().out
        assert offline_main([bad, "--strict-trace"]) == 2

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["salvage", "strict"])
    def test_unreadable_path_exits_typed(self, tmp_path, capsys, strict):
        """A path that is no readable file is a format error in salvage
        mode too (exit 2, the taxonomy message), not a ``FileNotFoundError``
        or ``IsADirectoryError`` traceback read as "races found"."""
        flags = ["--strict-trace"] if strict else []
        for path in (tmp_path / "missing.trace", tmp_path):
            assert offline_main([str(path)] + flags) == 2
            err = capsys.readouterr().err
            assert f"error: {path}: not a readable taskgrind trace" in err

    def test_strict_flag_ok_on_intact_trace(self, traced, capsys):
        path, _ = traced
        assert offline_main([path, "--strict-trace"]) == 1   # races found
        assert "WARNING: trace damaged" not in capsys.readouterr().out


class TestAtomicSave:
    def test_mid_stream_crash_leaves_no_partial_file(self, run_taskgrind,
                                                     tmp_path):
        tool, machine = run_taskgrind(racy_listing)
        path = str(tmp_path / "crash.json")
        with inject_plan(FaultPlan.single("save-crash", 1)):
            with pytest.raises(InjectedFault):
                save_trace(tool, machine, path)
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_mid_stream_crash_preserves_previous_trace(self, run_taskgrind,
                                                       tmp_path):
        tool, machine = run_taskgrind(racy_listing)
        path = str(tmp_path / "run.json")
        save_trace(tool, machine, path)
        before = open(path, "rb").read()
        with inject_plan(FaultPlan.single("save-crash", 1)):
            with pytest.raises(InjectedFault):
                save_trace(tool, machine, path)
        assert open(path, "rb").read() == before
        graph, _, _ = load_trace(path)       # and it still loads strict
        assert graph.segments
