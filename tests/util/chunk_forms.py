"""A chunk line rewritten in the forms a reader can meet besides the
writer's: loose (any JSON layout of the same envelope) and foreign (a
canonical envelope around payload bytes in another layout, its CRC taken
over those bytes as written); and a trace in the retired version-2
layout."""

import json
import zlib

from repro.util.chunks import canonical_json, payload_crc


def loose_line(line: bytes) -> bytes:
    """``line`` re-serialised with ``json.dumps``: spaced separators, the
    envelope keys in their parsed order, the CRC unchanged."""
    return json.dumps(json.loads(line)).encode()


def foreign_line(line: bytes) -> bytes:
    """``line`` with its payload written with spaced separators and its CRC
    taken over those bytes, the envelope kept canonical."""
    doc = json.loads(line)
    payload = json.dumps(doc["payload"]).encode()
    assert payload != canonical_json(doc["payload"])
    doc["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
    head, tail = canonical_json({**doc, "payload": "@"}).split(b'"@"')
    return head + payload + tail


def v2_trace_lines() -> list:
    """The chunk lines of a one-segment ``taskgrind-trace/2`` trace, whose
    segment chunks held one object per segment, each repeating its id,
    locations and TLS snapshot."""
    seg = {"id": 0, "thread": 0, "kind": "serial", "virtual": False,
           "label": "serial#0", "label_loc": ["main.c", 3, "main"],
           "sp_at_start": 0, "stack_bounds": [0, 0], "reads": [],
           "writes": [[16, 24]], "loc_samples": [[16, 24, True,
                                                  ["main.c", 3, "main"]]],
           "tls": None}
    chunks = [
        ("header", {"segments": 1, "edges": 0, "chunk_segments": 256},
         {"schema": "taskgrind-trace/2", "version": 2}),
        ("segments", {"start": 0, "segments": [seg], "edges": []}, {}),
        ("environment", {"regions": [], "blocks": []}, {}),
        ("suppression", {"suppress_tls": True, "suppress_stack": True}, {}),
        ("end", {"chunks": 4}, {}),
    ]
    return [canonical_json({"seq": seq, "kind": kind, "vtime": 0.0,
                            "crc": payload_crc(payload), "payload": payload,
                            **extras})
            for seq, (kind, payload, extras) in enumerate(chunks)]
