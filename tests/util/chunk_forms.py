"""A chunk line rewritten in the forms a reader can meet besides the
writer's: loose (any JSON layout of the same envelope) and foreign (a
canonical envelope around payload bytes in another layout, its CRC taken
over those bytes as written)."""

import json
import zlib

from repro.util.chunks import canonical_json


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
