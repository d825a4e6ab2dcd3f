"""Property test: a saved segment graph loads back field for field, and the
writer stores each chunk's locations and TLS snapshots once."""

import json

from hypothesis import given, settings, strategies as st

from repro.core.analysis import find_races
from repro.core.segments import SegmentGraph
from repro.core.trace import (SEGMENT_ROW, TRACE_SCHEMA, TRACE_VERSION,
                              assemble_chunks, segment_chunks)
from repro.machine.debuginfo import SourceLocation
from repro.machine.tls import TlsSnapshot

#: a small pool, so values repeat within and across chunks
LOCATIONS = [None, SourceLocation("a.c", 1, "f"),
             SourceLocation("a.c", 2, "f"), SourceLocation("b.c", 1, "")]
SNAPSHOTS = [None, TlsSnapshot(0, 4096, 1, ((1, 8192, 64),)),
             TlsSnapshot(1, 12288, 2, ((1, 16384, 64), (2, 20480, 32))),
             TlsSnapshot(1, 12288, 3, ())]
KINDS = ["serial", "implicit", "task", "join"]

LABEL_LOC = SEGMENT_ROW.index("label_loc")
SAMPLES = SEGMENT_ROW.index("loc_samples")
TLS = SEGMENT_ROW.index("tls")


def build(n, raw_edges, raw_accs, meta):
    g = SegmentGraph()
    segs = []
    for i in range(n):
        kind, virtual, sp, lo, size, loc, snap = meta[i % len(meta)]
        seg = g.new_segment(
            thread_id=i % 4 - virtual, task=None, kind=KINDS[kind],
            virtual=virtual, sp_at_start=sp, stack_bounds=(lo, lo + size),
            label_loc=LOCATIONS[loc])
        seg.tls_snapshot = SNAPSHOTS[snap]
        seg.open = False
        segs.append(seg)
    for i, j in raw_edges:
        a, b = sorted((i % n, j % n))
        if a != b:
            g.add_edge(segs[a], segs[b])
    for idx, lo, sz, w, loc in raw_accs:
        segs[idx % n].record(lo, sz, w, LOCATIONS[loc])
    return g


def save_and_load(graph, chunk_segments):
    """The graph's chunks through JSON and the chunk reader, like the
    on-disk trace; returns the loaded graph and the stored payloads."""
    chunks = segment_chunks(graph, chunk_segments)
    header = {"seq": 0, "kind": "header", "vtime": 0.0,
              "schema": TRACE_SCHEMA, "version": TRACE_VERSION,
              "payload": {"segments": len(graph.segments),
                          "edges": graph.edge_count,
                          "chunk_segments": chunk_segments}}
    docs = json.loads(json.dumps(
        [header] + [{"seq": seq, "kind": "segments", "vtime": 0.0,
                     "payload": payload}
                    for seq, payload in enumerate(chunks, 1)]))
    loaded = assemble_chunks(docs)
    assert loaded.coverage.segments_recovered == len(graph.segments)
    assert loaded.coverage.edges_recovered == graph.edge_count
    return loaded.graph, [doc["payload"] for doc in docs[1:]]


def fields(seg):
    return (seg.id, seg.thread_id, seg.kind, seg.virtual, seg.label(),
            seg.label_loc, seg.sp_at_start, seg.stack_bounds,
            seg.reads.pairs(), seg.writes.pairs(), seg.loc_samples,
            seg.tls_snapshot)


def result_keys(graph):
    return sorted((c.key(), tuple(c.ranges.pairs()))
                  for c in find_races(graph).candidates)


graphs = st.tuples(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 64),
                       st.integers(1, 24), st.booleans(),
                       st.integers(0, len(LOCATIONS) - 1)), max_size=16),
    st.lists(st.tuples(st.integers(0, len(KINDS) - 1), st.booleans(),
                       st.integers(0, 1 << 40), st.integers(0, 1 << 40),
                       st.integers(0, 1 << 20),
                       st.integers(0, len(LOCATIONS) - 1),
                       st.integers(0, len(SNAPSHOTS) - 1)),
             min_size=1, max_size=8),
    st.integers(1, 4))


@given(graphs)
@settings(max_examples=100, deadline=None)
def test_save_load_preserves_every_field(case):
    *shape, chunk_segments = case
    graph = build(*shape)
    restored, _ = save_and_load(graph, chunk_segments)
    assert [fields(seg) for seg in restored.segments] \
        == [fields(seg) for seg in graph.segments]
    # edges travel with their chunk, so each node's list may reorder
    assert list(map(sorted, restored._succ)) \
        == list(map(sorted, graph._succ))
    assert restored.edge_count == graph.edge_count
    assert result_keys(restored) == result_keys(graph)


@given(graphs)
@settings(max_examples=100, deadline=None)
def test_tables_hold_each_value_once_and_the_load_shares_it(case):
    *shape, chunk_segments = case
    graph = build(*shape)
    restored, payloads = save_and_load(graph, chunk_segments)
    for payload in payloads:
        locations, snapshots = payload["locations"], payload["tls"]
        assert len({json.dumps(row) for row in locations}) == len(locations)
        assert len({json.dumps(row, sort_keys=True)
                    for row in snapshots}) == len(snapshots)
        refs = [row[LABEL_LOC] for row in payload["segments"]] \
            + [sample[3] for row in payload["segments"]
               for sample in row[SAMPLES]]
        tls = [row[TLS] for row in payload["segments"]]
        # every index is a non-bool int in range, and every row is used
        for indexes, table in ((refs, locations), (tls, snapshots)):
            used = {i for i in indexes if i is not None}
            assert all(type(i) is int for i in used)
            assert used == set(range(len(table)))
    # one object per distinct value across the whole load
    locs = [seg.label_loc for seg in restored.segments] \
        + [loc for seg in restored.segments for *_, loc in seg.loc_samples]
    snaps = [seg.tls_snapshot for seg in restored.segments]
    for values in (locs, snaps):
        present = [v for v in values if v is not None]
        assert len({id(v) for v in present}) == len(set(present))
