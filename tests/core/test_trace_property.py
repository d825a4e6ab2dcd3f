"""Property test: graph serialization round-trips analysis results."""

import json

from hypothesis import given, settings, strategies as st

from repro.core.analysis import find_races
from repro.core.segments import SegmentGraph
from repro.core.trace import assemble_chunks, dump_graph


def build(n, raw_edges, raw_accs):
    g = SegmentGraph()
    segs = [g.new_segment(thread_id=i % 4, task=None, kind="task")
            for i in range(n)]
    for s in segs:
        s.open = False
    for i, j in raw_edges:
        a, b = sorted((i % n, j % n))
        if a != b:
            g.add_edge(segs[a], segs[b])
    for idx, lo, sz, w in raw_accs:
        segs[idx % n].record(lo, sz, w, None)
    return g


def result_keys(graph):
    return sorted((c.key(), tuple(c.ranges.pairs()))
                  for c in find_races(graph).candidates)


@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 64),
                       st.integers(1, 24), st.booleans()), max_size=16),
)
@settings(max_examples=100, deadline=None)
def test_dump_load_preserves_analysis(n, raw_edges, raw_accs):
    graph = build(n, raw_edges, raw_accs)
    expected = result_keys(graph)
    # through JSON and the chunk reader, like the on-disk trace
    data = json.loads(json.dumps(dump_graph(graph)))
    restored = assemble_chunks([{
        "seq": 0, "kind": "segments", "vtime": 0.0,
        "payload": {"start": 0, "segments": data["segments"],
                    "edges": data["edges"]}}]).graph
    assert result_keys(restored) == expected
    assert restored.edge_count == graph.edge_count
    for a, b in zip(restored.segments, graph.segments):
        assert a.reads.pairs() == b.reads.pairs()
        assert a.writes.pairs() == b.writes.pairs()
