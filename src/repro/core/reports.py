"""Race reports: the Listing 6 error format.

A :class:`RaceReport` carries everything the paper's report shows:

* the two conflicting segments, labelled by the source location of the task
  pragma that created them (``task.1.c:8`` / ``task.1.c:11``);
* the conflicting byte range;
* the heap block it falls into, with size, block address and the *allocation
  site* stack trace Taskgrind recorded by wrapping the allocator
  (``allocated in block 0xC3EA040 of size 8 from task.1.c:3``);
* representative per-access source locations when debug info is present.

``format_report(..., style="romp")`` renders the same conflict the way the
paper's Listing 5 shows ROMP reporting it — raw addresses, no debug info —
for the L456 error-reporting comparison bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.analysis import RaceCandidate
from repro.core.segments import Segment, SegmentGraph
from repro.machine.debuginfo import SourceLocation, format_stack
from repro.util.intervals import IntervalSet


@dataclass
class ProvenanceWitness:
    """Why the tool believes two segments race (the ``--explain`` payload).

    Assembled from the segment graph after analysis: where each racing
    segment came from (its ancestry up the graph), where their histories
    last met (nearest common ancestor), the first conflicting byte
    interval, and the reachability evidence that no ordering path
    exists.
    """

    #: ancestry of each racing segment as ``(seg_id, kind, label)`` triples,
    #: nearest-first, ending at the common ancestor (or a root)
    s1_path: List[Tuple[int, str, str]] = field(default_factory=list)
    s2_path: List[Tuple[int, str, str]] = field(default_factory=list)
    #: task-pragma ancestry (task labels creator-to-leaf) when tasks are live
    s1_tasks: List[str] = field(default_factory=list)
    s2_tasks: List[str] = field(default_factory=list)
    nca_id: Optional[int] = None
    nca_label: str = ""
    first_interval: Optional[Tuple[int, int]] = None
    #: the DP's evidence for "unordered" (``SegmentGraph.explain_unordered``)
    hb_explanation: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "s1_path": [list(t) for t in self.s1_path],
            "s2_path": [list(t) for t in self.s2_path],
            "s1_tasks": self.s1_tasks,
            "s2_tasks": self.s2_tasks,
            "nca": (None if self.nca_id is None
                    else {"segment": self.nca_id, "label": self.nca_label}),
            "first_interval": (list(self.first_interval)
                               if self.first_interval else None),
            "hb": self.hb_explanation,
        }


@dataclass
class RaceReport:
    """One determinacy-race report, ready for rendering."""

    s1: Segment
    s2: Segment
    ranges: IntervalSet
    s1_loc: Optional[SourceLocation] = None      # representative access locs
    s2_loc: Optional[SourceLocation] = None
    block_addr: Optional[int] = None
    block_size: Optional[int] = None
    alloc_site: Optional[SourceLocation] = None
    alloc_stack: Tuple[SourceLocation, ...] = ()
    region_desc: str = ""
    witness: Optional[ProvenanceWitness] = None  # set by --explain
    #: degraded-evidence warnings (salvaged trace, quarantined analysis
    #: chunks, memory-budget coarsening) — rendered like suppression notes
    notes: Tuple[str, ...] = ()

    def key(self) -> Tuple[str, str]:
        """Deduplication key: the pair of segment labels (source order)."""
        a, b = self.s1.label(), self.s2.label()
        return (a, b) if a <= b else (b, a)

    def sort_key(self) -> Tuple:
        """Total deterministic order: label pair, access locations, ids.

        Everything :func:`dedupe_reports` needs to produce the same output
        list — same representatives, same order — regardless of the order
        analysis emitted the reports in.
        """
        span = self.ranges.span
        return (self.key(),
                str(self.s1_loc or ""), str(self.s2_loc or ""),
                span.lo if span is not None else 0,
                min(self.s1.id, self.s2.id), max(self.s1.id, self.s2.id))


def build_report(machine, cand: RaceCandidate) -> RaceReport:
    """Assemble a report for one surviving candidate."""
    span = cand.ranges.span
    assert span is not None
    s1_loc = cand.s1.sample_loc(span.lo, span.hi)
    s2_loc = cand.s2.sample_loc(span.lo, span.hi)
    report = RaceReport(s1=cand.s1, s2=cand.s2, ranges=cand.ranges,
                        s1_loc=s1_loc, s2_loc=s2_loc,
                        region_desc=machine.space.describe(span.lo))
    block = machine.allocator.block_at(span.lo)
    if block is not None:
        report.block_addr = block.addr
        report.block_size = block.req_size or block.size
        report.alloc_site = block.alloc_site
        report.alloc_stack = tuple(block.alloc_stack)
    return report


def _ancestors(graph: SegmentGraph, preds: List[List[int]],
               start: int) -> Tuple[dict, set]:
    """BFS over predecessor edges: ``{id: parent-toward-start}`` + visited."""
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt: List[int] = []
        for sid in frontier:
            for p in preds[sid]:
                if p not in parent:
                    parent[p] = sid
                    nxt.append(p)
        frontier = nxt
    return parent, set(parent)


def _path_to(graph: SegmentGraph, parent: dict, start: int,
             ancestor: Optional[int]) -> List[Tuple[int, str, str]]:
    """The segment path ``start .. ancestor`` as (id, kind, label) triples."""
    if ancestor is None or ancestor not in parent:
        return [(start, graph.segments[start].kind,
                 graph.segments[start].label())]
    path: List[int] = []
    sid: Optional[int] = ancestor
    while sid is not None:
        path.append(sid)
        sid = parent[sid]
    path.reverse()                      # now start .. ancestor
    return [(i, graph.segments[i].kind, graph.segments[i].label())
            for i in path]


def _task_ancestry(seg: Segment) -> List[str]:
    """Task-pragma labels creator-to-leaf (empty offline, where task=None)."""
    labels: List[str] = []
    task = seg.task
    while task is not None:
        labels.append(task.label())
        task = task.parent
    labels.reverse()
    return labels


def build_witnesses(graph: SegmentGraph, reports: List[RaceReport]) -> None:
    """Attach a provenance witness to every report in ``reports``.

    The graph's reverse adjacency and topological positions are walked
    once for the whole list, not once per report.
    """
    if not reports:
        return
    preds = graph.predecessors_map()
    pos = graph.topo_positions()
    for report in reports:
        s1, s2 = report.s1, report.s2
        par1, anc1 = _ancestors(graph, preds, s1.id)
        par2, anc2 = _ancestors(graph, preds, s2.id)
        common = anc1 & anc2
        nca = max(common, key=lambda sid: pos[sid]) if common else None
        witness = ProvenanceWitness(
            s1_path=_path_to(graph, par1, s1.id, nca),
            s2_path=_path_to(graph, par2, s2.id, nca),
            s1_tasks=_task_ancestry(s1),
            s2_tasks=_task_ancestry(s2),
            nca_id=nca,
            nca_label=graph.segments[nca].label() if nca is not None else "",
            hb_explanation=graph.explain_unordered(s1, s2),
        )
        for lo, hi in report.ranges.pairs():
            witness.first_interval = (lo, hi)
            break
        report.witness = witness


def _format_path(path: List[Tuple[int, str, str]]) -> str:
    parts = [f"seg#{sid}[{kind}] {label}" for sid, kind, label in path]
    if len(parts) > 6:                   # keep long chains readable
        parts = parts[:3] + [f"... ({len(parts) - 5} more)"] + parts[-2:]
    return " -> ".join(parts)


def format_witness(witness: ProvenanceWitness) -> str:
    """Render the ``--explain`` block appended below a report."""
    lines = ["provenance:"]
    if witness.s1_tasks:
        lines.append("    task ancestry (1): "
                     + " > ".join(witness.s1_tasks))
    if witness.s2_tasks:
        lines.append("    task ancestry (2): "
                     + " > ".join(witness.s2_tasks))
    lines.append("    segment path (1): " + _format_path(witness.s1_path))
    lines.append("    segment path (2): " + _format_path(witness.s2_path))
    if witness.nca_id is not None:
        lines.append(f"    diverged at seg#{witness.nca_id} "
                     f"({witness.nca_label}): nearest common ancestor of "
                     "both segments")
    else:
        lines.append("    no common ancestor: the segments come from "
                     "unrelated roots")
    if witness.first_interval is not None:
        lo, hi = witness.first_interval
        lines.append(f"    first conflicting interval: "
                     f"[{lo:#x}, {hi:#x}) ({hi - lo} bytes)")
    hb = witness.hb_explanation
    if hb:
        lines.append(f"    no happens-before path ({hb.get('tier', '?')} "
                     f"tier): {hb.get('reason', '')}")
    return "\n".join(lines)


def format_report(report: RaceReport, *, style: str = "taskgrind") -> str:
    """Render a report in the paper's Listing 6 (or Listing 5) shape."""
    if style == "romp":
        return _format_romp(report)
    span = report.ranges.span
    lines = [
        f"Segments {report.s1.label()} and {report.s2.label()} were declared",
        "    independent while accessing the same memory address",
    ]
    nbytes = report.ranges.total_bytes
    if report.block_addr is not None:
        lines.append(
            f"{nbytes} bytes from {span.lo:#x} allocated in block "
            f"{report.block_addr:#x} of size {report.block_size}")
        if report.alloc_site is not None:
            lines.append(f"    from {report.alloc_site}")
        if report.alloc_stack:
            lines.append(format_stack(report.alloc_stack))
    else:
        lines.append(f"{nbytes} bytes from {span.lo:#x} "
                     f"({report.region_desc})")
    if report.s1_loc or report.s2_loc:
        lines.append("conflicting accesses:")
        if report.s1_loc:
            lines.append(f"    at {report.s1_loc}")
        if report.s2_loc:
            lines.append(f"    at {report.s2_loc}")
    if report.witness is not None:
        lines.append(format_witness(report.witness))
    for note in report.notes:
        lines.append(f"WARNING: {note}")
    return "\n".join(lines)


def _format_romp(report: RaceReport) -> str:
    """ROMP's Listing 5 style: raw addresses, no debug info by default."""
    span = report.ranges.span
    return "\n".join([
        "data race found:",
        f"  two accesses to address {span.lo:#x}",
        "  (no source information available)",
    ])


def dedupe_reports(reports: List[RaceReport]) -> List[RaceReport]:
    """Collapse reports with identical segment-label pairs (loop iterations).

    Deterministic: the output order and the representative chosen for each
    label pair depend only on the *set* of reports, not on the order the
    analysis produced them in (parallel phase scheduling permutes it).
    """
    seen = {}
    for r in sorted(reports, key=RaceReport.sort_key):
        seen.setdefault(r.key(), r)
    return sorted(seen.values(), key=RaceReport.sort_key)


# ---------------------------------------------------------------------------
# machine-readable output (the analogue of Valgrind's --xml)
# ---------------------------------------------------------------------------

def report_to_dict(report: RaceReport) -> dict:
    """One report as plain data (stable keys, JSON-serializable)."""
    return {
        "kind": "DeterminacyRace",
        "segments": [
            {"label": report.s1.label(), "thread": report.s1.thread_id,
             "access": str(report.s1_loc) if report.s1_loc else None},
            {"label": report.s2.label(), "thread": report.s2.thread_id,
             "access": str(report.s2_loc) if report.s2_loc else None},
        ],
        "conflict": {
            "ranges": [[lo, hi] for lo, hi in report.ranges.pairs()],
            "bytes": report.ranges.total_bytes,
            "region": report.region_desc,
        },
        "allocation": None if report.block_addr is None else {
            "block": report.block_addr,
            "size": report.block_size,
            "site": str(report.alloc_site) if report.alloc_site else None,
            "stack": [str(loc) for loc in report.alloc_stack],
        },
        "witness": (report.witness.to_dict()
                    if report.witness is not None else None),
        "notes": list(report.notes),
    }


def reports_to_json(reports: List[RaceReport], *, indent: int = 2) -> str:
    """All reports as a JSON document (Valgrind ``--xml`` analogue)."""
    import json
    doc = {
        "tool": "taskgrind",
        "protocol": 1,
        "error_count": len(reports),
        "errors": [report_to_dict(r) for r in reports],
    }
    return json.dumps(doc, indent=indent)
