"""Taskgrind: the paper's contribution.

* :mod:`repro.core.segments` — segment-graph construction from OMPT-style
  runtime events (Section II-A / III-A), including the Eq. (1) parallel-region
  happens-before rule via fork/join nodes, plus per-segment read/write
  interval sets (the Section III-B interval trees as flat normalized
  lists).
* :mod:`repro.core.analysis` — the determinacy-race pass (Algorithm 1) in an
  address-indexed form, supervised, sequential with one worker and the
  parallel post-processing the paper lists as future work with more.
* :mod:`repro.core.suppress` — the Section IV false-positive suppressions:
  ignore/instrument symbol lists, memory-recycling defeat (free-as-noop),
  TLS (TCB/DTV) filtering, and stack-frame (segment-local) filtering.
* :mod:`repro.core.reports` — error reports with allocation-site stack traces
  and source locations (Listing 6).
* :mod:`repro.core.tool` — :class:`TaskgrindTool`, the Valgrind-plugin
  analogue that ties it all together, including the modeled multi-thread
  lock-up behind the Table II ``deadlock`` cells.
"""

from repro.core.segments import (Segment, SegmentGraph, SegmentBuilder,
                                 SegmentModelConfig)
from repro.core.analysis import RaceCandidate, find_races
from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.core.reports import RaceReport, format_report
from repro.core.tool import TaskgrindTool, TaskgrindOptions
from repro.core.assistant import Suggestion, render_suggestions, suggest

__all__ = [
    "Segment", "SegmentGraph", "SegmentBuilder", "SegmentModelConfig",
    "RaceCandidate", "find_races",
    "SuppressionConfig", "SuppressionEngine",
    "RaceReport", "format_report",
    "TaskgrindTool", "TaskgrindOptions",
    "Suggestion", "suggest", "render_suggestions",
]
