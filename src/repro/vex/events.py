"""Event records the machine hands to its tool.

Accesses reach the tool as plain arguments of
:meth:`repro.vex.tool.Tool.on_access`, one call per access, so no record is
built on that hot path.  A heap deallocation is rare enough to travel as a
:class:`FreeEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FreeEvent:
    """A heap deallocation; ``retained`` when a tool no-op'd it."""

    addr: int
    size: int
    thread_id: int
    seq: int
    retained: bool
