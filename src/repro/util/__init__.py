"""Shared low-level utilities for the Taskgrind reproduction.

Submodules
----------
chunks
    The checksummed JSONL chunk framing every saved or streamed document
    shares: envelope and CRC checks, the writer, the atomic save.
intervals
    Half-open integer interval algebra (:class:`~repro.util.intervals.Interval`,
    :class:`~repro.util.intervals.IntervalSet`).
rng
    Seeded, named random streams so every simulated schedule is reproducible.
tables
    Plain-text table rendering for the benchmark harnesses.
"""

from repro.util.intervals import Interval, IntervalSet

__all__ = ["Interval", "IntervalSet"]
