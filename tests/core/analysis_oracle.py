"""The pure-Python candidate-pair sweep, kept as a test oracle.

:meth:`repro.core.npkernel.KernelContext.candidate_pairs` finds Algorithm
1's candidate pairs with array operations.  This module keeps the
straightforward sweep it replaced — every access interval sorted by
address, an active list pruned by end address — so tests can check that
the two produce the same pair set.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.core.segments import Segment


def write_index(segs: Sequence[Segment]) -> List[Tuple[int, int, int, bool]]:
    """Flatten every access interval into (lo, hi, seg_index, is_write)."""
    events: List[Tuple[int, int, int, bool]] = []
    for idx, seg in enumerate(segs):
        for iv in seg.writes:
            events.append((iv.lo, iv.hi, idx, True))
        for iv in seg.reads:
            events.append((iv.lo, iv.hi, idx, False))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def candidate_pairs(segs: Sequence[Segment]) -> Set[Tuple[int, int]]:
    """Segment index pairs that share at least one byte with >=1 write.

    Sweep over sorted intervals with an active set pruned by end address.
    """
    events = write_index(segs)
    pairs: Set[Tuple[int, int]] = set()
    active: List[Tuple[int, int, int, bool]] = []     # (hi, lo, idx, is_write)
    for lo, hi, idx, is_write in events:
        active = [a for a in active if a[0] > lo]     # drop non-overlapping
        for ahi, alo, aidx, awrite in active:
            if aidx != idx and (is_write or awrite):
                pairs.add((aidx, idx) if aidx < idx else (idx, aidx))
        active.append((hi, lo, idx, is_write))
    return pairs
