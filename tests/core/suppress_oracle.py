"""The per-candidate Section IV suppression predicate, kept as a test oracle.

:meth:`repro.core.suppress.SuppressionEngine.filter_all` classifies a whole
conflict table with array operations.  This module keeps the
straightforward form it replaced — look up each piece's region, apply the
IV-D stack rule to both segments, else the IV-C TLS rule — so tests can
check the two agree piece for piece: surviving candidates, every
``SuppressionStats`` field, and the profiler / tracer event sequence.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.analysis import RaceCandidate
from repro.core.segments import Segment
from repro.core.suppress import SuppressionEngine
from repro.machine.memory import RegionKind
from repro.obs.prof import get_profiler
from repro.obs.tracer import get_tracer
from repro.util.intervals import Interval, IntervalSet

_TRACER = get_tracer()
_PROF = get_profiler()


class ScalarSuppression:
    """Per-candidate suppression over ``engine``'s address space, config and
    stats (the engine's TLS check is shared: it is scalar in both)."""

    def __init__(self, engine: SuppressionEngine) -> None:
        self.engine = engine

    def filter_all(self, candidates: List[RaceCandidate]
                   ) -> List[RaceCandidate]:
        out = []
        for cand in candidates:
            kept = self.filter_candidate(cand)
            if kept is not None:
                out.append(kept)
        return out

    def filter_candidate(self, cand: RaceCandidate
                         ) -> Optional[RaceCandidate]:
        """The candidate with suppressed pieces removed; ``None`` when
        every conflicting byte was suppressed."""
        stats = self.engine.stats
        surviving = IntervalSet()
        for piece in cand.ranges:
            if self._piece_suppressed(piece, cand.s1, cand.s2):
                continue
            surviving.add(piece.lo, piece.hi)
        if not surviving:
            stats.fully_suppressed_pairs += 1
            if _PROF.enabled:
                _PROF.count("suppress.pair-dropped", cand.s1.label())
            return None
        stats.survived += 1
        if _PROF.enabled:
            _PROF.count("suppress.survived", cand.s1.label())
        return RaceCandidate(cand.s1, cand.s2, surviving)

    def _piece_suppressed(self, piece: Interval, s1: Segment,
                          s2: Segment) -> bool:
        engine = self.engine
        region = engine.space.region_at(piece.lo)
        if region is None:
            return False
        if region.kind == RegionKind.STACK and engine.config.suppress_stack:
            if self._stack_local(piece, s1, region) and \
                    self._stack_local(piece, s2, region):
                engine.stats.stack_suppressed += 1
                self._emit("suppress.stack", piece, s1, s2)
                return True
        if region.kind == RegionKind.TLS and engine.config.suppress_tls:
            if engine._tls_suppressed(piece.lo, piece.hi, s1, s2):
                engine.stats.tls_suppressed += 1
                self._emit("suppress.tls", piece, s1, s2)
                return True
        return False

    @staticmethod
    def _emit(name: str, piece: Interval, s1: Segment, s2: Segment) -> None:
        if _PROF.enabled:
            _PROF.count(name, s1.label())
        if _TRACER.enabled:
            _TRACER.instant(name, cat="suppress",
                            args={"lo": piece.lo, "hi": piece.hi,
                                  "s1": s1.id, "s2": s2.id})

    @staticmethod
    def _stack_local(piece: Interval, seg: Segment, region) -> bool:
        """Did ``seg`` only reach ``piece`` through frames it pushed itself?

        Stacks grow downward: an address *below* the stack pointer
        registered at segment start belongs to a frame created inside the
        segment.  The segment must also have executed on the thread owning
        the stack — otherwise it reached the bytes through a shared pointer
        and the conflict is real (TMB 1001-stack.1).
        """
        if region.owner_thread != seg.thread_id:
            return False
        lo, hi = seg.stack_bounds
        if not (lo <= piece.lo and piece.hi <= hi):
            return False
        return piece.hi <= seg.sp_at_start
