"""Vectorized conflict kernels — the ``analysis_kernel=numpy`` backend.

The pure-Python analysis pass walks every candidate segment pair with an
interpreted happens-before query followed by three linear IntervalSet merges
(:func:`repro.core.analysis._conflict_ranges`).  This module reformulates the
same computation over flat sorted ``int64`` arrays:

* **Array layout** — each segment's read/write sets become three pairs of
  parallel arrays ``(los, his)``: the write set ``w``, the read set ``r`` and
  the precomputed union ``rw = r ∪ w``.  All are sorted by ``lo``, pairwise
  disjoint and non-adjacent (the same canonical form as
  :class:`repro.util.intervals.IntervalSet`), so
  ``s1.w ∩ (s2.r ∪ s2.w)`` is one ``searchsorted`` sweep instead of a Python
  merge loop.  Arrays are built once per segment and cached alongside the
  interval trees (:meth:`repro.core.segments.Segment.np_arrays`).
* **Batched happens-before** — a whole chunk of candidate pairs is filtered
  with one vectorized label comparison (when the order-maintenance index is
  exact) or one gather into a dense reachability matrix unpacked from the
  bitmask DP (when it is not).
* **Batched bounding-box prefilter** — pairs whose access-set hulls cannot
  overlap are dropped before any per-pair interval work.
* **Row output** — the conflicts leave the kernel as int64 rows
  ``(i, j, lo, hi)``, one per conflict piece, ready for
  :class:`repro.core.analysis.ConflictTable`; no per-pair object is built.

The Python kernel remains the oracle: for any input both kernels produce
byte-identical conflict sets (enforced by the parity tests and the fuzz
harness), so ``auto`` may pick either purely on performance grounds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs.metrics import get_registry
from repro.util.intervals import IntervalSet

try:  # pragma: no cover - exercised via both arms of the parity tests
    import numpy as _np
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - no-numpy environments
    _np = None
    HAVE_NUMPY = False

#: Below this many candidate pairs the fixed numpy call overhead outweighs
#: the vectorization win; ``analysis_kernel=auto`` stays on the Python loop.
AUTO_MIN_PAIRS = 32

#: Ceiling on the dense reachability matrix (segments with accesses): above
#: this the matrix is not materialized and ordering falls back to per-pair
#: queries inside the chunk loop.
MATRIX_MAX_SEGS = 4096

#: Each candidate pair's operand intervals are relocated into a private
#: ``1 << _WINDOW_SHIFT`` address window so one global sweep intersects every
#: pair at once.  Valid while guest addresses stay below the window size —
#: the simulated address space tops out under 2**47 (stack region base).
_WINDOW_SHIFT = 48

#: Pairs processed per batched sweep: bounds the window offsets well below
#: int64 overflow (``_PAIR_BATCH << _WINDOW_SHIFT`` must fit in 63 bits).
_PAIR_BATCH = 8192

#: conflict rows ``(i, j, lo, hi)``: four int64 columns of equal length
Rows = Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray", "_np.ndarray"]


# ---------------------------------------------------------------------------
# primitive sweeps over sorted disjoint (los, his) arrays
# ---------------------------------------------------------------------------

def _empty() -> Tuple["_np.ndarray", "_np.ndarray"]:
    z = _np.empty(0, dtype=_np.int64)
    return z, z


def _empty_rows() -> Rows:
    z = _np.empty(0, dtype=_np.int64)
    return z, z, z, z


def coalesce_arrays(los: "_np.ndarray", his: "_np.ndarray"
                    ) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Normalize arbitrary ``[lo, hi)`` arrays: sort, merge overlap/adjacency.

    Same canonical form as :class:`IntervalSet` (touching ranges coalesce),
    so a round trip through arrays preserves set equality.
    """
    n = los.shape[0]
    if n <= 1:
        return los, his
    order = _np.argsort(los, kind="stable")
    los = los[order]
    his = his[order]
    cummax = _np.maximum.accumulate(his)
    starts = _np.empty(n, dtype=bool)
    starts[0] = True
    _np.greater(los[1:], cummax[:-1], out=starts[1:])
    ends = _np.nonzero(_np.append(starts[1:], True))[0]
    return los[starts], cummax[ends]


def union_arrays(alos, ahis, blos, bhis):
    """``a ∪ b`` for two normalized interval arrays."""
    if not alos.shape[0]:
        return blos, bhis
    if not blos.shape[0]:
        return alos, ahis
    return coalesce_arrays(_np.concatenate((alos, blos)),
                           _np.concatenate((ahis, bhis)))


def intersect_arrays(alos, ahis, blos, bhis):
    """``a ∩ b`` for two normalized interval arrays (one searchsorted sweep).

    For each ``a`` interval the overlapping ``b`` window is
    ``[searchsorted(bhis, alo, right), searchsorted(blos, ahi, left))``;
    expanding the windows with ``repeat`` yields every overlap pair at once.
    The result is already normalized (gaps in either operand separate the
    output pieces).
    """
    if not alos.shape[0] or not blos.shape[0]:
        return _empty()
    first = _np.searchsorted(bhis, alos, side="right")
    last = _np.searchsorted(blos, ahis, side="left")
    counts = last - first
    total = int(counts.sum())
    if total == 0:
        return _empty()
    a_idx = _np.repeat(_np.arange(alos.shape[0]), counts)
    offsets = _np.repeat(_np.cumsum(counts) - counts - first, counts)
    b_idx = _np.arange(total) - offsets
    los = _np.maximum(alos[a_idx], blos[b_idx])
    his = _np.minimum(ahis[a_idx], bhis[b_idx])
    return los, his


def build_segment_arrays(rset: IntervalSet, wset: IntervalSet):
    """One segment's cached kernel operand: ``(w, r, rw)`` sorted arrays.

    Returns ``(w_los, w_his, r_los, r_his, rw_los, rw_his)``; the ``rw``
    union is precomputed here so the per-pair kernel never unions at query
    time.
    """
    w_los = _np.asarray(wset._los, dtype=_np.int64)
    w_his = _np.asarray(wset._his, dtype=_np.int64)
    r_los = _np.asarray(rset._los, dtype=_np.int64)
    r_his = _np.asarray(rset._his, dtype=_np.int64)
    rw_los, rw_his = union_arrays(r_los, r_his, w_los, w_his)
    return (w_los, w_his, r_los, r_his, rw_los, rw_his)


def conflict_ranges_arrays(a1, a2) -> Optional[IntervalSet]:
    """``(w1 ∩ rw2) ∪ (w2 ∩ r1)`` over two segments' cached arrays.

    Byte-identical to :func:`repro.core.analysis._conflict_ranges`; returns
    ``None`` instead of an empty set so the hot caller can branch cheaply.
    """
    w1_los, w1_his = a1[0], a1[1]
    w2_los, w2_his = a2[0], a2[1]
    p1_los, p1_his = intersect_arrays(w1_los, w1_his, a2[4], a2[5])
    p2_los, p2_his = intersect_arrays(w2_los, w2_his, a1[2], a1[3])
    los, his = union_arrays(p1_los, p1_his, p2_los, p2_his)
    if not los.shape[0]:
        return None
    out = IntervalSet()
    out._los = los.tolist()
    out._his = his.tolist()
    return out


# ---------------------------------------------------------------------------
# per-pass context: spans + batched happens-before backing
# ---------------------------------------------------------------------------

class _Pool:
    """Every segment's intervals of one kind, concatenated once.

    ``los``/``his`` hold segment ``k``'s intervals at
    ``[starts[k], starts[k] + lens[k])``; a batched sweep *gathers* the
    operand arrays for a whole pair list with fancy indexing instead of one
    numpy call per pair.
    """

    __slots__ = ("los", "his", "starts", "lens")

    def __init__(self, seg_los: List, seg_his: List) -> None:
        self.lens = _np.asarray([a.shape[0] for a in seg_los],
                                dtype=_np.int64)
        self.starts = _np.cumsum(self.lens) - self.lens
        self.los = (_np.concatenate(seg_los) if seg_los
                    else _np.empty(0, dtype=_np.int64))
        self.his = (_np.concatenate(seg_his) if seg_his
                    else _np.empty(0, dtype=_np.int64))

    def gather(self, sel: "_np.ndarray", offsets: "_np.ndarray"):
        """Concatenate the selected segments' intervals, each pair's shifted
        into its window: ``(los, his, per-element repeat counts)``."""
        lens = self.lens[sel]
        total = int(lens.sum())
        if total == 0:
            return _empty()
        span = _np.cumsum(lens) - lens
        idx = (_np.arange(total) - _np.repeat(span, lens)
               + _np.repeat(self.starts[sel], lens))
        off = _np.repeat(offsets, lens)
        return self.los[idx] + off, self.his[idx] + off


class KernelContext:
    """Immutable per-pass state shared by every chunk of one analysis run.

    Built single-threaded before the (possibly parallel) pair sweep so chunk
    workers only read.  Holds the pooled per-segment interval arrays, the
    segment hull arrays for the bounding-box prefilter, and whichever batched
    happens-before backing applies:

    * exact order-maintenance labels → two gathered ``int64`` arrays;
    * bitmask DP → a dense boolean matrix ``ordered[i, j]`` unpacked from
      the big-int reachability masks (only when the segment count is small
      enough to justify it);
    * neither → per-pair :meth:`SegmentGraph.ordered` fallback.

    The tier reached is ``hb_tier`` (``label|matrix|per_pair``, also the
    ``analysis.hb_tier`` gauge); a label snapshot that overflows int64 and
    a matrix skipped for size book ``analysis.hb.label_overflow`` and
    ``analysis.hb.matrix_skipped``.
    """

    def __init__(self, graph, segs: Sequence) -> None:
        self.graph = graph
        self.segs = segs
        n = len(segs)
        w_lo = [0] * n
        w_hi = [0] * n
        r_lo = [0] * n
        r_hi = [0] * n
        w_los: List = [None] * n
        w_his: List = [None] * n
        r_los: List = [None] * n
        r_his: List = [None] * n
        rw_los: List = [None] * n
        rw_his: List = [None] * n
        for k, seg in enumerate(segs):
            arr = seg.np_arrays()
            w_los[k], w_his[k], r_los[k], r_his[k], rw_los[k], rw_his[k] = arr
            # (1, 0) sentinel hull for an empty set: overlaps nothing
            w_lo[k], w_hi[k] = ((int(arr[0][0]), int(arr[1][-1]))
                                if arr[0].shape[0] else (1, 0))
            r_lo[k], r_hi[k] = ((int(arr[2][0]), int(arr[3][-1]))
                                if arr[2].shape[0] else (1, 0))
        self.w_pool = _Pool(w_los, w_his)
        self.r_pool = _Pool(r_los, r_his)
        self.rw_pool = _Pool(rw_los, rw_his)
        self.w_lo = _np.asarray(w_lo, dtype=_np.int64)
        self.w_hi = _np.asarray(w_hi, dtype=_np.int64)
        self.r_lo = _np.asarray(r_lo, dtype=_np.int64)
        self.r_hi = _np.asarray(r_hi, dtype=_np.int64)
        # rw hull = hull of the non-sentinel hulls
        w_real = self.w_lo < self.w_hi
        r_real = self.r_lo < self.r_hi
        both = w_real & r_real
        self.rw_lo = _np.where(both, _np.minimum(self.w_lo, self.r_lo),
                               _np.where(w_real, self.w_lo, self.r_lo))
        self.rw_hi = _np.where(both, _np.maximum(self.w_hi, self.r_hi),
                               _np.where(w_real, self.w_hi, self.r_hi))
        # the window relocation trick needs every address under one window
        top = 0
        for pool in (self.w_pool, self.r_pool):
            if pool.his.shape[0]:
                top = max(top, int(pool.his.max()))
        self._batched = top < (1 << _WINDOW_SHIFT)
        self._e = self._h = None
        self._matrix = None
        if self._snapshot_labels():
            self.hb_tier = "label"
        elif self._build_matrix():
            self.hb_tier = "matrix"
        else:
            self.hb_tier = "per_pair"
        get_registry().gauge("analysis.hb_tier").set(self.hb_tier)

    def _snapshot_labels(self) -> bool:
        graph = self.graph
        labs = graph._hb_labels
        if labs is None or graph.hb_mode != "auto":
            return False
        e, h = labs
        evals = [e[s.id] for s in self.segs]
        if any(v is None for v in evals):
            return False
        try:
            # order-maintenance labels are arbitrary-precision ints; deep
            # graphs (fib) overflow int64 and fall back to the matrix/per-
            # pair paths, which only compare — never convert — the labels
            self._e = _np.asarray(evals, dtype=_np.int64)
            self._h = _np.asarray([h[s.id] for s in self.segs],
                                  dtype=_np.int64)
        except OverflowError:
            self._e = self._h = None
            get_registry().counter("analysis.hb.label_overflow").inc()
            return False
        return True

    def _build_matrix(self) -> bool:
        if len(self.segs) > MATRIX_MAX_SEGS:
            get_registry().counter("analysis.hb.matrix_skipped").inc()
            return False
        reach = self.graph._reachability()
        n_global = len(reach)
        nbytes = (n_global + 7) // 8 or 1
        ids = [s.id for s in self.segs]
        rows = _np.empty((len(ids), n_global), dtype=bool)
        for k, sid in enumerate(ids):
            bits = _np.unpackbits(
                _np.frombuffer(reach[sid].to_bytes(nbytes, "little"),
                               dtype=_np.uint8),
                bitorder="little")
            rows[k] = bits[:n_global]
        sub = rows[:, ids]                      # reach[i] restricted to segs
        self._matrix = sub | sub.T              # ordered in either direction
        return True

    def ordered_mask(self, ii: "_np.ndarray", jj: "_np.ndarray"
                     ) -> Optional["_np.ndarray"]:
        """Batched ``graph.ordered`` over pair index arrays (None = no
        batched backing; caller falls back to per-pair queries)."""
        graph = self.graph
        if self._e is not None:
            graph.q_label += ii.shape[0]
            return ((self._e[ii] < self._e[jj])
                    == (self._h[ii] < self._h[jj]))
        if self._matrix is not None:
            graph.q_dp += ii.shape[0]
            return self._matrix[ii, jj]
        return None

    def check_pairs(self, pairs: Sequence[Tuple[int, int]]
                    ) -> Tuple[Rows, int]:
        """One chunk of the pair sweep: ``((i, j, lo, hi), ordered)``.

        The conflicts come back as four int64 row columns, one row per
        conflict piece: a pair's pieces are contiguous and ascending, pairs
        follow input order.  Produces exactly the conflicts the Python loop
        would: the batched ordered mask and hull prefilter only remove
        pairs whose result is known (ordered, or provably disjoint hulls).
        """
        if not pairs:
            return _empty_rows(), 0
        idx = _np.asarray(pairs, dtype=_np.int64)
        ii, jj = idx[:, 0], idx[:, 1]
        omask = self.ordered_mask(ii, jj)
        if omask is None:
            graph, segs = self.graph, self.segs
            omask = _np.fromiter(
                (graph.ordered(segs[int(i)], segs[int(j)]) for i, j in pairs),
                dtype=bool, count=len(pairs))
        n_ordered = int(omask.sum())
        unordered = ~omask
        # hull prefilter: a conflict needs w1 to meet rw2 or w2 to meet r1
        i_u, j_u = ii[unordered], jj[unordered]
        hit = (((self.w_lo[i_u] < self.rw_hi[j_u])
                & (self.rw_lo[j_u] < self.w_hi[i_u]))
               | ((self.w_lo[j_u] < self.r_hi[i_u])
                  & (self.r_lo[i_u] < self.w_hi[j_u])))
        i_h, j_h = i_u[hit], j_u[hit]
        if not self._batched:
            cols: Tuple[List[int], ...] = ([], [], [], [])
            segs = self.segs
            for i, j in zip(i_h.tolist(), j_h.tolist()):
                ranges = conflict_ranges_arrays(segs[i].np_arrays(),
                                                segs[j].np_arrays())
                if ranges is not None:
                    n = len(ranges)
                    cols[0].extend([i] * n)
                    cols[1].extend([j] * n)
                    cols[2].extend(ranges._los)
                    cols[3].extend(ranges._his)
            return tuple(_np.asarray(c, dtype=_np.int64)
                         for c in cols), n_ordered
        blocks = [self._conflicts_batch(i_h[start:start + _PAIR_BATCH],
                                        j_h[start:start + _PAIR_BATCH])
                  for start in range(0, i_h.shape[0], _PAIR_BATCH)]
        if not blocks:
            return _empty_rows(), n_ordered
        return tuple(_np.concatenate(col) for col in zip(*blocks)), n_ordered

    def _conflicts_batch(self, bi: "_np.ndarray", bj: "_np.ndarray") -> Rows:
        """Conflict rows of ``(w1 ∩ rw2) ∪ (w2 ∩ r1)`` for every pair in
        one sweep.

        Pair ``k``'s operands are relocated into window ``k << 48``; windows
        are disjoint and ordered, so the pooled arrays stay sorted, the
        global intersect/union sweeps never mix pairs, and the owning pair
        of each output interval is just ``lo >> 48``.
        """
        offsets = _np.arange(bi.shape[0], dtype=_np.int64) << _WINDOW_SHIFT
        p1 = intersect_arrays(*self.w_pool.gather(bi, offsets),
                              *self.rw_pool.gather(bj, offsets))
        p2 = intersect_arrays(*self.w_pool.gather(bj, offsets),
                              *self.r_pool.gather(bi, offsets))
        los, his = union_arrays(*p1, *p2)
        pair_pos = los >> _WINDOW_SHIFT
        base = pair_pos << _WINDOW_SHIFT
        return bi[pair_pos], bj[pair_pos], los - base, his - base


def resolve_kernel(kernel: str, graph, n_pairs: int) -> str:
    """Map the ``analysis_kernel`` knob to the kernel actually used.

    ``auto`` picks numpy only when it is importable, the pair count clears
    :data:`AUTO_MIN_PAIRS`, and the graph is not in ``checked`` happens-before
    mode (whose whole point is the per-query index-vs-DP cross-check the
    batched mask would skip).  An explicit ``numpy`` request degrades to
    ``python`` gracefully when numpy is absent.
    """
    if kernel not in ("auto", "numpy", "python"):
        raise ValueError(f"unknown analysis_kernel {kernel!r} "
                         "(expected auto|numpy|python)")
    if kernel == "python":
        return "python"
    if not HAVE_NUMPY or graph.hb_mode == "checked":
        return "python"
    if kernel == "auto" and n_pairs < AUTO_MIN_PAIRS:
        return "python"
    return "numpy"
