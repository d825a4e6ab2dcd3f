"""Vectorized Algorithm 1 — candidate sweep, batched HB and conflict kernel.

The pure-Python analysis pass walks every candidate segment pair with an
interpreted happens-before query followed by three linear IntervalSet merges
(:func:`repro.core.analysis._conflict_ranges`).  This module reformulates the
whole pass over flat sorted ``int64`` arrays, so no Python object is built
per candidate pair:

* **Pools** — every segment's write set and read set are concatenated into
  two pools (:class:`_Pool`) straight from the segments' flat
  :class:`~repro.util.intervals.IntervalSet` lists, one ``np.asarray`` per
  column.  A segment's intervals keep the canonical sorted, disjoint,
  non-adjacent form, so ``s1.w ∩ s2.r`` is one ``searchsorted`` sweep
  instead of a Python merge loop.
* **Candidate sweep** — all pooled intervals sorted by ``lo``; interval
  ``k`` overlaps exactly the later intervals ``m`` with ``lo[m] < hi[k]``,
  a contiguous range found by one ``searchsorted``.  The ranges are
  expanded in blocks of at most :data:`_SWEEP_BLOCK` interval pairs, and
  the segment pairs are encoded as ``i * n + j`` and deduplicated by sort
  plus adjacent difference.  The output is two index arrays ``(ii, jj)``
  sorted by ``(i, j)``.
* **Batched happens-before** — a whole chunk of candidate pairs is filtered
  with one vectorized comparison of dense E/H label *ranks* (when the
  order-maintenance index is exact) or one gather into a dense
  reachability matrix unpacked from the bitmask DP (when it is not).
* **Row output** — the conflicts leave the kernel as int64 rows
  ``(i, j, lo, hi)``, one per conflict piece, ready for
  :class:`repro.core.analysis.ConflictTable`.

This is the only pair check the analysis runs.  The per-pair
Python loop it replaced lives on as a test oracle
(``tests/core/analysis_oracle.py``); the parity tests and the fuzz corpus
hold the kernel to byte-identical conflict sets against it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.obs.metrics import get_registry
from repro.util.intervals import IntervalSet

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

#: Interval pairs expanded per block of the candidate sweep: bounds the
#: sweep's temporaries to a few MB however many intervals share bytes.
_SWEEP_BLOCK = 1 << 16

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


def _sorted_unique(x: "_np.ndarray") -> "_np.ndarray":
    """``np.unique`` by an in-place sort of ``x`` plus adjacent difference
    (numpy's hash-based ``unique`` is an order of magnitude slower on
    these int64 codes, and a copy would double the peak)."""
    x.sort()
    keep = _np.empty(x.shape[0], dtype=bool)
    keep[:1] = True
    _np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _ranks(labels: List[int]) -> "_np.ndarray":
    """Dense ``int64`` ranks of distinct labels of any width:
    ``ranks[a] < ranks[b]`` iff ``labels[a] < labels[b]``."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    ranks = _np.empty(len(labels), dtype=_np.int64)
    ranks[order] = _np.arange(len(labels), dtype=_np.int64)
    return ranks


# ---------------------------------------------------------------------------
# per-pass context: pools, candidate sweep, batched happens-before backing
# ---------------------------------------------------------------------------

class _Pool:
    """Every segment's intervals of one kind, concatenated once.

    ``los``/``his`` hold segment ``k``'s intervals at
    ``[starts[k], starts[k] + lens[k])``; a batched sweep *gathers* the
    operand arrays for a whole pair list with fancy indexing instead of one
    numpy call per pair.
    """

    __slots__ = ("los", "his", "starts", "lens")

    def __init__(self, sets: Sequence[IntervalSet]) -> None:
        los: List[int] = []
        his: List[int] = []
        for s in sets:
            los += s._los
            his += s._his
        self.los = _np.asarray(los, dtype=_np.int64)
        self.his = _np.asarray(his, dtype=_np.int64)
        self.lens = _np.asarray([len(s._los) for s in sets], dtype=_np.int64)
        self.starts = _np.cumsum(self.lens) - self.lens

    def gather(self, sel: "_np.ndarray", offsets: "_np.ndarray"):
        """Concatenate the selected segments' intervals, each pair's shifted
        into its window: ``(los, his)``."""
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
    """Per-pass state shared by every chunk of one analysis run.

    Built and prepared single-threaded before the (possibly parallel) pair
    sweep, so chunk workers only read.  Construction pools the segments'
    write and read intervals (:class:`_Pool`); :meth:`candidate_pairs`
    sweeps the pools for the pairs Algorithm 1 must check.
    :meth:`prepare_hb` then builds whichever batched happens-before backing
    applies for :meth:`check_pairs`:

    * exact order-maintenance labels → two dense ``int64`` rank arrays;
    * bitmask DP → a dense boolean matrix ``ordered[i, j]`` unpacked from
      the big-int reachability masks (only when the segment count is small
      enough to justify it);
    * neither → per-pair :meth:`SegmentGraph.ordered` fallback.

    The tier reached is ``hb_tier`` (``label|matrix|per_pair``, also the
    ``analysis.hb_tier`` gauge); a matrix skipped for size books
    ``analysis.hb.matrix_skipped``.  Addresses at or above ``2**48`` leave
    the batched intersection; :meth:`check_pairs` then intersects pair by
    pair and books those pairs as ``analysis.intersect.unbatched_pairs``.
    """

    def __init__(self, graph, segs: Sequence) -> None:
        self.graph = graph
        self.segs = segs
        self.w_pool = _Pool([seg.writes for seg in segs])
        self.r_pool = _Pool([seg.reads for seg in segs])
        # the window relocation trick needs every address under one window
        top = max((int(pool.his.max()) for pool in (self.w_pool, self.r_pool)
                   if pool.his.shape[0]), default=0)
        self._batched = top < (1 << _WINDOW_SHIFT)
        self.hb_tier: Optional[str] = None
        self._e = self._h = None
        self._matrix = None

    def candidate_pairs(self) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Segment index pairs sharing at least one byte with >= 1 write.

        ``(ii, jj)`` with ``ii < jj``, sorted by ``(i, j)``.  Every pooled
        interval sorted by ``lo``: interval ``k`` overlaps exactly the
        later intervals ``m`` with ``lo[m] < hi[k]``, so its partners are
        the contiguous range ``(k, end[k])``.  The ranges are expanded
        :data:`_SWEEP_BLOCK` interval pairs at a time — one long interval
        spanning many short ones is split across blocks too — so the
        temporaries stay bounded whatever the overlap depth; only the
        deduplicated pair codes accumulate.
        """
        n = len(self.segs)
        w, r = self.w_pool, self.r_pool
        lo = _np.concatenate((w.los, r.los))
        if not lo.shape[0]:
            return _empty()
        hi = _np.concatenate((w.his, r.his))
        idx = _np.arange(n, dtype=_np.int64)
        seg = _np.concatenate((_np.repeat(idx, w.lens),
                               _np.repeat(idx, r.lens)))
        order = _np.argsort(lo, kind="stable")
        is_write = order < w.los.shape[0]
        lo, hi, seg = lo[order], hi[order], seg[order]
        end = _np.searchsorted(lo, hi, side="left")
        # interval pair p belongs to interval k with cum[k-1] <= p < cum[k]
        counts = end - _np.arange(1, lo.shape[0] + 1)
        cum = _np.cumsum(counts)
        first = cum - counts
        total = int(cum[-1])
        codes = []
        for p0 in range(0, total, _SWEEP_BLOCK):
            p = _np.arange(p0, min(p0 + _SWEEP_BLOCK, total),
                           dtype=_np.int64)
            k = _np.searchsorted(cum, p, side="right")
            m = k + 1 + (p - first[k])
            a, b = seg[k], seg[m]
            keep = (a != b) & (is_write[k] | is_write[m])
            a, b = a[keep], b[keep]
            codes.append(_sorted_unique(_np.minimum(a, b) * n
                                        + _np.maximum(a, b)))
        if not codes:
            return _empty()
        code = _np.concatenate(codes)
        del codes                       # peak: one copy of the pair codes
        code = _sorted_unique(code)
        ii = code // n
        code %= n                       # jj reuses the codes' buffer
        return ii, code

    # -- batched happens-before ---------------------------------------------

    def prepare_hb(self) -> str:
        """Build the batched happens-before backing; returns the tier."""
        if self._snapshot_ranks():
            self.hb_tier = "label"
        elif self._build_matrix():
            self.hb_tier = "matrix"
        else:
            self.hb_tier = "per_pair"
        get_registry().gauge("analysis.hb_tier").set(self.hb_tier)
        return self.hb_tier

    def _snapshot_ranks(self) -> bool:
        graph = self.graph
        labs = graph._hb_labels
        if labs is None:
            return False
        e, h = labs
        ids = [s.id for s in self.segs]
        evals = [e[sid] for sid in ids]
        if any(v is None for v in evals):
            return False
        # order-maintenance labels are arbitrary-precision ints (fib's are
        # 72 bits wide), but queries only compare them: dense ranks over
        # the analysed segments answer every query and always fit int64
        self._e = _ranks(evals)
        self._h = _ranks([h[sid] for sid in ids])
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

    # -- the pair check -------------------------------------------------------

    def check_pairs(self, ii: "_np.ndarray", jj: "_np.ndarray"
                    ) -> Tuple[Rows, int]:
        """One chunk of the pair sweep: ``((i, j, lo, hi), ordered)``.

        ``ii``/``jj`` index ``segs``, in any order; without
        :meth:`prepare_hb` every pair takes a per-pair ``graph.ordered``
        query.  The conflicts come back as four int64 row columns, one row
        per conflict piece: a pair's pieces are contiguous and ascending,
        pairs follow input order.  Produces exactly the conflicts the Python
        loop would: the batched ordered mask only removes ordered pairs.
        """
        if not ii.shape[0]:
            return _empty_rows(), 0
        omask = self.ordered_mask(ii, jj)
        if omask is None:
            graph, segs = self.graph, self.segs
            omask = _np.fromiter(
                (graph.ordered(segs[i], segs[j])
                 for i, j in zip(ii.tolist(), jj.tolist())),
                dtype=bool, count=ii.shape[0])
        n_ordered = int(omask.sum())
        unordered = ~omask
        i_u, j_u = ii[unordered], jj[unordered]
        if not self._batched:
            from repro.core.analysis import _conflict_ranges
            get_registry().counter("analysis.intersect.unbatched_pairs").inc(
                i_u.shape[0])
            cols: Tuple[List[int], ...] = ([], [], [], [])
            segs = self.segs
            for i, j in zip(i_u.tolist(), j_u.tolist()):
                ranges = _conflict_ranges(segs[i], segs[j])
                n = len(ranges)
                cols[0].extend([i] * n)
                cols[1].extend([j] * n)
                cols[2].extend(ranges._los)
                cols[3].extend(ranges._his)
            return tuple(_np.asarray(c, dtype=_np.int64)
                         for c in cols), n_ordered
        blocks = [self._conflicts_batch(i_u[start:start + _PAIR_BATCH],
                                        j_u[start:start + _PAIR_BATCH])
                  for start in range(0, i_u.shape[0], _PAIR_BATCH)]
        if not blocks:
            return _empty_rows(), n_ordered
        return tuple(_np.concatenate(col) for col in zip(*blocks)), n_ordered

    def _conflicts_batch(self, bi: "_np.ndarray", bj: "_np.ndarray") -> Rows:
        """Conflict rows of ``(w1 ∩ w2) ∪ (w1 ∩ r2) ∪ (w2 ∩ r1)`` for every
        pair in one sweep.

        Pair ``k``'s operands are relocated into window ``k << 48``; windows
        are disjoint and ordered, so the pooled arrays stay sorted, the
        global intersect/coalesce sweeps never mix pairs, and the owning
        pair of each output interval is just ``lo >> 48``.
        """
        offsets = _np.arange(bi.shape[0], dtype=_np.int64) << _WINDOW_SHIFT
        w1 = self.w_pool.gather(bi, offsets)
        w2 = self.w_pool.gather(bj, offsets)
        parts = (intersect_arrays(*w1, *w2),
                 intersect_arrays(*w1, *self.r_pool.gather(bj, offsets)),
                 intersect_arrays(*w2, *self.r_pool.gather(bi, offsets)))
        los, his = coalesce_arrays(_np.concatenate([p[0] for p in parts]),
                                   _np.concatenate([p[1] for p in parts]))
        pair_pos = los >> _WINDOW_SHIFT
        base = pair_pos << _WINDOW_SHIFT
        return bi[pair_pos], bj[pair_pos], los - base, his - base

