"""Vectorized Algorithm 1 — candidate sweep, batched HB and conflict kernel.

The pure-Python analysis pass walks every candidate segment pair with an
interpreted happens-before query followed by three linear IntervalSet
merges.  This module reformulates the whole pass over flat sorted
``int64`` arrays, so no Python object is built per candidate pair:

* **Pools** — every segment's write set and read set are concatenated into
  two pools (:class:`_Pool`) straight from the segments' flat
  :class:`~repro.util.intervals.IntervalSet` lists, one ``np.asarray`` per
  column.  A segment's intervals keep the canonical sorted, disjoint,
  non-adjacent form, so ``s1.w ∩ s2.r`` is one ``searchsorted`` sweep
  instead of a Python merge loop.  The pools hold each endpoint as its
  *rank* among all distinct endpoints (:attr:`KernelContext.coords`): the
  sweeps only compare endpoints, and a strictly monotone map keeps every
  ``<`` and ``==``, so ranks give the same answers as addresses while
  staying small whatever the addresses are.
* **Candidate sweep** — all pooled intervals sorted by ``lo``; interval
  ``k`` overlaps exactly the later intervals ``m`` with ``lo[m] < hi[k]``,
  a contiguous range found by one ``searchsorted``.  Intervals the
  Section IV-D rule classes local to their segment
  (:meth:`repro.core.suppress.SuppressionEngine.stack_local`) pair only
  with non-local ones, so a segment pair sharing bytes only between
  local intervals is never checked.  The ranges are expanded in blocks
  of at most :data:`_SWEEP_BLOCK` interval pairs, and the segment pairs
  are encoded as ``i * n + j`` and deduplicated by sort plus adjacent
  difference.  The output is two index arrays ``(ii, jj)`` sorted by
  ``(i, j)``.
* **Batched happens-before** — a whole chunk of candidate pairs is filtered
  with one bit test per pair in packed reachability rows copied from the
  graph's bitmask DP, the one happens-before answer every run uses.
* **Row output** — the conflicts leave the kernel as int64 rows
  ``(i, j, lo, hi)``, one per conflict piece, their ranks mapped back to
  addresses, ready for :class:`repro.core.analysis.ConflictTable`.

This is the only pair check the analysis runs.  The per-pair
Python loop it replaced lives on as a test oracle
(``tests/core/analysis_oracle.py``); the parity tests and the fuzz corpus
hold the kernel to byte-identical conflict sets against it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as _np

from repro.util.intervals import IntervalSet

#: Each candidate pair's operand intervals, as endpoint ranks, are relocated
#: into a private ``1 << _WINDOW_SHIFT`` window so one global sweep
#: intersects every pair at once.  A rank counts distinct endpoints, so it
#: stays below the window size for any address (pools under 2**47 intervals).
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


def _expand(src, base, counts, target):
    """Interval pairs ``(k, m)`` in blocks of at most :data:`_SWEEP_BLOCK`:
    interval ``src[s]`` meets ``target[base[s] + t]`` (``base[s] + t``
    when ``target`` is ``None``) for every ``t < counts[s]``."""
    cum = _np.cumsum(counts)
    total = int(cum[-1]) if cum.shape[0] else 0
    first = cum - counts
    for p0 in range(0, total, _SWEEP_BLOCK):
        p = _np.arange(p0, min(p0 + _SWEEP_BLOCK, total), dtype=_np.int64)
        s = _np.searchsorted(cum, p, side="right")
        m = base[s] + (p - first[s])
        yield src[s], (m if target is None else target[m])


def _sorted_unique(x: "_np.ndarray") -> "_np.ndarray":
    """``np.unique`` by an in-place sort of ``x`` plus adjacent difference
    (numpy's hash-based ``unique`` is an order of magnitude slower on
    these int64 codes, and a copy would double the peak)."""
    x.sort()
    keep = _np.empty(x.shape[0], dtype=bool)
    keep[:1] = True
    _np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


# ---------------------------------------------------------------------------
# per-pass context: pools, candidate sweep, batched happens-before backing
# ---------------------------------------------------------------------------

class _Pool:
    """Every segment's intervals of one kind, concatenated once.

    ``los``/``his`` hold segment ``k``'s intervals at
    ``[starts[k], starts[k] + lens[k])``, as endpoint ranks once
    :class:`KernelContext` has mapped them; a batched sweep *gathers* the
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

    Built and prepared before the pair check, whose worker thread only
    reads it.  Construction pools the segments'
    write and read intervals (:class:`_Pool`), has ``engine`` (a
    :class:`~repro.core.suppress.SuppressionEngine`, if any) class each one
    stack-local or not, and maps the pools to ranks into ``coords``, the
    sorted distinct endpoints; :meth:`candidate_pairs` sweeps the pools for
    the pairs Algorithm 1 must check.  :meth:`prepare_hb` then packs each
    analysed segment's bitmask DP row into one ``uint8`` buffer of
    ``⌈n/8⌉`` bytes per segment, the happens-before backing
    :meth:`check_pairs` reads.
    """

    def __init__(self, graph, segs: Sequence, engine=None) -> None:
        self.graph = graph
        self.segs = segs
        self.w_pool = w = _Pool([seg.writes for seg in segs])
        self.r_pool = r = _Pool([seg.reads for seg in segs])
        idx = _np.arange(len(segs), dtype=_np.int64)
        #: each pooled interval's segment, writes first
        self.seg = _np.concatenate((_np.repeat(idx, w.lens),
                                    _np.repeat(idx, r.lens)))
        #: which pooled intervals ``engine``'s stack rule classes local
        #: (none without an engine), judged on addresses before the pools
        #: become ranks
        self.local = (_np.zeros(self.seg.shape[0], dtype=bool)
                      if engine is None else engine.stack_local(
                          segs, self.seg, _np.concatenate((w.los, r.los)),
                          _np.concatenate((w.his, r.his))))
        # the sweeps only compare endpoints, so ranks answer like addresses
        # and fit a pair's window whatever the addresses are
        pools = (w, r)
        self.coords = _sorted_unique(_np.concatenate(
            [col for pool in pools for col in (pool.los, pool.his)]))
        for pool in pools:
            pool.los = _np.searchsorted(self.coords, pool.los)
            pool.his = _np.searchsorted(self.coords, pool.his)

    def candidate_pairs(self) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Segment index pairs sharing at least one byte with >= 1 write,
        outside local × local interval overlaps.

        ``(ii, jj)`` with ``ii < jj``, sorted by ``(i, j)``.  Every pooled
        interval sorted by ``lo``: interval ``k`` overlaps exactly the
        later intervals ``m`` with ``lo[m] < hi[k]``, so its partners are
        the contiguous range ``(k, end[k])``.  Two streams enumerate them:
        a non-local interval meets all of its partners, a local one only
        the non-local ones, found by one ``searchsorted`` over the
        non-local ``lo``s.  Bytes two local intervals share lie in frames
        both segments pushed, which Section IV-D suppresses, so a pair
        that shares no other bytes is never checked; every other pair is
        checked on its full access sets.  Each stream is expanded
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
        order = _np.argsort(lo, kind="stable")
        is_write = order < w.los.shape[0]
        lo, hi, seg = lo[order], hi[order], self.seg[order]
        end = _np.searchsorted(lo, hi, side="left")
        local = self.local[order]
        # a non-local interval meets all its partners; a local one only
        # the non-local ones, from the first non-local interval after it
        far = _np.flatnonzero(~local)
        near = _np.flatnonzero(local)
        first = _np.searchsorted(far, near, side="right")
        last = _np.searchsorted(lo[far], hi[near], side="left")
        streams = ((far, far + 1, end[far] - far - 1, None),
                   (near, first, last - first, far))
        codes = []
        for src, base, counts, target in streams:
            for k, m in _expand(src, base, counts, target):
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

    def prepare_hb(self) -> None:
        """Copy each analysed segment's DP descendant bitmask into row ``k``
        of one flat ``uint8`` buffer: bit ``sid & 7`` of byte
        ``k * nbytes + (sid >> 3)`` is set iff segment ``sid`` descends
        from ``segs[k]``.  Builds the DP if no query has yet; the rows are
        no larger than the DP they are copied from."""
        reach = self.graph._reachability()
        self._nbytes = nbytes = (len(reach) + 7) // 8
        self._rows = _np.frombuffer(
            b"".join(reach[s.id].to_bytes(nbytes, "little")
                     for s in self.segs), dtype=_np.uint8)
        ids = _np.asarray([s.id for s in self.segs], dtype=_np.int64)
        self._col = ids >> 3
        self._bit = (1 << (ids & 7)).astype(_np.uint8)

    def ordered_mask(self, ii: "_np.ndarray", jj: "_np.ndarray"
                     ) -> "_np.ndarray":
        """Batched ``graph.ordered`` over pair index arrays (after
        :meth:`prepare_hb`)."""
        self.graph.q_dp += ii.shape[0]
        # ids are not topological, so either segment may be the ancestor:
        # bit j of row i or bit i of row j
        rows, nbytes = self._rows, self._nbytes
        hit = rows.take(ii * nbytes + self._col[jj]) & self._bit[jj]
        hit |= rows.take(jj * nbytes + self._col[ii]) & self._bit[ii]
        return hit.astype(bool)

    # -- the pair check -------------------------------------------------------

    def check_pairs(self, ii: "_np.ndarray", jj: "_np.ndarray"
                    ) -> Tuple[Rows, int]:
        """One chunk of the pair sweep: ``((i, j, lo, hi), ordered)``.

        ``ii``/``jj`` index ``segs``, in any order, after
        :meth:`prepare_hb`.  The conflicts come back as four int64 row
        columns, one row per conflict piece: a pair's pieces are contiguous
        and ascending, pairs follow input order.  Produces exactly the
        conflicts the Python loop would: the batched ordered mask only
        removes ordered pairs.
        """
        if not ii.shape[0]:
            return _empty_rows(), 0
        omask = self.ordered_mask(ii, jj)
        n_ordered = int(omask.sum())
        unordered = ~omask
        i_u, j_u = ii[unordered], jj[unordered]
        blocks = [self._conflicts_batch(i_u[start:start + _PAIR_BATCH],
                                        j_u[start:start + _PAIR_BATCH])
                  for start in range(0, i_u.shape[0], _PAIR_BATCH)]
        if not blocks:
            return _empty_rows(), n_ordered
        return tuple(_np.concatenate(col) for col in zip(*blocks)), n_ordered

    def _conflicts_batch(self, bi: "_np.ndarray", bj: "_np.ndarray") -> Rows:
        """Conflict rows of ``(w1 ∩ w2) ∪ (w1 ∩ r2) ∪ (w2 ∩ r1)`` for every
        pair in one sweep.

        Pair ``k``'s operand ranks are relocated into window ``k << 48``;
        windows are disjoint and ordered, so the pooled arrays stay sorted,
        the global intersect/coalesce sweeps never mix pairs, and the
        owning pair of each output interval is just ``lo >> 48``.
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
        return (bi[pair_pos], bj[pair_pos],
                self.coords[los - base], self.coords[his - base])
