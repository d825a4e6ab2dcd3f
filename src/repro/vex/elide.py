"""Ahead-of-time access-site elision — Section IV decided before the run.

The runtime :class:`~repro.core.suppress.SuppressionEngine` pays per access
(record everything, filter conflicts post-mortem).  "Compiling Away the
Overhead of Race Detection"-style tools show most of that work is decidable
per *site*: an access whose target is provably private to its executing
context can get **no-op instrumentation** and never enter the access sets
at all.  This module is that pre-pass, in two forms matching the two ways
guest code reaches the hub:

* **Declared sites** (the source-level API): ``stack_var``/``tls_var``/
  ``malloc`` called with ``private=True`` assert the compiler proved the
  address never escapes its frame/thread/allocation scope.  The declaration
  flows to the tool as a ``tg_static_site`` client request; the tool answers
  with a :class:`StaticSite` token only when the corresponding *runtime*
  suppression class is active, and every subsequent access through that
  handle is counted and dropped before recording.
* **Static IR classification** (the binary path): :class:`StaticElider`
  abstract-interprets a translated :class:`~repro.vex.ir.SuperBlock`,
  tracking provably-constant registers/temporaries, and classifies each
  ``Load``/``Store`` whose address is a compile-time constant inside a
  declared private range.  :func:`repro.vex.translate.instrument_block`
  then emits a counting no-op ``Dirty`` for those sites instead of the
  tracking hook.

Soundness contract
------------------
Elision must be a *subset* of what the runtime engine would have
suppressed — never elide an access the runtime path would have kept:

* every class is gated on its runtime toggle
  (:meth:`ElisionPlan.site_elidable`), so a ``--break-suppression`` run
  disables the matching elisions too and the harness self-test still
  diverges;
* undeclared / unprovable sites stay :data:`UNKNOWN` and are recorded
  exactly as before — the runtime path remains the fallback;
* a site observed reaching addresses outside every declared private range
  joins to :data:`SHARED` and is never elided.

The per-site decisions are serialized into ``taskgrind-stats/1`` (under
``suppress.elision``) so any verdict disagreement found by the differential
fuzz harness is attributable to one specific site.

Site-classification lattice::

              SHARED           (proven escaping -- never elide)
            /    |    \\
    STACK_LOCAL TLS_LOCAL ALLOC_LOCAL   (elidable, gated per class)
            \\    |    /
              UNKNOWN          (unclassified -- never elide)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.prof import get_profiler
from repro.vex.ir import (Binop, Const, Expr, Get, Load, Put, RdTmp, Store,
                          SuperBlock, WrTmp)

_PROF = get_profiler()

# -- the lattice -------------------------------------------------------------

UNKNOWN = "unknown"          # bottom: no classification, runtime path
STACK_LOCAL = "stack"        # provably confined to a frame the segment pushes
TLS_LOCAL = "tls"            # provably a thread-local slot
ALLOC_LOCAL = "alloc"        # provably a non-escaping allocation
SHARED = "shared"            # top: proven escaping, runtime path

#: the elidable middle layer of the lattice
PRIVATE_CLASSES = (STACK_LOCAL, TLS_LOCAL, ALLOC_LOCAL)


def join(a: str, b: str) -> str:
    """Lattice join: agreeing private classes stay, disagreement escalates."""
    if a == b:
        return a
    if a == UNKNOWN:
        return b
    if b == UNKNOWN:
        return a
    return SHARED


@dataclass(frozen=True)
class StaticSite:
    """One classified access site (a declaration or one IR statement)."""

    site_id: int
    name: str                     # variable / buffer name
    klass: str                    # lattice class at decision time
    symbol: str = ""              # enclosing guest function
    file: str = ""
    line: int = 0

    def to_dict(self) -> dict:
        return {"id": self.site_id, "name": self.name, "class": self.klass,
                "symbol": self.symbol, "file": self.file, "line": self.line}


class ElisionPlan:
    """Per-run site registry + elision decisions + counters.

    Owned by the tool; decisions are taken once at declaration time against
    the run's :class:`~repro.core.suppress.SuppressionConfig` so the hot
    path is a single ``site is not None`` test.
    """

    def __init__(self, config, enabled: bool = True) -> None:
        self.config = config
        self.enabled = enabled
        self.sites: List[StaticSite] = []
        self.decisions: Dict[int, bool] = {}       # site_id -> elide?
        self.elided_counts: Dict[int, int] = {}    # site_id -> accesses dropped

    # -- decision ------------------------------------------------------------

    def site_elidable(self, klass: str) -> bool:
        """Gate each lattice class on its *runtime* suppression toggle.

        This is what keeps elision a subset of runtime suppression: a class
        whose runtime mechanism is disabled (``--break-suppression``) must
        not be compiled away either.
        """
        cfg = self.config
        if klass == STACK_LOCAL:
            return cfg.suppress_stack
        if klass == TLS_LOCAL:
            return cfg.suppress_tls
        if klass == ALLOC_LOCAL:
            return cfg.suppress_recycling
        return False                               # UNKNOWN / SHARED

    def declare(self, name: str, klass: str, *, symbol: str = "",
                file: str = "", line: int = 0) -> Optional[StaticSite]:
        """Register one site; returns the token iff its accesses are elided.

        A ``None`` return means "record as usual" — the caller attaches no
        site and the runtime path is the fallback, so a declaration can
        never make the tool *less* correct than having said nothing.
        """
        site = StaticSite(len(self.sites), name, klass, symbol=symbol,
                          file=file, line=line)
        elide = self.enabled and self.site_elidable(klass)
        self.sites.append(site)
        self.decisions[site.site_id] = elide
        return site if elide else None

    # -- hot path ------------------------------------------------------------

    def note(self, site: StaticSite, n: int = 1) -> None:
        """Count ``n`` accesses dropped at ``site`` (the no-op hook body)."""
        counts = self.elided_counts
        counts[site.site_id] = counts.get(site.site_id, 0) + n
        if _PROF.enabled:
            _PROF.count(f"elide.{site.klass}",
                        f"{site.symbol or site.name}:{site.name}", n=n)

    # -- observability -------------------------------------------------------

    @property
    def elided_sites(self) -> int:
        return sum(1 for v in self.decisions.values() if v)

    @property
    def elided_accesses(self) -> int:
        return sum(self.elided_counts.values())

    def stats_doc(self) -> dict:
        """The ``suppress.elision`` block of ``taskgrind-stats/1``.

        Every declared site appears with its class, decision and drop
        count — a fuzz divergence names the site, not just the total.
        """
        return {
            "enabled": self.enabled,
            "elided_sites": self.elided_sites,
            "elided_accesses": self.elided_accesses,
            "sites": [dict(s.to_dict(),
                           elided=self.decisions[s.site_id],
                           accesses=self.elided_counts.get(s.site_id, 0))
                      for s in self.sites],
        }


# ---------------------------------------------------------------------------
# static IR classification (the binary / GuestVM path)
# ---------------------------------------------------------------------------

@dataclass
class _Range:
    lo: int
    hi: int
    klass: str
    name: str


class StaticElider:
    """Classify ``Load``/``Store`` sites of translated blocks ahead of time.

    Declared private address ranges come from the same source-level
    assertions as the Python API (``declare_range``); the per-block pass is
    a constant-propagation sweep: a register set by ``li`` inside the block
    makes derived address expressions compile-time constants, and a constant
    address inside exactly one declared private range classifies the site.
    Anything else — unknown base register, address outside every declared
    range, range straddling — stays :data:`UNKNOWN` and keeps the tracking
    hook.
    """

    def __init__(self, plan: ElisionPlan, *, symbol: str = "") -> None:
        self.plan = plan
        self.symbol = symbol
        self.ranges: List[_Range] = []

    def declare_range(self, lo: int, hi: int, klass: str,
                      name: str = "") -> None:
        """Assert ``[lo, hi)`` is private of class ``klass``."""
        self.ranges.append(_Range(lo, hi, klass, name))

    def _classify_addr(self, lo: int, hi: int) -> str:
        for r in self.ranges:
            if r.lo <= lo and hi <= r.hi:
                return r.klass
        return UNKNOWN

    def _range_name(self, lo: int) -> str:
        for r in self.ranges:
            if r.lo <= lo < r.hi:
                return r.name
        return ""                                  # pragma: no cover

    def classify_block(self, sb: SuperBlock) -> Dict[int, StaticSite]:
        """Map statement index → elided site for every provable access.

        Only statements whose access is *provably* inside one declared
        private range — and whose class the plan elides — appear in the
        result; the instrumenter keeps tracking hooks for the rest.
        """
        out: Dict[int, StaticSite] = {}
        regs: Dict[int, int] = {}
        tmps: Dict[int, int] = {}

        def const_of(expr: Expr) -> Optional[int]:
            if isinstance(expr, Const):
                return expr.value
            if isinstance(expr, RdTmp):
                return tmps.get(expr.tmp)
            if isinstance(expr, Get):
                return regs.get(expr.reg)
            if isinstance(expr, Binop) and expr.op in ("add", "sub", "mul"):
                a, b = const_of(expr.a), const_of(expr.b)
                if a is None or b is None:
                    return None
                return a + b if expr.op == "add" else \
                    a - b if expr.op == "sub" else a * b
            return None

        def try_site(k: int, addr: Optional[int], size: int) -> None:
            if addr is None:
                return
            klass = self._classify_addr(addr, addr + size)
            if klass == UNKNOWN:
                return
            site = self.plan.declare(
                self._range_name(addr) or f"{addr:#x}", klass,
                symbol=self.symbol, line=sb.guest_addr)
            if site is not None:
                out[k] = site

        for k, stmt in enumerate(sb.stmts):
            if isinstance(stmt, WrTmp):
                if isinstance(stmt.expr, Load):
                    try_site(k, const_of(stmt.expr.addr), stmt.expr.size)
                    tmps.pop(stmt.tmp, None)       # loaded value: not const
                else:
                    v = const_of(stmt.expr)
                    if v is None:
                        tmps.pop(stmt.tmp, None)
                    else:
                        tmps[stmt.tmp] = v
            elif isinstance(stmt, Put):
                v = const_of(stmt.expr)
                if v is None:
                    regs.pop(stmt.reg, None)
                else:
                    regs[stmt.reg] = v
            elif isinstance(stmt, Store):
                try_site(k, const_of(stmt.addr), stmt.size)
        return out
