"""Process-wide metrics registry: counters, gauges, histograms, phase timers.

The pipeline is instrumented at every major stage (VEX translation, the
access-recording hub, segment-graph construction, the happens-before query
mix, suppression, the analysis pass) through one
:class:`MetricsRegistry`.  The registry is deliberately minimal:

* **Counters** — monotonically increasing event counts.  Hot paths keep
  plain Python ints on their own objects and *publish* them into the
  registry at snapshot time; only cold paths (flushes, translations)
  increment registry counters live.
* **Gauges** — last-write-wins values (graph sizes, exactness flags).
* **Histograms** — count/sum/min/max plus power-of-two bucket counts, for
  size distributions (flush batch sizes, candidate chunk lengths).
* **Phase timers** — ``with registry.phase("analysis"): ...`` accumulates
  wall-clock seconds *and* cost-model virtual time (simulated ops) per
  named phase.  Phases may nest (each records independently) and are
  re-entrant: a phase already active on the same thread counts the entry
  but does not double-book its elapsed time.  Exceptions propagate but the
  elapsed time is still recorded.

Virtual time comes from a pluggable ``vclock`` (see
:meth:`MetricsRegistry.set_vclock`) — the machine binds it to the cost
model's clock, so a phase wrapping the instrumented run reports how much
*simulated* time it covered next to how much real time it burned.

Key names are part of the CI contract (the perf-regression gate and the
offline smoke test parse them); see ``docs/INTERNALS.md`` §6 for the
taxonomy.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.obs.tracer import get_tracer

_TRACER = get_tracer()


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """count/sum/min/max plus power-of-two buckets of observed values.

    Bucket ``k`` counts observations ``v`` with ``2**(k-1) < v <= 2**k``
    (bucket 0 counts ``v <= 1``), which is enough resolution for batch-size
    and work-distribution questions without storing samples.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        k = 0 if value <= 1 else max(0, int(value - 1).bit_length())
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the power-of-two buckets.

        Walks the cumulative bucket counts and interpolates linearly inside
        the bucket the quantile lands in (bucket ``k`` spans
        ``(2**(k-1), 2**k]``; bucket 0 spans ``(0, 1]``), clamped to the
        observed min/max.  Accurate to within one bucket's width — enough
        for the batch-size questions the histograms answer.
        """
        if not self.count:
            return None
        target = q * self.count
        cum = 0
        for k in sorted(self.buckets):
            c = self.buckets[k]
            if cum + c >= target:
                lo = 0.0 if k == 0 else float(1 << (k - 1))
                hi = float(1 << k)
                est = lo + (target - cum) / c * (hi - lo)
                if self.min is not None:
                    est = max(est, self.min)
                if self.max is not None:
                    est = min(est, self.max)
                return est
            cum += c
        return self.max

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = self.max = None
        self.buckets = {}

    def as_dict(self) -> dict:
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "mean": self.mean,
                "p50": self.percentile(0.50),
                "p95": self.percentile(0.95),
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


class _Phase:
    """Accumulated totals for one named phase."""

    __slots__ = ("name", "count", "wall_s", "vtime_ops")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_s = 0.0
        self.vtime_ops = 0.0

    def reset(self) -> None:
        self.count = 0
        self.wall_s = 0.0
        self.vtime_ops = 0.0


class _PhaseCtx:
    """Context manager produced by :meth:`MetricsRegistry.phase`."""

    __slots__ = ("_reg", "_phase", "_t0", "_v0", "_reentrant")

    def __init__(self, reg: "MetricsRegistry", phase: _Phase) -> None:
        self._reg = reg
        self._phase = phase
        self._t0 = 0.0
        self._v0 = 0.0
        self._reentrant = False

    def __enter__(self) -> "_PhaseCtx":
        reg = self._reg
        stack = reg._active_stack()
        self._reentrant = self._phase.name in stack
        stack.append(self._phase.name)
        self._phase.count += 1
        if not self._reentrant:
            self._t0 = reg._wallclock()
            self._v0 = reg._vtime_now()
            if _TRACER.enabled:
                _TRACER.begin_span(self._phase.name, _TRACER.phase_lane())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        reg = self._reg
        stack = reg._active_stack()
        if stack and stack[-1] == self._phase.name:
            stack.pop()
        if not self._reentrant:
            self._phase.wall_s += reg._wallclock() - self._t0
            self._phase.vtime_ops += reg._vtime_now() - self._v0
            if _TRACER.enabled:
                _TRACER.end_span(self._phase.name, _TRACER.phase_lane())


class MetricsRegistry:
    """Namespace of counters/gauges/histograms/phases + the vclock binding."""

    def __init__(self, *,
                 wallclock: Callable[[], float] = time.perf_counter) -> None:
        self._wallclock = wallclock
        self._vclock: Optional[Callable[[], float]] = None
        self._ops_per_second: float = 0.0
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phases: Dict[str, _Phase] = {}
        self._docs: Dict[str, dict] = {}
        self._local = threading.local()

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def phase(self, name: str) -> _PhaseCtx:
        p = self._phases.get(name)
        if p is None:
            p = self._phases[name] = _Phase(name)
        return _PhaseCtx(self, p)

    # -- virtual time ------------------------------------------------------

    def set_vclock(self, fn: Optional[Callable[[], float]],
                   ops_per_second: float = 0.0) -> None:
        """Bind the cost-model clock phases read their virtual time from.

        ``fn`` returns the current simulated op count (makespan);
        ``ops_per_second`` converts ops to simulated seconds in snapshots.
        ``None`` unbinds (phases then report 0 virtual time).
        """
        self._vclock = fn
        self._ops_per_second = ops_per_second

    def _vtime_now(self) -> float:
        fn = self._vclock
        return fn() if fn is not None else 0.0

    def _active_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- published documents ----------------------------------------------

    def publish(self, name: str, doc: dict) -> None:
        """Attach a component-assembled stats document (e.g. the tool's)."""
        self._docs[name] = doc

    def published(self, name: str) -> Optional[dict]:
        return self._docs.get(name)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as plain data (the ``--stats`` document)."""
        phases = {}
        for name, p in sorted(self._phases.items()):
            phases[name] = {
                "count": p.count, "wall_s": p.wall_s,
                "vtime_ops": p.vtime_ops,
                "vtime_s": (p.vtime_ops / self._ops_per_second
                            if self._ops_per_second else 0.0),
            }
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(self._histograms.items())},
            "phases": phases,
            "tools": dict(self._docs),
        }

    # -- per-run scoping ---------------------------------------------------

    def mark(self) -> dict:
        """A raw-value baseline for :meth:`delta_since`.

        The process-wide registry is a true singleton (hot paths prebind its
        instruments at import time), so back-to-back runs in one process
        accumulate into the same counters.  Callers that need a *per-run*
        document take a mark before the run and subtract it afterwards —
        each ``taskgrind-stats/1`` / ``taskgrind-offline-stats/1`` document
        then reflects exactly one run.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "histograms": {
                n: (h.count, h.sum, dict(h.buckets))
                for n, h in self._histograms.items()},
            "phases": {n: (p.count, p.wall_s, p.vtime_ops)
                       for n, p in self._phases.items()},
        }

    def delta_since(self, baseline: dict) -> dict:
        """A snapshot-shaped document of activity since ``baseline``.

        Counters, histogram counts/sums/buckets and phase totals are
        baseline-subtracted; gauges are last-write-wins and reported as-is,
        and histogram min/max are lifetime values (a bounded-memory sketch
        cannot un-observe extrema) — both documented caveats.
        """
        base_c = baseline.get("counters", {})
        base_h = baseline.get("histograms", {})
        base_p = baseline.get("phases", {})
        counters = {}
        for n, c in sorted(self._counters.items()):
            v = c.value - base_c.get(n, 0)
            if v:
                counters[n] = v
        histograms = {}
        for n, h in sorted(self._histograms.items()):
            b_count, b_sum, b_buckets = base_h.get(n, (0, 0.0, {}))
            if h.count == b_count:
                continue
            buckets = {}
            for k, v in sorted(h.buckets.items()):
                dv = v - b_buckets.get(k, 0)
                if dv:
                    buckets[str(k)] = dv
            histograms[n] = {"count": h.count - b_count,
                             "sum": h.sum - b_sum,
                             "min": h.min, "max": h.max,
                             "buckets": buckets}
        phases = {}
        for n, p in sorted(self._phases.items()):
            b_count, b_wall, b_vtime = base_p.get(n, (0, 0.0, 0.0))
            if p.count == b_count:
                continue
            vtime_ops = p.vtime_ops - b_vtime
            phases[n] = {
                "count": p.count - b_count,
                "wall_s": p.wall_s - b_wall,
                "vtime_ops": vtime_ops,
                "vtime_s": (vtime_ops / self._ops_per_second
                            if self._ops_per_second else 0.0),
            }
        return {
            "counters": counters,
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": histograms,
            "phases": phases,
        }

    def render(self) -> str:
        """Human-readable snapshot (the ``--stats=pretty`` output)."""
        snap = self.snapshot()
        lines = ["== stats =="]
        if snap["phases"]:
            lines.append("phase                          count      wall_s"
                         "     vtime_s")
            for name, p in snap["phases"].items():
                lines.append(f"{name:<30} {p['count']:>6} {p['wall_s']:11.6f}"
                             f" {p['vtime_s']:11.6f}")
        if snap["counters"]:
            lines.append("counters:")
            for name, v in snap["counters"].items():
                lines.append(f"  {name:<34} {v}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, v in snap["gauges"].items():
                lines.append(f"  {name:<34} {v}")
        if snap["histograms"]:
            lines.append("histograms:                          count"
                         "       mean        p50        p95")
            for name, h in snap["histograms"].items():
                if not h["count"]:
                    continue
                p50 = h["p50"] if h["p50"] is not None else 0.0
                p95 = h["p95"] if h["p95"] is not None else 0.0
                lines.append(f"  {name:<34} {h['count']:>6} "
                             f"{h['mean']:>10.2f} {p50:>10.2f} {p95:>10.2f}")
        for tool, doc in snap["tools"].items():
            lines.append(f"tool document: {tool} "
                         f"({len(doc)} top-level sections)")
        return "\n".join(lines)

    def render_prom(self) -> str:
        """Prometheus text exposition format (the ``--stats=prom`` output).

        Conventions:

        * every metric is prefixed ``taskgrind_`` and name-sanitized
          (``[^a-zA-Z0-9_]`` becomes ``_``);
        * counters export as ``<name>_total`` (``# TYPE ... counter``);
        * numeric gauges export directly; non-numeric gauges export as
          ``<name>_info{value="..."} 1``;
        * histograms export cumulative ``_bucket{le="2^k"}`` series derived
          from the power-of-two buckets, plus ``_count`` / ``_sum``;
        * phases export ``taskgrind_phase_runs_total``,
          ``taskgrind_phase_wall_seconds_total`` and
          ``taskgrind_phase_vtime_ops_total``, labeled by phase name.

        A future ``repro.serve`` scrape endpoint can return this string
        verbatim.
        """
        def sanitize(name: str) -> str:
            return "".join(c if c.isalnum() or c == "_" else "_"
                           for c in name)

        def esc(value: str) -> str:
            return value.replace("\\", "\\\\").replace('"', '\\"')

        lines: List[str] = []
        for name, c in sorted(self._counters.items()):
            metric = f"taskgrind_{sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {c.value}")
        for name, g in sorted(self._gauges.items()):
            metric = f"taskgrind_{sanitize(name)}"
            if isinstance(g.value, (int, float)) \
                    and not isinstance(g.value, bool):
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {g.value}")
            else:
                lines.append(f"# TYPE {metric}_info gauge")
                lines.append(f'{metric}_info{{value="{esc(str(g.value))}"}}'
                             " 1")
        for name, h in sorted(self._histograms.items()):
            metric = f"taskgrind_{sanitize(name)}"
            lines.append(f"# TYPE {metric} histogram")
            cum = 0
            for k in sorted(h.buckets):
                cum += h.buckets[k]
                lines.append(f'{metric}_bucket{{le="{float(1 << k)}"}} '
                             f"{cum}")
            lines.append(f'{metric}_bucket{{le="+Inf"}} {h.count}')
            lines.append(f"{metric}_count {h.count}")
            lines.append(f"{metric}_sum {h.sum}")
        if self._phases:
            lines.append("# TYPE taskgrind_phase_runs_total counter")
            lines.append("# TYPE taskgrind_phase_wall_seconds_total counter")
            lines.append("# TYPE taskgrind_phase_vtime_ops_total counter")
            for name, p in sorted(self._phases.items()):
                label = f'{{phase="{esc(name)}"}}'
                lines.append(
                    f"taskgrind_phase_runs_total{label} {p.count}")
                lines.append(
                    f"taskgrind_phase_wall_seconds_total{label} {p.wall_s}")
                lines.append(
                    f"taskgrind_phase_vtime_ops_total{label} {p.vtime_ops}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every instrument (objects stay valid, prebinding survives)."""
        for group in (self._counters, self._gauges, self._histograms,
                      self._phases):
            for item in group.values():
                item.reset()
        self._docs.clear()


#: The process-wide registry.  Pipeline code prebinds instruments from it at
#: import time, so it is a true singleton — callers needing isolation
#: instantiate their own :class:`MetricsRegistry` instead of swapping it.
_PROCESS_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every pipeline stage reports through."""
    return _PROCESS_REGISTRY
