"""Plan-driven fault injection for resilience testing.

The resilience layer (trace/3 salvage, the supervised parallel analysis,
the memory-budget guard) only earns trust if something actually breaks on
demand.  This package is the breaker: a :class:`~repro.faults.plan.FaultPlan`
names *where* to fail (allocator op N, analysis chunk K, trace chunk M) and
the injector hooks compiled into the hot paths fire exactly there — and
nowhere else, at zero cost when no plan is active.

Entry points:

* ``python -m repro run PROGRAM --fault-plan plan.json`` — one faulted run;
* ``python -m repro.fuzz --faults`` — differential fault campaign (salvaged
  report set must be a subset of the fault-free run's);
* ``python -m repro.faults`` — the fixed self-test matrix (CI chaos smoke).
"""

from repro.faults.inject import (FaultInjector, active_plan, get_injector,
                                 inject_plan)
from repro.faults.plan import (FAULT_KINDS, FaultPlan, FaultPoint,
                               load_fault_plan)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultPoint",
    "active_plan",
    "get_injector",
    "inject_plan",
    "load_fault_plan",
]
