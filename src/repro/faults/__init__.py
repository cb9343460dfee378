"""Unified fault injection: scenario plans, seeded models, substrate faults.

The fault-tolerance side of the reproduction (the paper's Hadoop
motivation for replication) in one subsystem:

* :mod:`repro.faults.plan` — :class:`FaultPlan` and the fault kinds
  (crash-stop, crash-recover, degraded-speed straggler intervals,
  correlated group failures) the engine plays via
  ``simulate(..., faults=...)``;
* :mod:`repro.faults.models` — seeded scenario generators
  (:class:`FaultModel` with ``sample(rng)``) for benches and tests;
* :mod:`repro.faults.inject` — deterministic *substrate* fault injection
  (transient/poisoned grid cells) exercising the experiment harness's
  retry and quarantine machinery.

See ``docs/fault_tolerance.md`` for the full model and examples.
"""

from repro.faults.inject import CellFaultSpec, InjectedFault
from repro.faults.models import FaultModel, RandomCrashes, StragglerSlowdowns
from repro.faults.plan import (
    CorrelatedFailure,
    CrashRecover,
    CrashStop,
    DegradedInterval,
    Fault,
    FaultPlan,
    merge_plans,
)

__all__ = [
    "FaultPlan",
    "Fault",
    "CrashStop",
    "CrashRecover",
    "DegradedInterval",
    "CorrelatedFailure",
    "merge_plans",
    "FaultModel",
    "RandomCrashes",
    "StragglerSlowdowns",
    "CellFaultSpec",
    "InjectedFault",
]
