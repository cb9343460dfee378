"""Fleet-scale chaos engineering for the placement service.

The paper proves its replication guarantee against *independent* machine
failures; this package measures how much of it survives *correlated*
ones.  Three layers:

* :mod:`repro.chaos.topology` — the fleet tree (machines → racks →
  zones) and replica-diversity scoring of placement groups :math:`M_j`
  against it;
* :mod:`repro.chaos.policy` — the health-policy engine (a declarative
  healthy → suspect → quarantined → recovered state machine);
* :mod:`repro.chaos.soak` — the soak harness behind ``repro soak``:
  sustained load against :mod:`repro.service` while a chaos schedule
  injects rack failures, emitting availability curves, makespan
  inflation vs. the capacity bound, diversity scores, and an SLO
  verdict.

``docs/chaos.md`` is the operator guide; the determinism contract (same
seed → byte-identical availability curve and decision digest) is pinned
by ``tests/test_chaos_soak.py``.
"""

from repro.chaos.policy import HealthPolicy, HealthState, HealthTracker
from repro.chaos.soak import ChaosAction, ChaosSchedule, SoakConfig, SoakReport, run_soak
from repro.chaos.topology import FleetTopology, diversity_score

__all__ = [
    "FleetTopology",
    "diversity_score",
    "HealthState",
    "HealthPolicy",
    "HealthTracker",
    "ChaosAction",
    "ChaosSchedule",
    "SoakConfig",
    "SoakReport",
    "run_soak",
]
