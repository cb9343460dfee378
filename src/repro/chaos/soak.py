"""The chaos soak harness: sustained load + scheduled faults + verdicts.

A soak run answers the operational question the paper's theorems only
bound: *when a rack actually dies mid-traffic, what does the service
do?*  The harness drives a seeded arrival stream against a
:class:`~repro.service.scheduler.ServiceScheduler` while a
:class:`ChaosSchedule` injects topology-aware failures, and reports:

* the **availability curve** — fraction of placement groups with at
  least one live machine, sampled on a fixed grid (the CSV artifact);
* **makespan inflation** — the chaos arm's makespan against a no-fault
  control arm running the *identical* workload (same seeds, same
  actuals), and against the capacity lower bound :math:`T^\\* =
  \\min\\{T : \\int_0^T \\mathrm{up}(t)\\,dt \\ge W\\}` (no scheduler can
  finish total work :math:`W` sooner on the surviving capacity);
* **replica diversity** of the placement groups over the fleet tree
  (:func:`~repro.chaos.topology.diversity_score`) — the quantity that
  decides how much a rack-sized blast radius can take out;
* an **SLO verdict** via :mod:`repro.obs.slo` over the run's scalars.

Two modes.  :func:`run_soak` is pure virtual time — deterministic by
construction (same config ⇒ byte-identical curve CSV and decision
digest, pinned by ``tests/test_chaos_soak.py``).  :func:`run_soak_live`
spins the real asyncio daemon on a socket and drives it over HTTP in
wall time (chaos via ``POST /v1/chaos``, sampling via ``GET
/v1/health``) — the CI smoke's end-to-end path; its decision digest is
still seed-stable, but sample timing follows the wall clock.

Artifacts land wherever the caller points ``write_artifacts`` —
``<prefix>_curve.csv`` and ``<prefix>_report.json``, each with a
``*.manifest.json`` provenance sidecar.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro._validation import check_non_negative_float, check_positive_float
from repro.analysis.csvio import write_csv
from repro.chaos.policy import HealthTracker
from repro.chaos.topology import FleetTopology, diversity_score
from repro.obs import evaluate_slo, get_tracer, run_manifest
from repro.service.placement import OnlinePlacer
from repro.service.protocol import AdmissionError
from repro.service.scheduler import DURATION_MODELS, ServiceScheduler

__all__ = [
    "ChaosAction",
    "ChaosSchedule",
    "SoakConfig",
    "SoakReport",
    "capacity_bound",
    "run_soak",
    "run_soak_live",
]

#: Seed stream tag for the arrival process; the scheduler's duration
#: keys (``[seed, _DURATION_STREAM, block]``) never equal ``[seed, tag]``.
_ARRIVAL_STREAM = 1_000_003


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled correlated failure: *these machines, at this instant*.

    ``at`` is a finite time; ``downtime`` is shared by the group, and
    ``math.inf`` means permanent (only an explicit recovery brings the
    machines back).  ``label`` names the blast radius for reports
    (``"rack-2"``).
    """

    at: float
    machines: tuple[int, ...]
    downtime: float = math.inf
    label: str = "failure"

    def __post_init__(self) -> None:
        check_non_negative_float(self.at, "action time")
        if not self.machines:
            raise ValueError("action must name at least one machine")
        if not self.downtime > 0:
            raise ValueError(f"downtime must be > 0, got {self.downtime}")

    def as_dict(self) -> dict[str, Any]:
        """JSON form for manifests and reports."""
        return {
            "at": self.at,
            "machines": list(self.machines),
            "downtime": None if math.isinf(self.downtime) else self.downtime,
            "label": self.label,
        }


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered set of :class:`ChaosAction`\\ s over one soak run.

    Build one rack failure with :meth:`rack`, list arbitrary
    :class:`ChaosAction`\\ s, or parse the CLI grammar (:meth:`parse`).
    Schedules compose with :meth:`merge`; actions are kept sorted by
    time.
    """

    actions: tuple[ChaosAction, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.actions, key=lambda a: (a.at, a.machines)))
        object.__setattr__(self, "actions", ordered)

    def merge(self, other: "ChaosSchedule") -> "ChaosSchedule":
        """The union of two schedules (overlaps are the scheduler's to union)."""
        return ChaosSchedule(self.actions + other.actions)

    def as_dicts(self) -> list[dict[str, Any]]:
        """JSON form for manifests and reports."""
        return [a.as_dict() for a in self.actions]

    # -- constructors ------------------------------------------------------
    @classmethod
    def rack(
        cls,
        topology: FleetTopology,
        rack: int = 0,
        *,
        at: float = 0.0,
        downtime: float = math.inf,
    ) -> "ChaosSchedule":
        """One whole rack fails together."""
        return cls(
            (ChaosAction(at, topology.rack_members(rack), downtime, f"rack-{rack}"),)
        )

    @classmethod
    def parse(cls, spec: str, topology: FleetTopology) -> "ChaosSchedule":
        """The CLI grammar: ``kind:key=value,...``.

        Kinds and their keys (all values numeric; ``downtime`` omitted
        means permanent)::

            none
            rack:at=8,downtime=10[,rack=0]

        ``at`` must be finite and ``rack`` an integer.  Deterministic by
        construction — no sampling, so the same spec always yields the
        same schedule.
        """
        kind, _, raw = spec.partition(":")
        kind = kind.strip().lower()
        params: dict[str, float] = {}
        if raw.strip():
            for item in raw.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise ValueError(f"malformed chaos parameter {item!r} in {spec!r}")
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"chaos parameter {key!r} must be numeric, got {value!r}"
                    ) from None
        known: dict[str, tuple[str, ...]] = {
            "none": (),
            "rack": ("at", "downtime", "rack"),
        }
        if kind not in known:
            raise ValueError(
                f"unknown chaos kind {kind!r} (known: {', '.join(sorted(known))})"
            )
        unknown = set(params) - set(known[kind])
        if unknown:
            raise ValueError(
                f"unknown parameters {sorted(unknown)} for chaos kind {kind!r}"
            )
        if kind == "none":
            return cls()
        rack = params.get("rack", 0.0)
        if not rack.is_integer():
            raise ValueError(f"chaos parameter 'rack' must be an integer, got {rack!r}")
        return cls.rack(
            topology,
            int(rack),
            at=params.get("at", 0.0),
            downtime=params.get("downtime", math.inf),
        )


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run depends on — frozen, so runs are replayable.

    ``duration`` bounds the *arrival window* in virtual seconds (the run
    itself continues until the queue drains); ``rate`` is the mean
    Poisson arrival rate; estimates are log-uniform on ``[est_low,
    est_high]``, the stochastic suite's default shape.  ``objectives``
    are :mod:`repro.obs.slo` lines evaluated over the run's scalars
    (``min_availability``, ``tasks_done``, ``stranded``, ``shed``,
    ``replaced``, ``restarts``, ``inflation``, ...).
    """

    topology: FleetTopology = FleetTopology()
    strategy: str = "ls_group[k=2]"
    alpha: float = 1.5
    model: str = "log_uniform"
    seed: int = 0
    duration: float = 30.0
    rate: float = 4.0
    est_low: float = 0.5
    est_high: float = 4.0
    tenants: int = 8
    sample_every: float = 1.0
    schedule: ChaosSchedule = ChaosSchedule()
    objectives: tuple[str, ...] = (
        "min_availability >= 0.5",
        "stranded == 0",
        "tasks_done >= 1",
    )

    def __post_init__(self) -> None:
        if self.model not in DURATION_MODELS:
            raise ValueError(f"unknown duration model {self.model!r}")
        # Refuse a spec the service cannot run before any arm starts.
        OnlinePlacer(self.strategy, self.topology.m)
        for name in ("duration", "rate", "est_low", "est_high", "sample_every"):
            check_positive_float(getattr(self, name), name)
        if not self.est_low <= self.est_high:
            raise ValueError(
                f"need 0 < est_low <= est_high, got [{self.est_low}, {self.est_high}]"
            )
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        for action in self.schedule.actions:
            for machine in action.machines:
                if not 0 <= machine < self.topology.m:
                    raise ValueError(
                        f"chaos action targets machine {machine} outside the "
                        f"{self.topology.m}-machine fleet"
                    )

    def as_dict(self) -> dict[str, Any]:
        """JSON form for manifests and reports."""
        return {
            "topology": self.topology.as_dict(),
            "strategy": self.strategy,
            "alpha": self.alpha,
            "model": self.model,
            "seed": self.seed,
            "duration": self.duration,
            "rate": self.rate,
            "est_low": self.est_low,
            "est_high": self.est_high,
            "tenants": self.tenants,
            "sample_every": self.sample_every,
            "chaos": self.schedule.as_dicts(),
            "objectives": list(self.objectives),
        }


@dataclass
class SoakReport:
    """One soak run's full result set; ``write_artifacts`` persists it."""

    config: dict[str, Any]
    samples: list[dict[str, Any]]
    summary: dict[str, Any]
    digest: str
    slo: Any
    live: bool = False
    transitions: list[dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """The SLO verdict (all objectives met)."""
        return bool(self.slo.passed)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable view (non-finite floats become ``null``)."""
        return _json_safe(
            {
                "config": self.config,
                "live": self.live,
                "summary": self.summary,
                "decision_digest": self.digest,
                "slo": self.slo.as_dict(),
                "transitions": self.transitions,
                "samples": self.samples,
            }
        )

    def write_artifacts(self, out_prefix: str | Path) -> dict[str, str]:
        """Write ``<prefix>_curve.csv`` and ``<prefix>_report.json`` + sidecars.

        Each file gets a ``*.manifest.json`` provenance sidecar (the
        repo-wide bench convention), and the curve rows are exactly
        :attr:`samples` — byte-identical across same-seed virtual runs.
        """
        prefix = Path(out_prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        curve = Path(f"{prefix}_curve.csv")
        write_csv(curve, self.samples)
        report = Path(f"{prefix}_report.json")
        report.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        params = _json_safe(
            {
                "config": self.config,
                "summary": self.summary,
                "decision_digest": self.digest,
                "live": self.live,
            }
        )
        for path in (curve, report):
            run_manifest("chaos", path.name, params=params).write(
                path.with_suffix(".manifest.json")
            )
        return {"curve": str(curve), "report": str(report)}


def capacity_bound(m: int, schedule: ChaosSchedule, work: float) -> float:
    """The capacity lower bound :math:`T^\\*` for total work on a faulty fleet.

    No scheduler can finish ``work`` machine-seconds before the integral
    of live-machine count catches up with it: :math:`T^\\* = \\min\\{T :
    \\int_0^T (m - \\mathrm{down}(t))\\,dt \\ge W\\}`.  Outage windows come
    from the schedule (per-machine unions, exactly the scheduler's
    ``down_until`` discipline); returns ``math.inf`` when the fleet dies
    permanently with work remaining.
    """
    if work <= 0:
        return 0.0
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    per_machine: dict[int, list[tuple[float, float]]] = {}
    for action in schedule.actions:
        end = action.at + action.downtime
        for machine in action.machines:
            per_machine.setdefault(machine, []).append((action.at, end))
    deltas: list[tuple[float, int]] = []
    for intervals in per_machine.values():
        intervals.sort()
        merged: list[list[float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        for start, end in merged:
            deltas.append((start, +1))
            if math.isfinite(end):
                deltas.append((end, -1))
    deltas.sort()
    t, done, down, i = 0.0, 0.0, 0, 0
    while True:
        rate = m - down
        t_next = deltas[i][0] if i < len(deltas) else math.inf
        if rate > 0:
            need = (work - done) / rate
            if t + need <= t_next:
                return t + need
            done += rate * (t_next - t)
        elif t_next == math.inf:
            return math.inf
        t = t_next
        while i < len(deltas) and deltas[i][0] == t:
            down += deltas[i][1]
            i += 1


def _make_arrivals(config: SoakConfig) -> list[tuple[float, str, float, str]]:
    """The seeded Poisson arrival stream: ``(t, tenant, estimate, key)``.

    One generator keyed ``[seed, _ARRIVAL_STREAM]`` draws inter-arrival
    gaps and estimates in lockstep, so the stream is a pure function of
    the config — the first half of the determinism contract (durations
    are the scheduler's ``(seed, tid)`` draws, the second half).
    """
    rng = np.random.default_rng([config.seed, _ARRIVAL_STREAM])
    ratio = config.est_high / config.est_low
    arrivals: list[tuple[float, str, float, str]] = []
    t, i = 0.0, 0
    while True:
        t += float(rng.exponential(1.0 / config.rate))
        if t > config.duration:
            return arrivals
        estimate = float(config.est_low * ratio ** rng.random())
        arrivals.append((t, f"tenant-{i % config.tenants}", estimate, f"soak-{i}"))
        i += 1


def _sample_row(t: float, sched: ServiceScheduler) -> dict[str, Any]:
    return {
        "t": round(t, 9),
        "availability": sched.availability(),
        "machines_down": len(sched.down),
        "degraded_groups": len(sched.degraded_groups()),
        "queued": sched.queued,
        "running": len(sched.busy),
        "done": sched.completed,
        "admitted": len(sched.records),
        "shed": sched.shed,
        "replaced": sched.replaced,
    }


def _run_virtual(
    config: SoakConfig,
    arrivals: list[tuple[float, str, float, str]],
    schedule: ChaosSchedule,
) -> tuple[ServiceScheduler, list[dict[str, Any]]]:
    """One virtual-time arm: inject, admit, pump, sample, drain."""
    sched = ServiceScheduler(
        config.strategy,
        m=config.topology.m,
        alpha=config.alpha,
        model=config.model,
        seed=config.seed,
        health=HealthTracker(),
    )
    for action in schedule.actions:
        sched.inject_failure(action.machines, at=action.at, downtime=action.downtime)
    samples: list[dict[str, Any]] = []
    grid = {"next": 0.0}

    def emit_until(t: float) -> None:
        # Sample points strictly before t see the state after every event
        # strictly before them — piecewise-constant sampling with the
        # same same-instant discipline as the event queue.
        while grid["next"] < t - 1e-12:
            samples.append(_sample_row(grid["next"], sched))
            grid["next"] += config.sample_every

    def pump(until: float) -> None:
        while sched.queue and sched.queue.peek().time <= until:
            emit_until(sched.queue.peek().time)
            sched.step()

    for t, tenant, estimate, key in arrivals:
        pump(t)
        emit_until(t)
        sched.clock = max(sched.clock, t)
        try:
            sched.admit(tenant, estimate, key=key)
        except AdmissionError as exc:
            if exc.code != "degraded":
                raise
    sched.begin_drain()
    pump(math.inf)
    emit_until(sched.clock)
    samples.append(_sample_row(sched.clock, sched))
    return sched, samples


def _decision_digest(sched: ServiceScheduler) -> str:
    """SHA-256 over every placement decision, in admission order."""
    digest = hashlib.sha256()
    for r in sched.records:
        digest.update(
            f"{r.tid}|{r.tenant}|{r.key}|{r.group}|{r.estimate!r}|{r.machines};".encode(
                "ascii"
            )
        )
    return digest.hexdigest()


def _assemble(
    config: SoakConfig,
    sched: ServiceScheduler,
    samples: list[dict[str, Any]],
    control: ServiceScheduler,
    *,
    live: bool,
    extra_summary: dict[str, Any] | None = None,
) -> SoakReport:
    """Fold one run (plus its control arm) into a :class:`SoakReport`."""
    work = sum(r.actual for r in control.records if r.actual is not None)
    control_makespan = control.clock
    makespan = sched.clock
    bound = capacity_bound(config.topology.m, config.schedule, work)
    inflation = makespan / control_makespan if control_makespan > 0 else math.nan
    availabilities = [row["availability"] for row in samples]
    stranded = sched.queued + len(sched.busy)
    restarts = sum(r.restarts for r in sched.records)
    summary: dict[str, Any] = {
        "makespan": makespan,
        "control_makespan": control_makespan,
        "inflation": inflation,
        "capacity_bound": bound,
        "bound_inflation": bound / control_makespan if control_makespan > 0 else math.nan,
        "inflation_vs_bound": makespan / bound if bound > 0 else math.nan,
        "work": work,
        "tasks_admitted": len(sched.records),
        "tasks_done": sched.completed,
        "deduplicated": sched.deduplicated,
        "stranded": stranded,
        "shed": sched.shed,
        "replaced": sched.replaced,
        "restarts": restarts,
        "machine_failures": sched.machine_failures,
        "machine_recoveries": sched.machine_recoveries,
        "min_availability": min(availabilities) if availabilities else math.nan,
        "mean_availability": (
            sum(availabilities) / len(availabilities) if availabilities else math.nan
        ),
        "diversity_rack": diversity_score(
            config.topology, sched.placer.groups, level="rack"
        ),
        "diversity_zone": diversity_score(
            config.topology, sched.placer.groups, level="zone"
        ),
        "policy": sched.health.counts() if sched.health is not None else {},
    }
    if extra_summary:
        summary.update(extra_summary)
    extras = {
        key: float(value)
        for key, value in summary.items()
        if isinstance(value, (int, float)) and math.isfinite(float(value))
    }
    slo = evaluate_slo(list(config.objectives), extras=extras)
    transitions = (
        [t.as_dict() for t in sched.health.transitions]
        if sched.health is not None
        else []
    )
    return SoakReport(
        config=config.as_dict(),
        samples=samples,
        summary=summary,
        digest=_decision_digest(sched),
        slo=slo,
        live=live,
        transitions=transitions,
    )


def run_soak(config: SoakConfig) -> SoakReport:
    """Run one virtual-time soak: chaos arm + no-fault control arm.

    Fully deterministic: the arrival stream, duration draws, fault
    schedule and sampling grid are all pure functions of ``config``, so
    two runs with the same config produce byte-identical curve rows and
    the same decision digest.
    """
    tracer = get_tracer()
    if tracer.enabled:
        tracer.manifest(run_manifest("chaos", "soak", params=config.as_dict()))
    arrivals = _make_arrivals(config)
    with tracer.span("chaos.soak", arrivals=len(arrivals)):
        sched, samples = _run_virtual(config, arrivals, config.schedule)
    control, _ = _run_virtual(
        replace(config, schedule=ChaosSchedule()), arrivals, ChaosSchedule()
    )
    return _assemble(config, sched, samples, control, live=False)


def run_soak_live(
    config: SoakConfig,
    *,
    socket_path: str | None = None,
    port: int | None = None,
    pace: float = 1.0,
) -> SoakReport:
    """Run one soak end-to-end through the real daemon (wall-clock pacing).

    Spins an in-process :class:`~repro.service.daemon.ServiceDaemon` on
    ``socket_path`` (or loopback TCP), submits the same seeded arrival
    stream over HTTP, posts chaos actions to ``POST /v1/chaos`` when
    their (virtual) time comes, and samples ``GET /v1/health`` on the
    grid.  ``pace`` is virtual seconds per wall second — the whole run
    takes about ``duration / pace`` wall seconds plus drain.  The
    decision digest stays seed-stable; sample *timing* follows the wall
    clock, which is the documented difference from :func:`run_soak`.
    """
    check_positive_float(pace, "pace")
    return asyncio.run(_soak_live(config, socket_path, port, pace))


async def _soak_live(
    config: SoakConfig,
    socket_path: str | None,
    port: int | None,
    pace: float,
) -> SoakReport:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.daemon import ServiceDaemon

    sched = ServiceScheduler(
        config.strategy,
        m=config.topology.m,
        alpha=config.alpha,
        model=config.model,
        seed=config.seed,
        health=HealthTracker(),
    )
    daemon = ServiceDaemon(
        sched,
        port=None if socket_path else (port if port is not None else 0),
        socket_path=socket_path,
        pace=pace,
    )
    server = asyncio.create_task(daemon.serve())
    await daemon.started.wait()
    arrivals = _make_arrivals(config)
    pending = list(config.schedule.actions)
    samples: list[dict[str, Any]] = []
    errors = 0
    shed_client = 0
    client_kw: dict[str, Any] = (
        {"socket_path": socket_path} if socket_path else {"port": daemon.port}
    )
    loop = asyncio.get_running_loop()
    try:
        async with ServiceClient(**client_kw) as client:
            start = loop.time()
            next_sample = 0.0
            idx = 0
            horizon = config.duration / pace
            while True:
                now = loop.time() - start
                while pending and pending[0].at / pace <= now:
                    action = pending.pop(0)
                    downtime = (
                        None if math.isinf(action.downtime) else action.downtime
                    )
                    try:
                        await client.chaos(
                            fail=list(action.machines), downtime=downtime
                        )
                    except (ServiceError, ConnectionError, OSError):
                        errors += 1
                while idx < len(arrivals) and arrivals[idx][0] / pace <= now:
                    _, tenant, estimate, key = arrivals[idx]
                    idx += 1
                    try:
                        await client.submit(tenant, estimate, key=key)
                    except ServiceError as exc:
                        if exc.code == "degraded":
                            shed_client += 1
                        else:
                            errors += 1
                    except (ConnectionError, OSError):
                        errors += 1
                if now >= next_sample:
                    try:
                        health = await client.health()
                        samples.append(
                            {
                                "t": round(health["clock"], 9),
                                "availability": health["availability"],
                                "machines_down": len(health["down"]),
                                "degraded_groups": len(health["degraded_groups"]),
                                "queued": health["queued"],
                                "running": health["running"],
                                "done": health["done"],
                                "admitted": health["admitted"],
                                "shed": health["shed"],
                                "replaced": health["replaced"],
                            }
                        )
                    except (ServiceError, ConnectionError, OSError):
                        errors += 1
                    next_sample += config.sample_every / pace
                if idx >= len(arrivals) and not pending and now >= horizon:
                    break
                await asyncio.sleep(0.02)
            await client.shutdown()
    finally:
        daemon.stop()
        await server
    samples.append(_sample_row(sched.clock, sched))
    control, _ = _run_virtual(
        replace(config, schedule=ChaosSchedule()), arrivals, ChaosSchedule()
    )
    return _assemble(
        config,
        sched,
        samples,
        control,
        live=True,
        extra_summary={"errors": errors, "shed_client": shed_client},
    )


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None`` (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value
