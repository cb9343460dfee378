"""Declarative service-level objectives over recorded metrics.

An objective is one line of text, e.g.::

    p99(grid.cell) < 2s
    mean(phase2) <= 150ms
    survival_rate >= 95%
    count(sim.restarts) <= 40

Two shapes: ``stat(target) op threshold`` applies a statistic (``p50``,
``p90``, ``p99``, ``mean``, ``max``, ``min``, ``count``, ``total``) to a
registry timer (``target`` resolves to the timer named ``target`` or
``span.target``, matching the tracer's naming) or, for ``count``, to a
counter; bare ``name op threshold`` reads a scalar from the caller's
``extras`` dict (fault-run statistics like ``survival_rate``), a gauge,
or a counter.  Thresholds accept ``s``/``ms``/``us`` duration suffixes
and ``%`` (divided by 100, so ``95%`` ≡ ``0.95``).

Evaluation is **fail-closed**: an objective whose metric was never
recorded fails with ``observed=None`` rather than passing vacuously — a
chaos run that silently stopped emitting latency data should page, not
pass.  :func:`repro.analysis.robustness.slo_report` wires this into
fault-injection runs; ``repro obs --inject`` demos it end-to-end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.obs.metrics import MetricsRegistry, Timer

__all__ = [
    "Objective",
    "SLOResult",
    "SLOReport",
    "parse_objectives",
    "evaluate",
    "evaluate_slo",
]

_OBJECTIVE_RE = re.compile(
    r"^\s*(?:(?P<stat>[a-z0-9_]+)\s*\(\s*(?P<target>[^()\s][^()]*?)\s*\)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*))"
    r"\s*(?P<op>==|<=|>=|<|>)\s*"
    r"(?P<value>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*"
    r"(?P<unit>s|ms|us|%)?\s*$"
)

_UNIT_SCALE = {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "%": 1e-2}

_TIMER_STATS = frozenset(
    {"p50", "p90", "p99", "mean", "max", "min", "count", "total"}
)

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class Objective:
    """One parsed objective; ``stat`` is ``None`` for bare-scalar form."""

    text: str
    stat: str | None
    target: str
    op: str
    threshold: float

    @classmethod
    def parse(cls, text: str) -> "Objective":
        match = _OBJECTIVE_RE.match(text)
        if not match:
            raise ValueError(
                f"unparseable objective {text!r} "
                "(expected 'stat(metric) op threshold' or 'name op threshold')"
            )
        stat = match.group("stat")
        if stat is not None and stat not in _TIMER_STATS:
            raise ValueError(
                f"unknown statistic {stat!r} in {text!r} "
                f"(known: {', '.join(sorted(_TIMER_STATS))})"
            )
        threshold = float(match.group("value")) * _UNIT_SCALE[match.group("unit")]
        return cls(
            text=text.strip(),
            stat=stat,
            target=(match.group("target") or match.group("name")).strip(),
            op=match.group("op"),
            threshold=threshold,
        )


@dataclass(frozen=True)
class SLOResult:
    """One evaluated objective: observed value (None = missing) and verdict."""

    objective: Objective
    observed: float | None
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective.text,
            "observed": self.observed,
            "threshold": self.objective.threshold,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class SLOReport:
    """All objective verdicts for one run; renders as rows or JSON."""

    results: list[SLOResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[SLOResult]:
        return [r for r in self.results if not r.passed]

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "objective": r.objective.text,
                "observed": "-" if r.observed is None else f"{r.observed:.6g}",
                "threshold": f"{r.objective.op} {r.objective.threshold:.6g}",
                "status": "PASS" if r.passed else "FAIL",
            }
            for r in self.results
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "objectives": [r.as_dict() for r in self.results],
        }


def parse_objectives(texts: Iterable[str]) -> list[Objective]:
    """Parse many objective lines (blank lines and ``#`` comments skipped)."""
    objectives = []
    for text in texts:
        stripped = text.strip()
        if stripped and not stripped.startswith("#"):
            objectives.append(Objective.parse(stripped))
    return objectives


def _timer_stat(timer: Timer, stat: str) -> float:
    if stat == "p50":
        return timer.p50
    if stat == "p90":
        return timer.p90
    if stat == "p99":
        return timer.p99
    if stat == "mean":
        return timer.mean
    if stat == "max":
        return timer.max
    if stat == "min":
        return timer.min if timer.count else 0.0
    if stat == "count":
        return float(timer.count)
    return timer.total  # "total"


def _resolve(
    objective: Objective,
    registry: MetricsRegistry | None,
    extras: dict[str, float],
) -> tuple[float | None, str]:
    """Find the observed value for one objective (None = not recorded)."""
    target = objective.target
    if objective.stat is not None:
        if registry is not None:
            timer = registry.timers.get(target) or registry.timers.get(
                f"span.{target}"
            )
            if timer is not None and timer.count > 0:
                return _timer_stat(timer, objective.stat), f"timer {timer.name}"
            if objective.stat == "count" and target in registry.counters:
                return float(registry.counters[target].value), f"counter {target}"
        if objective.stat == "count" and target in extras:
            return float(extras[target]), "extras"
        return None, "metric not recorded"
    if target in extras:
        return float(extras[target]), "extras"
    if registry is not None:
        if target in registry.gauges:
            return registry.gauges[target].value, "gauge"
        if target in registry.counters:
            return float(registry.counters[target].value), "counter"
    return None, "metric not recorded"


def evaluate(
    objectives: Sequence[Objective | str],
    *,
    registry: MetricsRegistry | None = None,
    extras: dict[str, float] | None = None,
) -> SLOReport:
    """Evaluate objectives against a registry and/or a scalar ``extras`` map.

    Strings are parsed on the fly.  Missing metrics fail closed (see
    module doc).
    """
    extras = extras or {}
    results = []
    for item in objectives:
        objective = item if isinstance(item, Objective) else Objective.parse(item)
        observed, detail = _resolve(objective, registry, extras)
        passed = observed is not None and _OPS[objective.op](
            observed, objective.threshold
        )
        results.append(
            SLOResult(
                objective=objective, observed=observed, passed=passed, detail=detail
            )
        )
    return SLOReport(results=results)


#: :func:`evaluate` under the name :mod:`repro.obs` exports it by.
evaluate_slo = evaluate
