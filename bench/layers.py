"""Outside-in layer tracing: shims at the module attributes callers look up.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` swaps
each layer's public function for a shim that records a span (name, start,
end, parent, run id) around the original call, and puts the original back
on :meth:`Tracer.uninstall`.  This is the technique
``repro.tools.perfbench._count_tracer_calls`` uses on the tracer itself,
applied to the layer boundaries listed in :data:`SHIMS`.

A layer's *busy* time is its self time: span duration minus the time its
direct child spans cover.  The self times of all spans add up to the wall
time of the root spans (``ExperimentGrid.run``); the root's own self time
is orchestration no layer claims (``grid.unattributed_s``).  Work done
inside forked pool workers runs the
inherited shims but its tallies stay in the worker; only
``analysis.pool.busy_s`` (summed from the returned outcomes) sees it.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: (layer, module, attribute) — the attribute is looked up by the caller
#: at call time, so replacing it reroutes every call through the shim.
SHIMS: tuple[tuple[str, str, str], ...] = (
    ("analysis.grid", "repro.analysis.experiment", "ExperimentGrid.run"),
    ("exact.optimum", "repro.analysis.ratios", "optimal_makespan"),
    ("exact.optimum", "repro.analysis.batch", "optimal_makespan"),
    ("simulation.batch", "repro.analysis.batch", "sweep_makespans"),
    ("simulation.plan", "repro.analysis.batch", "build_plan"),
    ("simulation.kernel", "repro.analysis.ratios", "simulate"),
    ("registry.phase1", "repro.analysis.ratios", "build_placement"),
    ("uncertainty.realize", "repro.analysis.parallel", "sample_realization"),
    ("analysis.cell", "repro.analysis.batch", "execute_pack"),
    ("analysis.cell", "repro.analysis.parallel", "run_cell"),
    ("analysis.cell", "repro.analysis.ratios", "measured_ratio"),
    ("analysis.cell", "repro.analysis.ratios", "run_strategy"),
    ("analysis.cache.probe", "repro.analysis.cache", "CellCache.get"),
    ("analysis.cache.store", "repro.analysis.cache", "CellCache.put"),
    ("analysis.pool", "repro.analysis.experiment", "execute_cells"),
    ("analysis.pool", "repro.analysis.experiment", "execute_packs"),
    ("service.admit", "repro.service.scheduler", "ServiceScheduler.admit"),
    ("service.place", "repro.service.placement", "OnlinePlacer.assign"),
    ("service.dispatch", "repro.service.scheduler", "ServiceScheduler.step"),
    ("service.read", "repro.service.scheduler", "ServiceScheduler.get"),
)

#: ``analysis.grid`` is the root every grid span nests under; its self
#: time is orchestration no layer claims, so it is reported as part of
#: ``grid.unattributed_s`` rather than as a layer.
ROOT = "analysis.grid"

#: Spans kept in memory per process; past this only the tallies grow.
SPAN_CAP = 100_000


@dataclass
class Tally:
    """Per-layer totals: calls, self time, wall time and layer extras."""

    calls: int = 0
    self_s: float = 0.0
    wall_s: float = 0.0
    hits: int = 0  # exact optima / cache hits / refused plans
    rows: int = 0  # realizations swept by the batch backend
    busy_s: float = 0.0  # pool: worker time of the returned outcomes
    capacity_s: float = 0.0  # pool: workers x wall

    def add(self, other: "Tally") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _exact(tally: Tally, args: tuple, kwargs: dict, result: Any, wall: float) -> None:
    tally.hits += result.optimal


def _rows(tally: Tally, args: tuple, kwargs: dict, result: Any, wall: float) -> None:
    tally.rows += len(args[1])


def _hit(tally: Tally, args: tuple, kwargs: dict, result: Any, wall: float) -> None:
    tally.hits += result is not None


def _pool(tally: Tally, args: tuple, kwargs: dict, result: Any, wall: float) -> None:
    tally.busy_s += sum(o.duration_s for o in result[0])
    tally.capacity_s += max(1, kwargs.get("workers", 1)) * wall


#: Layer extras read from a successful call's arguments and result; a
#: failed ``simulation.plan`` call counts as a refused plan instead.
OBSERVERS: dict[str, Callable[[Tally, tuple, dict, Any, float], None]] = {
    "exact.optimum": _exact,
    "simulation.batch": _rows,
    "analysis.cache.probe": _hit,
    "analysis.pool": _pool,
}


class Tracer:
    """Installs the shims, keeps spans and per-layer tallies in memory.

    Spans live in flat arrays and the call stack in two flat lists, so
    tracing allocates nothing the garbage collector must track: with a
    list per span the collector's work grew with the trace, and the
    allocation-heavy daemon slowed far more than the shims themselves
    cost.
    """

    def __init__(self) -> None:
        self.tallies: dict[str, Tally] = {}
        self.run_id = 0
        self.dropped = 0
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")
        self._open: list[int] = []  # span index of each open call (-1: not kept)
        self._child: list[float] = []  # time the open call's children took
        self._saved: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        """Replace every shimmed attribute with its shim."""
        for layer, module_name, attr in SHIMS:
            owner: Any = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._shim(layer, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _shim(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        tally = self.tallies.setdefault(layer, Tally())
        opened, child = self._open, self._child
        observe = OBSERVERS.get(layer)

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = len(tracer.names)
            start = time.perf_counter()
            if index < SPAN_CAP:
                tracer.names.append(layer)
                tracer.starts.append(start)
                tracer.ends.append(start)
                tracer.parents.append(opened[-1] if opened else -1)
                tracer.runs.append(tracer.run_id)
            else:
                index = -1
                tracer.dropped += 1
            opened.append(index)
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if layer == "simulation.plan":
                    tally.hits += 1
                raise
            else:
                if observe is not None:
                    observe(tally, args, kwargs, result, time.perf_counter() - start)
                return result
            finally:
                end = time.perf_counter()
                opened.pop()
                inner = child.pop()
                wall = end - start
                if child:
                    child[-1] += wall
                if index >= 0:
                    tracer.ends[index] = end
                tally.calls += 1
                tally.wall_s += wall
                tally.self_s += wall - inner

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Current tallies as plain dicts (picklable, JSON-able)."""
        return {layer: dict(vars(t)) for layer, t in self.tallies.items()}

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines (one per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                span = {
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "run": self.runs[i],
                }
                fh.write(json.dumps(span) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")


def merge(parts: list[dict[str, dict[str, float]]]) -> dict[str, Tally]:
    """Sum several snapshots (e.g. one per traced process)."""
    total: dict[str, Tally] = {}
    for part in parts:
        for layer, fields in part.items():
            total.setdefault(layer, Tally()).add(Tally(**fields))
    return total
