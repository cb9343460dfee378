"""Flat result records shared by the grid driver, workers, and the cache.

Serves the empirical campaign (benches E1–E16 and the figure sweeps):
an :class:`ExperimentRecord` is one grid cell flattened to scalars — the
row format every ``results/*.csv`` artifact is built from — and a
:class:`SkippedCell` is the structured note left behind when a strategy
cannot run on an instance (e.g. a group strategy whose ``k`` does not
divide ``m``).

Both types are ``NamedTuple`` classes of JSON scalars only: picklable (they
cross process boundaries in the parallel backend), losslessly
JSON-round-trippable (they live in the on-disk cell cache), and cheap to
construct in hot sweep loops: :meth:`ExperimentRecord.measured` builds
its tuple with ``tuple.__new__``, skipping the keyword-argument
constructor.  A record is read by attribute, :meth:`~ExperimentRecord.as_dict`
or :meth:`~ExperimentRecord.to_cache_dict`, and copied with ``_replace``;
like any tuple it also compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.analysis.ratios import within_guarantee
from repro.core.model import Instance
from repro.exact.optimal import OptimalValue

__all__ = ["ExperimentRecord", "SkippedCell"]


class SkippedCell(NamedTuple):
    """One grid cell that produced no record, with the reason attached.

    Two kinds exist:

    * ``"incompatible"`` — the strategy cannot run on the instance at all
      (e.g. a group strategy whose ``k`` does not divide ``m``); retrying
      would change nothing, so the cell is skipped on the first attempt.
    * ``"quarantined"`` — the cell kept *crashing or timing out* and
      exhausted its :class:`~repro.analysis.parallel.RetryPolicy`;
      ``attempts`` records how many tries were burned and ``error`` the
      last failure.  Quarantined skips are poison markers: the cache
      refuses to persist them, so a later run retries the cell.

    Benches filter these by field (``skip.strategy``, ``skip.instance``)
    instead of parsing preformatted strings; ``str(skip)`` still renders
    the historical one-line form for logs.
    """

    strategy: str
    instance: str
    error: str
    kind: str = "incompatible"
    attempts: int = 1

    def __str__(self) -> str:
        note = f" [{self.kind}, {self.attempts} attempts]" if self.kind != "incompatible" else ""
        return f"{self.strategy} on {self.instance}: {self.error}{note}"

    def as_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "instance": self.instance,
            "error": self.error,
            "kind": self.kind,
            "attempts": self.attempts,
        }


class ExperimentRecord(NamedTuple):
    """One cell of the grid, flattened for CSV output."""

    strategy: str
    instance_name: str
    n: int
    m: int
    alpha: float
    realization: str
    seed: int
    replication: int
    makespan: float
    optimum: float
    optimum_exact: bool
    ratio: float
    guarantee: float | None
    within_guarantee: bool | None

    @classmethod
    def measured(
        cls,
        strategy: str,
        instance: Instance,
        realization: str,
        seed: int,
        replication: int,
        makespan: float,
        optimum: OptimalValue,
        guarantee: float | None,
    ) -> "ExperimentRecord":
        """The record of one measured cell, whichever path served it.

        ``realization`` is the realization's label.  The event kernel
        labels its trace ``"strategy/realization"`` and a record keeps the
        last path component of that label (the part of ``realization``
        after its last ``/``); the rule lives only here.
        """
        ratio = makespan / optimum.value
        return tuple.__new__(cls, (
            strategy,
            instance.name,
            instance.n,
            instance.m,
            instance.alpha,
            realization.rpartition("/")[2],
            seed,
            replication,
            makespan,
            optimum.value,
            optimum.optimal,
            ratio,
            guarantee,
            within_guarantee(ratio, guarantee, optimum.optimal),
        ))

    def as_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "instance": self.instance_name,
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "realization": self.realization,
            "seed": self.seed,
            "replication": self.replication,
            "makespan": self.makespan,
            "optimum": self.optimum,
            "optimum_exact": self.optimum_exact,
            "ratio": self.ratio,
            "guarantee": "" if self.guarantee is None else self.guarantee,
            "within_guarantee": "" if self.within_guarantee is None else self.within_guarantee,
        }

    def to_cache_dict(self) -> dict[str, Any]:
        """Lossless JSON form (unlike :meth:`as_dict`, ``None`` survives)."""
        return self._asdict()

    @classmethod
    def from_cache_dict(cls, data: dict[str, Any]) -> "ExperimentRecord":
        """Inverse of :meth:`to_cache_dict`; raises on missing fields."""
        return cls._make(data[name] for name in cls._fields)
