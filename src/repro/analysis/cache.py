"""On-disk result cache for experiment-grid cells, backed by the artifact store.

Serves sweep re-runs across every grid-driven artifact (E1–E16, figure
benches, ``repro sweep``): a cell whose inputs have not changed is read
back from the RAW stage of the content-addressed artifact store
(:mod:`repro.store`, default ``.repro-store/``) instead of recomputed,
so editing one strategy no longer pays for the whole grid again.

A cell's **fingerprint** is the SHA-256 of a canonical JSON document
covering everything its outcome depends on:

* ``schema`` — :data:`CACHE_SCHEMA_VERSION`, bumped whenever the
  measurement code changes semantics (bulk invalidation);
* ``strategy`` — the **canonical registry spec**
  (:func:`repro.registry.describe_strategy`) when the strategy is
  registered, so every spelling of the same strategy
  (``selective[0.50]``, ``selective[0.5,count]``) shares one entry;
  unregistered strategies fall back to class qualname, display name, and
  public constructor state (``vars()`` minus underscored keys);
* ``instance`` — full content hash: n, m, alpha, name, every estimate
  and size;
* ``model`` / ``seed`` — the realization model name and seed;
* ``exact_limit`` — the optimum solver's exhaustiveness cutoff.

Cells whose realization model is a custom callable (not a registered
model name) are **uncacheable** — a function's identity is not a stable
key — and silently bypass the cache.  So are cells whose inputs cannot
be canonically encoded (NaN/infinite estimates): unlike plain
``json.dumps``, the canonical encoding refuses values that do not
round-trip, rather than minting colliding keys.

Entries are RAW-stage artifacts keyed by fingerprint.  A corrupt or
unreadable entry counts as a miss (and a ``grid.cache_corrupt`` tick)
and is recomputed, never raised; the bad entry is additionally
*quarantined* — moved aside to ``<entry>.corrupt`` (a
``grid.cache_quarantined`` tick) so a warm rerun never trips over it
again.  Quarantined cells (``kind="quarantined"`` skips from the retry
layer) are refused by :meth:`CellCache.put`: a transient crash must not
be frozen into a permanent skip.

Hits, misses, stores, corruption, and quarantines are tracked on the
cache object and mirrored into the tracer's
:class:`~repro.obs.metrics.MetricsRegistry` as ``grid.cache_hits`` /
``grid.cache_misses`` / ``grid.cache_stores`` / ``grid.cache_corrupt`` /
``grid.cache_quarantined`` (the store adds its own ``store.*`` series
underneath).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.analysis.parallel import CellOutcome, CellSpec
from repro.analysis.records import ExperimentRecord, SkippedCell
from repro.obs.tracer import get_tracer
from repro.store.artifact import Stage
from repro.store.canonical import content_hash
from repro.store.session import record_raw_ref
from repro.store.store import ArtifactStore, default_store_root

__all__ = [
    "CellCache",
    "cell_fingerprint",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
]

#: Bump to invalidate every existing cache entry at once (schema or
#: measurement-semantics changes).  v2: strategy identity switched to the
#: canonical registry spec.  v3: entries moved into the artifact store's
#: RAW stage with canonical (path/tuple/NaN-strict) fingerprint encoding.
CACHE_SCHEMA_VERSION = 3

#: Where cells land unless a caller says otherwise — the unified store.
DEFAULT_CACHE_DIR = ".repro-store"


def _strategy_key(strategy: Any) -> dict[str, Any]:
    """Stable strategy identity: canonical spec, else class + public params.

    Registered strategies key on their canonical registry spec, so every
    spelling of the same strategy hits the same cache entry.  Strategies
    the registry cannot represent (unregistered classes, instances built
    with non-spec state) keep the legacy class/name/vars identity.
    """
    from repro.registry import try_describe_strategy

    spec = try_describe_strategy(strategy)
    if spec is not None:
        return {"spec": spec}
    params: dict[str, Any] = {}
    state = getattr(strategy, "__dict__", None)
    if state:
        params = {k: v for k, v in sorted(state.items()) if not k.startswith("_")}
    return {
        "class": f"{type(strategy).__module__}.{type(strategy).__qualname__}",
        "name": getattr(strategy, "name", type(strategy).__name__),
        "params": {k: repr(v) for k, v in params.items()},
    }


def _instance_key(instance: Any) -> dict[str, Any]:
    """Full content identity of an instance (estimates and sizes included)."""
    return {
        "n": instance.n,
        "m": instance.m,
        "alpha": instance.alpha,
        "name": instance.name,
        "estimates": list(instance.estimates),
        "sizes": list(instance.sizes),
    }


def _fingerprint_document(spec: CellSpec, schema: int) -> dict[str, Any]:
    """The canonical document a cell fingerprint hashes."""
    return {
        "schema": schema,
        "strategy": _strategy_key(spec.strategy),
        "instance": _instance_key(spec.instance),
        "model": spec.model,
        "seed": spec.seed,
        "exact_limit": spec.exact_limit,
    }


def cell_fingerprint(spec: CellSpec) -> str | None:
    """SHA-256 key of one cell, or ``None`` when the cell is uncacheable."""
    if not isinstance(spec.model, str):
        return None
    try:
        return content_hash(_fingerprint_document(spec, CACHE_SCHEMA_VERSION))
    except ValueError:
        return None  # non-canonical inputs (NaN/inf estimates, odd params)


class CellCache:
    """Fingerprint-keyed view of RAW cell outcomes in the artifact store.

    One instance per sweep is the intended use; hit/miss/store counters
    accumulate across ``get``/``put`` calls and feed the grid manifest's
    cache section.  ``root`` may be a directory (a store is opened
    there), an existing :class:`~repro.store.store.ArtifactStore`, or
    omitted for the repo-anchored default store.
    """

    def __init__(self, root: str | Path | ArtifactStore | None = None) -> None:
        if isinstance(root, ArtifactStore):
            self.store = root
        else:
            self.store = ArtifactStore(root if root is not None else default_store_root())
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.quarantined = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self.store.root

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none happened)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict[str, Any]:
        """JSON-ready summary for manifests and CLI output."""
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "hit_rate": self.hit_rate(),
        }

    def _path(self, fingerprint: str) -> Path:
        return self.store.manifest_path(Stage.RAW, fingerprint)

    # -- lookup / store ----------------------------------------------------

    def get(self, spec: CellSpec) -> CellOutcome | None:
        """Return the cached outcome for ``spec``, or ``None`` on a miss.

        Corrupt entries (truncated writes, schema drift, hand edits) are
        treated as misses and moved aside to ``<entry>.corrupt`` so a
        warm rerun starts clean; the subsequent :meth:`put` rewrites the
        real entry.
        """
        fingerprint = cell_fingerprint(spec)
        if fingerprint is None:
            return None
        counters = self.store.counters
        corrupt, quarantined = counters.corrupt, counters.quarantined
        artifact = self.store.get(Stage.RAW, fingerprint)
        outcome = None
        if artifact is not None:
            try:
                outcome = self._decode(spec, artifact.payload)
            except (ValueError, KeyError, TypeError):
                self.store.quarantine(Stage.RAW, fingerprint)
        # The store counts an unusable entry as corrupt, and as
        # quarantined once it has been moved aside.
        tracer = get_tracer()
        if counters.corrupt > corrupt:
            self.corrupt += 1
            tracer.count("grid.cache_corrupt")
        if counters.quarantined > quarantined:
            self.quarantined += 1
            tracer.count("grid.cache_quarantined")
        if outcome is None:
            self.misses += 1
            tracer.count("grid.cache_misses")
        else:
            self.hits += 1
            tracer.count("grid.cache_hits")
            record_raw_ref(fingerprint, artifact.artifact_id)
        return outcome

    def put(self, spec: CellSpec, outcome: CellOutcome) -> bool:
        """Persist one computed outcome; returns False when uncacheable.

        Quarantined skips (a cell that exhausted its retries) are refused
        on purpose: the failure may be transient, and caching it would
        turn one bad run into a permanently missing cell.
        """
        if outcome.skipped is not None and outcome.skipped.kind == "quarantined":
            return False
        fingerprint = cell_fingerprint(spec)
        if fingerprint is None:
            return False
        payload: dict[str, Any] = {"duration_s": outcome.duration_s}
        if outcome.record is not None:
            payload["kind"] = "record"
            payload["record"] = outcome.record.to_cache_dict()
        elif outcome.skipped is not None:
            payload["kind"] = "skipped"
            payload["skipped"] = outcome.skipped.as_dict()
        else:  # pragma: no cover - outcomes always carry one of the two
            return False
        try:
            artifact = self.store.put(Stage.RAW, fingerprint, kind="cell", payload=payload)
        except (OSError, ValueError):
            return False  # backend failure, or a payload that cannot canonicalize
        record_raw_ref(fingerprint, artifact.artifact_id)
        self.stores += 1
        get_tracer().count("grid.cache_stores")
        return True

    def _decode(self, spec: CellSpec, payload: dict[str, Any]) -> CellOutcome:
        """Rebuild a :class:`CellOutcome`; raises on any inconsistency.

        The store has already checked that the manifest is named by this
        cell's fingerprint and that its ID matches its content.
        """
        duration = float(payload.get("duration_s", 0.0))
        kind = payload.get("kind")
        if kind == "record":
            record = ExperimentRecord.from_cache_dict(payload["record"])
            return CellOutcome(spec.index, record, None, duration)
        if kind == "skipped":
            s = payload["skipped"]
            skipped = SkippedCell(
                s["strategy"],
                s["instance"],
                s["error"],
                kind=s.get("kind", "incompatible"),
                attempts=int(s.get("attempts", 1)),
            )
            return CellOutcome(spec.index, None, skipped, duration)
        raise ValueError(f"unknown cache entry kind {kind!r}")
