"""The content-addressed artifact store: staged manifests + blobs + GC.

One :class:`ArtifactStore` unifies what used to be three disconnected
provenance systems — the grid cell cache, the ``results/*.manifest.json``
sidecars, and the hand-assembled ``REPORT.md`` — behind a single
directory layout (a :class:`~repro.store.backend.LocalDirBackend`):

* ``raw/<aa>/<fingerprint>.json`` — RAW cell manifests (payload inline),
  sharded by the first two hex chars like the old cache;
* ``curated/<name>.json`` / ``report/<name>.json`` — keyed manifests for
  published artifacts;
* ``blobs/<aa>/<sha256>`` — the published file bytes, content-addressed
  and deduplicated across artifacts.

Reads are fail-safe: a corrupt manifest (truncated write, hand edit,
ID/content mismatch) counts as a miss, is quarantined to
``<entry>.corrupt``, and is recomputed — never raised.  Writes are
atomic and deduplicating: storing content that already exists under the
same key writes nothing, which is what makes ``repro report`` idempotent.
Hit/miss/store/corrupt counters mirror into the tracer's metrics
registry as ``store.*`` (see docs/observability.md); :meth:`gc` prunes
expired RAW entries, orphaned blobs and quarantined ``.corrupt`` debris,
reporting reclaimed bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.obs.tracer import get_tracer
from repro.store.artifact import Artifact, Stage
from repro.store.backend import LocalDirBackend
from repro.store.canonical import hash_bytes
from repro.store.refs import ArtifactRef, Ref

__all__ = ["ArtifactStore", "GcReport", "DEFAULT_STORE_DIR", "default_store_root"]

#: Directory name of the unified store (next to ``results/``).
DEFAULT_STORE_DIR = ".repro-store"


def default_store_root() -> Path:
    """``<repo root>/.repro-store`` (editable install) or ``cwd/.repro-store``.

    Mirrors :func:`repro.analysis.csvio.results_dir` resolution so every
    entry point (pytest, CLI, benches) shares one store no matter the
    working directory.
    """
    root = Path(__file__).resolve().parents[3]
    base = root if (root / "pyproject.toml").exists() else Path.cwd()
    return base / DEFAULT_STORE_DIR


@dataclass
class GcReport:
    """What one :meth:`ArtifactStore.gc` pass removed (or would remove)."""

    expired_raw: int = 0
    orphan_blobs: int = 0
    swept_corrupt: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False

    @property
    def removed(self) -> int:
        """Total entries removed across every category."""
        return self.expired_raw + self.orphan_blobs + self.swept_corrupt

    def as_dict(self) -> dict[str, Any]:
        return {
            "expired_raw": self.expired_raw,
            "orphan_blobs": self.orphan_blobs,
            "swept_corrupt": self.swept_corrupt,
            "reclaimed_bytes": self.reclaimed_bytes,
            "dry_run": self.dry_run,
        }


@dataclass
class _Counters:
    """Mutable hit/miss/store bookkeeping for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    deduped: int = 0
    corrupt: int = 0
    quarantined: int = 0
    evicted: int = 0


class ArtifactStore:
    """Staged, content-addressed artifact storage under one local directory."""

    def __init__(self, location: str | Path | None = None) -> None:
        self.backend = LocalDirBackend(location if location is not None else default_store_root())
        self.counters = _Counters()

    # -- key layout --------------------------------------------------------

    @staticmethod
    def _manifest_key(stage: str | Stage, name: str) -> str:
        stage = stage.value if isinstance(stage, Stage) else str(stage)
        if stage == Stage.RAW.value:
            return f"raw/{name[:2]}/{name}.json"
        return f"{stage}/{name}.json"

    @staticmethod
    def _blob_key(sha256: str) -> str:
        return f"blobs/{sha256[:2]}/{sha256}"

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self.backend.root

    def manifest_path(self, stage: str | Stage, name: str) -> Path:
        """On-disk manifest location (for tests/tools)."""
        return self.backend.path(self._manifest_key(stage, name))

    # -- read path ---------------------------------------------------------

    def get(self, stage: str | Stage, name: str) -> Artifact | None:
        """The artifact at ``(stage, name)``, or ``None``.

        Corrupt manifests count as a miss, are quarantined aside, and
        tick the ``store.corrupt`` / ``store.quarantined`` counters.
        """
        key = self._manifest_key(stage, name)
        raw = self.backend.read(key)
        if raw is None:
            self.counters.misses += 1
            get_tracer().count("store.misses")
            return None
        try:
            artifact = Artifact.from_manifest(json.loads(raw.decode("utf-8")))
            if artifact.name != name:
                raise ValueError(f"manifest at {key!r} names {artifact.name!r}")
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self._mark_corrupt(key)
            self.counters.misses += 1
            get_tracer().count("store.misses")
            return None
        self.counters.hits += 1
        get_tracer().count("store.hits")
        return artifact

    def contains(self, stage: str | Stage, name: str) -> bool:
        """Whether a manifest exists at ``(stage, name)`` (no validation)."""
        return self.backend.exists(self._manifest_key(stage, name))

    def names(self, stage: str | Stage) -> list[str]:
        """Every artifact name recorded in ``stage``, sorted."""
        stage_value = stage.value if isinstance(stage, Stage) else str(stage)
        names = []
        for key in self.backend.list(f"{stage_value}/"):
            if key.endswith(".json"):
                names.append(key.rsplit("/", 1)[-1][: -len(".json")])
        return sorted(names)

    def resolve(self, ref: ArtifactRef) -> Artifact | None:
        """Follow an :class:`ArtifactRef`; ``None`` when missing or drifted.

        The referenced artifact must still carry the ref's content ID —
        a name that now holds different content does not resolve.
        """
        artifact = self.get(ref.stage, ref.name)
        if artifact is None or artifact.artifact_id != ref.artifact_id:
            return None
        return artifact

    def blob(self, sha256: str) -> bytes | None:
        """Blob bytes by content hash; corrupt blobs quarantine to a miss."""
        key = self._blob_key(sha256)
        data = self.backend.read(key)
        if data is None:
            return None
        if hash_bytes(data) != sha256:
            self._mark_corrupt(key)
            return None
        return data

    def file_bytes(self, artifact: Artifact, name: str) -> bytes | None:
        """The bytes of one published file of ``artifact``, from its blob."""
        sha = artifact.files.get(name)
        return self.blob(sha) if sha else None

    # -- write path --------------------------------------------------------

    def put(
        self,
        stage: str | Stage,
        name: str,
        *,
        kind: str,
        payload: Mapping[str, Any] | None = None,
        files: Mapping[str, bytes] | None = None,
        refs: tuple[Ref, ...] = (),
    ) -> Artifact:
        """Store an artifact; returns it (existing or newly written).

        Identical content under the same key is a no-op (``deduped``
        tick, zero writes) — the property ``repro report`` idempotence
        rests on.  Different content under the same key supersedes it:
        the key tracks the latest artifact, prior blobs become GC-able
        orphans.  Raises ``OSError`` when the backend cannot persist.
        """
        file_hashes = {fname: hash_bytes(data) for fname, data in (files or {}).items()}
        artifact = Artifact.build(
            stage, name, kind=kind, payload=payload, files=file_hashes, refs=refs
        )
        key = self._manifest_key(stage, name)
        existing = self.backend.read(key)
        if existing is not None:
            try:
                prior = Artifact.from_manifest(json.loads(existing.decode("utf-8")))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                prior = None
            if prior is not None and prior.artifact_id == artifact.artifact_id:
                self.counters.deduped += 1
                return prior
        for fname, data in (files or {}).items():
            blob_key = self._blob_key(file_hashes[fname])
            if not self.backend.exists(blob_key):
                if not self.backend.write(blob_key, data):
                    raise OSError(f"store backend failed writing blob for {fname!r}")
        document = json.dumps(
            artifact.as_manifest(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        if not self.backend.write(key, document):
            raise OSError(f"store backend failed writing manifest {key!r}")
        self.counters.stores += 1
        get_tracer().count("store.stores")
        return artifact

    def quarantine(self, stage: str | Stage, name: str) -> None:
        """Move the manifest at ``(stage, name)`` aside as ``.corrupt``."""
        self._mark_corrupt(self._manifest_key(stage, name))

    def _mark_corrupt(self, key: str) -> None:
        self.counters.corrupt += 1
        get_tracer().count("store.corrupt")
        if self.backend.quarantine(key):
            self.counters.quarantined += 1
            get_tracer().count("store.quarantined")

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-ready counter snapshot (manifests, CLI summaries)."""
        return {**asdict(self.counters), "dir": str(self.root)}

    # -- garbage collection ------------------------------------------------

    def gc(
        self,
        *,
        max_age_days: float | None = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Prune the store; returns what was (or would be) reclaimed.

        * RAW manifests older than ``max_age_days`` (file mtime) are
          evicted — expired measurements recompute on next use;
        * blobs referenced by no manifest are orphans and are removed;
        * ``.corrupt`` / ``.tmp`` debris is swept.

        ``dry_run`` counts without deleting.  Ticks ``store.gc_removed``
        with the entry count.
        """
        report = GcReport(dry_run=dry_run)
        root = self.root
        if not root.is_dir():
            return report
        cutoff = time.time() - max_age_days * 86400.0 if max_age_days is not None else None

        def _remove(path: Path) -> int:
            size = path.stat().st_size if path.is_file() else 0
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    return 0
            return size

        for path in sorted(root.rglob("*")):
            if not path.is_file():
                continue
            key = path.relative_to(root).as_posix()
            if path.suffix in (".corrupt", ".tmp") or path.name.endswith(
                (".json.corrupt", ".json.tmp")
            ):
                report.reclaimed_bytes += _remove(path)
                report.swept_corrupt += 1
            elif cutoff is not None and key.startswith("raw/") and path.stat().st_mtime < cutoff:
                report.reclaimed_bytes += _remove(path)
                report.expired_raw += 1
                self.counters.evicted += 1

        referenced: set[str] = set()
        for stage in Stage:
            for key in self.backend.list(f"{stage.value}/"):
                raw = self.backend.read(key)
                if raw is None:
                    continue
                try:
                    artifact = Artifact.from_manifest(json.loads(raw.decode("utf-8")))
                except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                    continue
                referenced.update(artifact.files.values())
        for key in list(self.backend.list("blobs/")):
            sha = key.rsplit("/", 1)[-1]
            if sha not in referenced:
                path = self.backend.path(key)
                report.reclaimed_bytes += _remove(path)
                report.orphan_blobs += 1

        if not dry_run:
            for directory in sorted(root.rglob("*"), reverse=True):
                if directory.is_dir():
                    try:
                        directory.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        if report.removed:
            get_tracer().count("store.gc_removed", report.removed)
        return report
