"""Content-addressed artifact store: the repo's unified provenance spine.

One store under ``.repro-store/`` holds every stage of the reproduction
pipeline — RAW measured grid cells (what the cell cache now adapts
onto), CURATED published ``results/`` artifacts, and the assembled
REPORT — each a content-addressed :class:`~repro.store.artifact.Artifact`
linked to its inputs by typed refs.  See docs/artifacts.md for the
layout, identity rules, and the ``repro report`` pipeline built on top.
"""

from repro.store.artifact import MANIFEST_VERSION, Artifact, Stage, compute_artifact_id
from repro.store.backend import LocalDirBackend
from repro.store.canonical import canonical_json, content_hash, hash_bytes, hash_file
from repro.store.publish import (
    SPECS,
    ArtifactSpec,
    adopt_results,
    artifact_files,
    publish_curated,
    spec_for,
)
from repro.store.refs import (
    ArtifactRef,
    CodeRef,
    ConfigRef,
    Ref,
    code_ref,
    config_ref,
    ref_from_dict,
)
from repro.store.session import RefRecorder, drain_raw_refs, record_raw_ref, recording
from repro.store.store import DEFAULT_STORE_DIR, ArtifactStore, GcReport, default_store_root

__all__ = [
    "Artifact",
    "ArtifactRef",
    "ArtifactSpec",
    "ArtifactStore",
    "CodeRef",
    "ConfigRef",
    "DEFAULT_STORE_DIR",
    "GcReport",
    "LocalDirBackend",
    "MANIFEST_VERSION",
    "Ref",
    "RefRecorder",
    "SPECS",
    "Stage",
    "adopt_results",
    "artifact_files",
    "canonical_json",
    "code_ref",
    "compute_artifact_id",
    "config_ref",
    "content_hash",
    "default_store_root",
    "drain_raw_refs",
    "hash_bytes",
    "hash_file",
    "publish_curated",
    "record_raw_ref",
    "recording",
    "ref_from_dict",
    "spec_for",
]
