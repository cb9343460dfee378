"""The curated-artifact registry: what ``results/`` is supposed to contain.

Every published artifact (paper table, figure, experiment, perf report)
has an :class:`ArtifactSpec` here declaring its display title, the files
it owns under ``results/`` (glob patterns — figure benches emit
parameterized SVG families), and whether it is **volatile**.  Volatile
artifacts carry wall-clock measurements (SLO latencies, speedup
timings) whose bytes legitimately differ between runs; they are stored
and listed but excluded from the report's input fingerprint and from
``repro report --check`` byte comparison.

:func:`publish_curated` snapshots one artifact's files into the store as
a CURATED artifact; :func:`adopt_results` blesses a whole on-disk
``results/`` tree (the fresh-clone bootstrap behind
``repro report --adopt``).  The registry's order is the report's section
order, replacing the ``_KNOWN`` list the old report generator kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.csvio import results_dir
from repro.store.artifact import Artifact, Stage
from repro.store.refs import Ref, code_ref
from repro.store.store import ArtifactStore

__all__ = [
    "ArtifactSpec",
    "SPECS",
    "spec_for",
    "artifact_files",
    "publish_curated",
    "adopt_results",
]


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered published artifact and the results/ files it owns."""

    name: str
    title: str
    patterns: tuple[str, ...]
    volatile: bool = False
    kind: str = "bench"


def _spec(name: str, title: str, *extra: str, volatile: bool = False, kind: str = "bench") -> ArtifactSpec:
    return ArtifactSpec(
        name=name,
        title=title,
        patterns=(f"{name}.txt", f"{name}.csv", *extra),
        volatile=volatile,
        kind=kind,
    )


#: Registry order == report section order.
SPECS: tuple[ArtifactSpec, ...] = (
    _spec("table1_replication_bounds", "Table 1 — replication-bound guarantees"),
    _spec("table2_memory_bounds", "Table 2 — memory-aware guarantees"),
    _spec("fig1_adversary", "Figure 1 — Theorem-1 adversary", "fig1_adversary.svg"),
    _spec("fig2_group_example", "Figure 2 — group replication example", "fig2_group_example.svg"),
    _spec("fig3_ratio_replication", "Figure 3 — ratio/replication tradeoff", "fig3_alpha_*.svg"),
    _spec("fig4_sabo_schedule", "Figure 4 — SABO schedule", "fig4_sabo_schedule.svg"),
    _spec("fig5_abo_schedule", "Figure 5 — ABO schedule", "fig5_abo_schedule.svg"),
    _spec("fig6_memory_makespan", "Figure 6 — memory/makespan tradeoff", "fig6_a2_*.svg"),
    _spec("e1_empirical_ratios", "E1 — empirical ratios vs guarantees"),
    _spec("e2_lower_bound_convergence", "E2 — lower-bound convergence"),
    _spec("e3_group_phase_ablation", "E3 — LS vs LPT group ablation"),
    _spec("e4_memory_pareto", "E4 — measured memory/makespan Pareto fronts"),
    _spec("e5_general_replication", "E5 — generalized replication policies"),
    _spec("e6_regime_map", "E6 — clairvoyance regime map"),
    _spec("e7_fault_tolerance", "E7 — fault tolerance"),
    _spec("e8_proof_verification", "E8 — numeric proof verification"),
    _spec("e9_robustness_metrics", "E9 — classical robustness metrics"),
    _spec("e10_estimate_refinement", "E10 — estimate refinement"),
    _spec("e11_capacity_sweep", "E11 — capacity sweep"),
    _spec("e12_abo_barrier_ablation", "E12 — ABO barrier ablation"),
    _spec("e13_minmax_regret", "E13 — min-max regret"),
    _spec("e14_risk_aware", "E14 — risk-aware placement"),
    _spec("e15_robust_vs_replication", "E15 — robust scheduling vs replication"),
    _spec("e16_scale_validation", "E16 — scale validation"),
    _spec("e7_slo_report", "E7 — operational SLO report", volatile=True),
    _spec(
        "perf_grid_parallel_speedup",
        "Perf — grid parallelism speedup",
        volatile=True,
        kind="perfbench",
    ),
    _spec(
        "perf_batch_backend_speedup",
        "Perf — batch backend speedup",
        volatile=True,
        kind="perfbench",
    ),
)

_BY_NAME = {spec.name: spec for spec in SPECS}


def spec_for(name: str) -> ArtifactSpec:
    """The registered spec for ``name``; unknown names get a default spec.

    Unknown artifacts are treated as deterministic txt/csv pairs so a new
    bench participates in fingerprinting the moment it emits — authors
    register a real spec to add figure files or volatility.
    """
    return _BY_NAME.get(name) or _spec(name, name)


def artifact_files(spec: ArtifactSpec, base: str | Path | None = None) -> dict[str, Path]:
    """The spec's files currently present under ``results/``, name-sorted."""
    d = results_dir(base)
    found: dict[str, Path] = {}
    for pattern in spec.patterns:
        for path in d.glob(pattern):
            if path.is_file():
                found[path.name] = path
    return dict(sorted(found.items()))


def publish_curated(
    name: str,
    *,
    store: ArtifactStore,
    base: str | Path | None = None,
    refs: tuple[Ref, ...] = (),
) -> Artifact | None:
    """Snapshot one artifact's on-disk files into the CURATED stage.

    Returns ``None`` when none of the spec's files exist yet.  Identical
    content is deduplicated by the store, so re-publishing an unchanged
    artifact writes nothing.
    """
    spec = spec_for(name)
    files = artifact_files(spec, base)
    if not files:
        return None
    payload = {"title": spec.title, "volatile": spec.volatile}
    return store.put(
        Stage.CURATED,
        name,
        kind=spec.kind,
        payload=payload,
        files={fname: path.read_bytes() for fname, path in files.items()},
        refs=refs,
    )


def adopt_results(
    store: ArtifactStore, base: str | Path | None = None
) -> list[Artifact]:
    """Bless every registered artifact found on disk into the store.

    The fresh-clone bootstrap: a checkout ships ``results/`` but no
    store; adopting publishes each registered artifact from its committed
    bytes so ``repro report`` / ``--check`` can resolve them without a
    full bench run.
    """
    adopted = []
    provenance = (code_ref("repro.store.publish"),)
    for spec in SPECS:
        artifact = publish_curated(spec.name, store=store, base=base, refs=provenance)
        if artifact is not None:
            adopted.append(artifact)
    return adopted
