"""repro — Replicated Data Placement for Uncertain Scheduling.

A full reproduction of Chaubey & Saule, *Replicated Data Placement for
Uncertain Scheduling* (IPPS 2015): scheduling independent tasks on
identical machines when processing times are known only up to a
multiplicative factor α, and replicating task *data* across machines to
recover runtime flexibility.

Quickstart
----------
>>> import repro
>>> inst = repro.uniform_instance(n=40, m=6, alpha=1.5, seed=1)
>>> real = repro.sample_realization(inst, "log_uniform", seed=2)
>>> rec = repro.measured_ratio(repro.LSGroup(k=2), inst, real)
>>> rec.ratio <= repro.ub_ls_group(inst.alpha, inst.m, 2)
True

Layers
------
* :mod:`repro.core` — model, placements, the paper's strategies, bounds,
  adversaries, tradeoff analysis;
* :mod:`repro.schedulers` — classical LS/LPT/MULTIFIT/dual-approximation
  substrate;
* :mod:`repro.exact` — exact clairvoyant optimum (the ratio denominator);
* :mod:`repro.simulation` — discrete-event semi-clairvoyant executor;
* :mod:`repro.uncertainty` — the α-band, adversarial and stochastic
  realizations;
* :mod:`repro.memory` — the memory-aware model (SBO/SABO/ABO);
* :mod:`repro.workloads` — synthetic workload generators and suites;
* :mod:`repro.faults` — unified fault injection: crash-stop /
  crash-recover / degraded-speed / correlated fault plans and seeded
  generators;
* :mod:`repro.registry` — the declarative strategy-plugin registry:
  typed spec parsing, canonical round-tripping, capability flags;
* :mod:`repro.analysis` — experiment harness, stats, tables, plots;
* :mod:`repro.obs` — structured observability: spans, metrics, run
  provenance (no-op unless enabled).
"""

from repro.adaptive import AdaptiveRefinement, EstimateRefiner, IterativeSession
from repro.analysis import (
    ExperimentGrid,
    ExperimentRecord,
    FaultRunRecord,
    Series,
    Summary,
    availability_curve,
    format_markdown_table,
    format_table,
    inflation_summary,
    measured_ratio,
    render_plot,
    run_fault_grid,
    run_grid,
    run_strategy,
    run_under_faults,
    summarize,
    survival_rate,
    write_csv,
)
from repro.core import (
    FixedOrderPolicy,
    Instance,
    Placement,
    Task,
    TwoPhaseStrategy,
    everywhere_placement,
    group_placement,
    make_instance,
    single_machine_placement,
)
from repro.core.adversary import (
    exhaustive_worst_case,
    greedy_worst_case,
    theorem1_instance,
    theorem1_realization,
)
from repro.core.bounds import (
    divisors,
    lb_no_replication,
    lb_no_replication_limit,
    ub_graham_ls,
    ub_lpt_classic,
    ub_lpt_no_choice,
    ub_lpt_no_restriction,
    ub_lpt_no_restriction_raw,
    ub_ls_group,
)
from repro.core.strategies import (
    BudgetedReplication,
    LPTGroup,
    LPTNoChoice,
    LPTNoRestriction,
    LSGroup,
    NonClairvoyantLS,
    OverlappingWindows,
    SelectiveReplication,
)
from repro.core.tradeoff import ratio_replication_series, tradeoff_findings
from repro.exact import optimal_makespan
from repro.faults import (
    CorrelatedFailure,
    CrashRecover,
    CrashStop,
    DegradedInterval,
    FaultModel,
    FaultPlan,
    RackFailure,
    RandomCrashes,
    StragglerSlowdowns,
    merge_plans,
)
from repro.hetero import (
    HeteroUncertainty,
    RiskAwareReplication,
    hetero_realization,
    hetero_workload,
)
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    RunManifest,
    Tracer,
    get_tracer,
    observed,
)
from repro.registry import (
    Capabilities,
    CapabilityError,
    canonical_spec,
    capabilities_of,
    describe_strategy,
    full_sweep,
    make_strategy,
    select_strategies,
    strategy_entries,
    strategy_names,
)
from repro.robust import RobustPinnedPlacement
from repro.schedulers import PinnedBaseline
from repro.memory import (
    ABO,
    SABO,
    abo_curve,
    impossibility_curve,
    memory_lower_bound,
    pareto_front,
    sabo_curve,
    sbo_split,
)
from repro.simulation import ScheduleTrace, SimulationError, render_gantt, simulate
from repro.theory import ProofCheck, verify_all
from repro.uncertainty import (
    Realization,
    UncertaintyBand,
    band_from_interval,
    factors_realization,
    sample_realization,
    truthful_realization,
)
from repro.workloads import (
    bimodal_instance,
    bounded_pareto_instance,
    exponential_instance,
    generate,
    identical_instance,
    planted_two_class,
    staircase_instance,
    uniform_instance,
)

__version__ = "1.0.0"

__all__ = [
    # model
    "Task",
    "Instance",
    "make_instance",
    "Placement",
    "single_machine_placement",
    "everywhere_placement",
    "group_placement",
    "TwoPhaseStrategy",
    "FixedOrderPolicy",
    # strategies
    "LPTNoChoice",
    "LPTNoRestriction",
    "LSGroup",
    "LPTGroup",
    "SelectiveReplication",
    "BudgetedReplication",
    "OverlappingWindows",
    "NonClairvoyantLS",
    "PinnedBaseline",
    "AdaptiveRefinement",
    "make_strategy",
    "strategy_names",
    "full_sweep",
    # registry
    "Capabilities",
    "CapabilityError",
    "describe_strategy",
    "canonical_spec",
    "capabilities_of",
    "select_strategies",
    "strategy_entries",
    # bounds
    "lb_no_replication",
    "lb_no_replication_limit",
    "ub_lpt_no_choice",
    "ub_lpt_no_restriction",
    "ub_lpt_no_restriction_raw",
    "ub_graham_ls",
    "ub_lpt_classic",
    "ub_ls_group",
    "divisors",
    # tradeoff
    "ratio_replication_series",
    "tradeoff_findings",
    # adversary
    "theorem1_instance",
    "theorem1_realization",
    "exhaustive_worst_case",
    "greedy_worst_case",
    # exact
    "optimal_makespan",
    # simulation
    "simulate",
    "SimulationError",
    "ScheduleTrace",
    "render_gantt",
    # theory
    "verify_all",
    "ProofCheck",
    # adaptive
    "EstimateRefiner",
    "IterativeSession",
    # heterogeneous uncertainty
    "HeteroUncertainty",
    "hetero_realization",
    "hetero_workload",
    "RiskAwareReplication",
    "RobustPinnedPlacement",
    # uncertainty
    "UncertaintyBand",
    "band_from_interval",
    "Realization",
    "truthful_realization",
    "factors_realization",
    "sample_realization",
    # memory
    "SABO",
    "ABO",
    "sbo_split",
    "sabo_curve",
    "abo_curve",
    "impossibility_curve",
    "pareto_front",
    "memory_lower_bound",
    # workloads
    "uniform_instance",
    "exponential_instance",
    "bounded_pareto_instance",
    "bimodal_instance",
    "identical_instance",
    "staircase_instance",
    "planted_two_class",
    "generate",
    # observability
    "Tracer",
    "get_tracer",
    "observed",
    "MetricsRegistry",
    "MemorySink",
    "JsonlSink",
    "RunManifest",
    # analysis
    "run_strategy",
    "measured_ratio",
    "run_grid",
    "ExperimentGrid",
    "ExperimentRecord",
    "summarize",
    "Summary",
    "format_table",
    "format_markdown_table",
    "Series",
    "render_plot",
    "write_csv",
    # faults + robustness
    "FaultPlan",
    "CrashStop",
    "CrashRecover",
    "DegradedInterval",
    "CorrelatedFailure",
    "merge_plans",
    "FaultModel",
    "RandomCrashes",
    "RackFailure",
    "StragglerSlowdowns",
    "FaultRunRecord",
    "run_under_faults",
    "run_fault_grid",
    "survival_rate",
    "inflation_summary",
    "availability_curve",
]
