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
* :mod:`repro.schedulers` — classical LS/LPT/MULTIFIT substrate;
* :mod:`repro.exact` — exact clairvoyant optimum (the ratio denominator);
* :mod:`repro.simulation` — discrete-event semi-clairvoyant executor;
* :mod:`repro.uncertainty` — realizations in the α-band, truthful and
  stochastic;
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

Every name below, and every subpackage, is imported on first access
(PEP 562), so ``import repro`` loads nothing a command does not use.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.adaptive": ("AdaptiveRefinement", "EstimateRefiner", "IterativeSession"),
        "repro.analysis": (
            "ExperimentGrid",
            "ExperimentRecord",
            "FaultRunRecord",
            "Series",
            "Summary",
            "availability_curve",
            "format_markdown_table",
            "format_table",
            "inflation_summary",
            "measured_ratio",
            "render_plot",
            "run_fault_grid",
            "run_grid",
            "run_strategy",
            "run_under_faults",
            "summarize",
            "survival_rate",
            "write_csv",
        ),
        "repro.core": (
            "FixedOrderPolicy",
            "Instance",
            "Placement",
            "Task",
            "TwoPhaseStrategy",
            "everywhere_placement",
            "group_placement",
            "make_instance",
            "single_machine_placement",
        ),
        "repro.core.adversary": (
            "exhaustive_worst_case",
            "greedy_worst_case",
            "theorem1_instance",
            "theorem1_realization",
        ),
        "repro.core.bounds": (
            "divisors",
            "lb_no_replication",
            "lb_no_replication_limit",
            "ub_graham_ls",
            "ub_lpt_classic",
            "ub_lpt_no_choice",
            "ub_lpt_no_restriction",
            "ub_lpt_no_restriction_raw",
            "ub_ls_group",
        ),
        "repro.core.strategies": (
            "BudgetedReplication",
            "LPTGroup",
            "LPTNoChoice",
            "LPTNoRestriction",
            "LSGroup",
            "NonClairvoyantLS",
            "OverlappingWindows",
            "SelectiveReplication",
        ),
        "repro.core.tradeoff": ("ratio_replication_series", "tradeoff_findings"),
        "repro.exact": ("optimal_makespan",),
        "repro.faults": (
            "CorrelatedFailure",
            "CrashRecover",
            "CrashStop",
            "DegradedInterval",
            "FaultModel",
            "FaultPlan",
            "RandomCrashes",
            "StragglerSlowdowns",
            "merge_plans",
        ),
        "repro.hetero": (
            "HeteroUncertainty",
            "RiskAwareReplication",
            "hetero_realization",
            "hetero_workload",
        ),
        "repro.obs": (
            "JsonlSink",
            "MemorySink",
            "MetricsRegistry",
            "RunManifest",
            "Tracer",
            "get_tracer",
            "observed",
        ),
        "repro.registry": (
            "Capabilities",
            "CapabilityError",
            "canonical_spec",
            "capabilities_of",
            "describe_strategy",
            "full_sweep",
            "make_strategy",
            "select_strategies",
            "strategy_entries",
            "strategy_names",
        ),
        "repro.robust": ("RobustPinnedPlacement",),
        "repro.memory": (
            "ABO",
            "SABO",
            "abo_curve",
            "impossibility_curve",
            "memory_lower_bound",
            "pareto_front",
            "sabo_curve",
            "sbo_split",
        ),
        "repro.simulation": ("ScheduleTrace", "SimulationError", "render_gantt", "simulate"),
        "repro.theory": ("ProofCheck", "verify_all"),
        "repro.uncertainty": (
            "Realization",
            "factors_realization",
            "sample_realization",
            "truthful_realization",
        ),
        "repro.workloads": (
            "bimodal_instance",
            "bounded_pareto_instance",
            "exponential_instance",
            "generate",
            "identical_instance",
            "planted_two_class",
            "staircase_instance",
            "uniform_instance",
        ),
    },
)
