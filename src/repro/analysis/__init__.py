"""Experiment harness: runs, ratios, statistics, tables, plots, CSV.

The sweep substrate behind every empirical paper artifact: the grid
driver (:mod:`~repro.analysis.experiment`) with its parallel backend
(:mod:`~repro.analysis.parallel`) and on-disk cell cache
(:mod:`~repro.analysis.cache`), the per-cell measurement kernel
(:mod:`~repro.analysis.ratios`), and the reporting stack the benches
render artifacts with.  Each name below is imported on first access
(PEP 562), so importing one submodule does not load the others.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.analysis.ascii_plot": ("Series", "render_plot"),
        "repro.analysis.cache": ("CellCache", "cell_fingerprint"),
        "repro.analysis.calibration": (
            "alpha_from_residual_model",
            "calibration_report",
            "fit_alpha",
        ),
        "repro.analysis.comparison": (
            "PairedComparison",
            "compare_strategies",
            "sign_test_pvalue",
        ),
        "repro.analysis.csvio": ("read_csv", "results_dir", "write_csv"),
        "repro.analysis.experiment": (
            "ExperimentGrid",
            "ExperimentRecord",
            "RetryPolicy",
            "SkippedCell",
            "run_grid",
        ),
        "repro.analysis.ratios": (
            "RatioRecord",
            "StrategyOutcome",
            "measured_ratio",
            "run_strategy",
        ),
        "repro.analysis.regimes": (
            "alpha_crossovers",
            "clairvoyance_value",
            "dominant_strategy_map",
            "replication_value",
        ),
        "repro.analysis.regret": (
            "ScenarioEvaluation",
            "build_scenarios",
            "evaluate_scenarios",
            "minmax_regret_choice",
        ),
        "repro.analysis.robustness": (
            "FaultRunRecord",
            "availability_curve",
            "inflation_summary",
            "restart_total",
            "run_fault_grid",
            "run_under_faults",
            "survival_rate",
        ),
        "repro.analysis.sensitivity": (
            "robustness_radius",
            "single_task_sensitivity",
            "slack_profile",
            "worst_single_inflation",
        ),
        "repro.analysis.stats": ("Summary", "ci_halfwidth", "summarize"),
        "repro.analysis.svg_plot": ("SvgSeries", "render_svg_chart", "render_svg_gantt"),
        "repro.analysis.tables": ("format_markdown_table", "format_table", "format_value"),
    },
)
