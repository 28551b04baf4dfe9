"""The Section 6 experiment harness.

Runs a grid of (estimator configuration × query parameter × sample
seed), optimizing and executing each query, and summarizes simulated
execution times the way the paper's figures do: time-vs-selectivity
curves per configuration, and mean/std tradeoff points per
configuration.
"""

from repro.experiments.perf import PerfStats
from repro.experiments.runner import (
    EstimatorConfig,
    ExperimentResult,
    ExperimentRunner,
    RunRecord,
    default_configs,
    penalty_configs,
    policy_arm,
    scenario_configs,
)
from repro.experiments.report import (
    format_selectivity_table,
    format_tradeoff_table,
    selectivity_csv,
    tradeoff_csv,
)
from repro.experiments.audit import (
    AuditEntry,
    audit_plan,
    format_audit,
)
from repro.experiments.sensitivity import (
    SensitivityReport,
    SweepPoint,
    format_sensitivity,
    sensitivity_sweep,
)
from repro.experiments.advisor import (
    ThresholdRecommendation,
    recommend_threshold,
)
from repro.experiments.figures import render_ascii_chart
from repro.experiments.paper_report import ReportConfig, generate_report
from repro.experiments.workload_mix import (
    LatencyProfile,
    MixComponent,
    format_latency_profiles,
    run_workload_mix,
)

__all__ = [
    "AuditEntry",
    "LatencyProfile",
    "MixComponent",
    "SensitivityReport",
    "SweepPoint",
    "ThresholdRecommendation",
    "audit_plan",
    "format_audit",
    "format_latency_profiles",
    "format_sensitivity",
    "ReportConfig",
    "generate_report",
    "recommend_threshold",
    "render_ascii_chart",
    "run_workload_mix",
    "selectivity_csv",
    "sensitivity_sweep",
    "tradeoff_csv",
    "EstimatorConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "PerfStats",
    "RunRecord",
    "default_configs",
    "penalty_configs",
    "policy_arm",
    "scenario_configs",
    "format_selectivity_table",
    "format_tradeoff_table",
]
