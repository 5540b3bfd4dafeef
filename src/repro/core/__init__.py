"""Core analytical model, metrics and feasibility analysis.

This package implements the paper's primary contribution: the discrete-time
analytical model of a perfectly parallel job on non-dedicated workstations
(Section 2), the non-dedicated performance metrics including the *task ratio*
(Section 3.1), the scaled-problem analysis (Section 3.2) and the feasibility
thresholds of Section 5.
"""

from .analytical import (
    ModelEvaluation,
    evaluate,
    evaluate_inputs,
    expected_job_time,
    expected_task_time,
    job_time_distribution,
    job_time_quantile,
    job_time_survival,
    job_time_variance,
    sweep_utilizations,
    sweep_workstations,
    task_time_distribution,
    worst_case_task_time,
)
from .heterogeneous import (
    HeterogeneousEvaluation,
    HeterogeneousSystem,
    concentrated_utilizations,
    concentration_comparison,
    evaluate_heterogeneous,
    expected_job_time_heterogeneous,
    heterogeneous_job_time_distribution,
)
from .distributions import (
    binomial_cdf,
    binomial_mean,
    binomial_pmf,
    binomial_variance,
    max_of_iid_cdf,
    max_of_iid_mean,
    max_of_iid_pmf,
)
from .feasibility import (
    FeasibilityReport,
    assess_feasibility,
    feasibility_frontier,
    minimum_task_ratio,
    required_job_demand,
    weighted_efficiency_at_task_ratio,
)
from .metrics import (
    MetricSet,
    compute_metrics,
    efficiency,
    metrics_table,
    speedup,
    task_ratio,
    weighted_efficiency,
    weighted_speedup,
)
from .params import (
    STATIC_POLICY,
    FCFS_ADMISSION,
    JobArrivalSpec,
    JobClassSpec,
    JobSpec,
    ModelInputs,
    OwnerSpec,
    ScenarioSpec,
    StationSpec,
    SystemSpec,
    TaskRounding,
    request_probability_to_utilization,
    split_job_demand,
    utilization_to_request_probability,
)
from .scaling import (
    ScalingPoint,
    fixed_vs_scaled_comparison,
    response_time_inflation,
    scaled_job_time,
    scaled_speedup,
    scaled_sweep,
)

__all__ = [
    # params
    "JobSpec",
    "FCFS_ADMISSION",
    "JobArrivalSpec",
    "JobClassSpec",
    "OwnerSpec",
    "StationSpec",
    "ScenarioSpec",
    "STATIC_POLICY",
    "SystemSpec",
    "ModelInputs",
    "TaskRounding",
    "utilization_to_request_probability",
    "request_probability_to_utilization",
    "split_job_demand",
    # distributions
    "binomial_pmf",
    "binomial_cdf",
    "binomial_mean",
    "binomial_variance",
    "max_of_iid_cdf",
    "max_of_iid_pmf",
    "max_of_iid_mean",
    # analytical
    "ModelEvaluation",
    "evaluate",
    "evaluate_inputs",
    "expected_task_time",
    "expected_job_time",
    "task_time_distribution",
    "job_time_distribution",
    "job_time_quantile",
    "job_time_variance",
    "job_time_survival",
    "worst_case_task_time",
    # heterogeneous extension
    "HeterogeneousSystem",
    "HeterogeneousEvaluation",
    "heterogeneous_job_time_distribution",
    "expected_job_time_heterogeneous",
    "evaluate_heterogeneous",
    "concentrated_utilizations",
    "concentration_comparison",
    "sweep_workstations",
    "sweep_utilizations",
    # metrics
    "MetricSet",
    "compute_metrics",
    "metrics_table",
    "speedup",
    "weighted_speedup",
    "efficiency",
    "weighted_efficiency",
    "task_ratio",
    # feasibility
    "FeasibilityReport",
    "assess_feasibility",
    "minimum_task_ratio",
    "feasibility_frontier",
    "required_job_demand",
    "weighted_efficiency_at_task_ratio",
    # scaling
    "ScalingPoint",
    "scaled_job_time",
    "scaled_sweep",
    "scaled_speedup",
    "response_time_inflation",
    "fixed_vs_scaled_comparison",
]
