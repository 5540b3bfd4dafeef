"""Workload generation: owner-activity traces and the local-computation problem."""

from .local_computation import (
    PAPER_PROBLEM_MINUTES,
    SECONDS_PER_UNIT,
    LocalComputationProblem,
    standard_problem_ladder,
)
from .owner_traces import (
    TRIVIAL_USAGE_MIX,
    ActivityType,
    MixedOwnerDemand,
    OwnerActivityTrace,
    generate_trace,
    measure_utilization,
    trivial_usage_behavior,
    uptime_survey,
)
from .sweeps import (
    PAPER_MEASURED_UTILIZATION,
    PAPER_WORKSTATION_COUNTS,
    ValidationGrid,
)

__all__ = [
    "LocalComputationProblem",
    "standard_problem_ladder",
    "PAPER_PROBLEM_MINUTES",
    "SECONDS_PER_UNIT",
    "ActivityType",
    "TRIVIAL_USAGE_MIX",
    "MixedOwnerDemand",
    "OwnerActivityTrace",
    "generate_trace",
    "measure_utilization",
    "uptime_survey",
    "trivial_usage_behavior",
    "ValidationGrid",
    "PAPER_MEASURED_UTILIZATION",
    "PAPER_WORKSTATION_COUNTS",
]
