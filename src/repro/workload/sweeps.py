"""Workload sweeps for the experimental-validation experiments (Figures 10-11).

The paper's measurement grid is: workstations 1..12 x problem sizes
{1, 2, 4, 8, 16} minutes x 10 repetitions, owner utilization ≈ 3%.
:class:`ValidationGrid` captures that grid, with every dimension overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.params import OwnerSpec
from .local_computation import PAPER_PROBLEM_MINUTES, LocalComputationProblem, standard_problem_ladder

__all__ = ["ValidationGrid"]

#: Owner utilization measured by the paper's uptime survey.
PAPER_MEASURED_UTILIZATION = 0.03

#: Workstation counts actually plotted in Figures 10-11.
PAPER_WORKSTATION_COUNTS: tuple[int, ...] = (1, 2, 4, 6, 8, 10, 12)


@dataclass(frozen=True)
class ValidationGrid:
    """The Section-4 measurement grid."""

    problem_minutes: Sequence[float] = PAPER_PROBLEM_MINUTES
    workstation_counts: Sequence[int] = PAPER_WORKSTATION_COUNTS
    replications: int = 10
    owner_utilization: float = PAPER_MEASURED_UTILIZATION
    owner_demand: float = 10.0
    seconds_per_unit: float = 1.0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications!r}")
        if not 0.0 <= self.owner_utilization < 1.0:
            raise ValueError(
                f"owner_utilization must be in [0, 1), got {self.owner_utilization!r}"
            )
        if not self.problem_minutes:
            raise ValueError("problem_minutes must not be empty")
        if not self.workstation_counts:
            raise ValueError("workstation_counts must not be empty")
        for w in self.workstation_counts:
            if int(w) < 1:
                raise ValueError(f"workstation counts must be >= 1, got {w!r}")

    @property
    def problems(self) -> list[LocalComputationProblem]:
        return standard_problem_ladder(self.problem_minutes, self.seconds_per_unit)

    @property
    def owner_spec(self) -> OwnerSpec:
        return OwnerSpec(demand=self.owner_demand, utilization=self.owner_utilization)
