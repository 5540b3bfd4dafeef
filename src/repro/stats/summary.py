"""Summary containers for replicated simulation experiments.

The experimental-validation section of the paper runs each configuration 10
times and reports the mean of the runs; :class:`ReplicationSummary` captures
exactly that workflow (independent replications, mean, spread, optional
confidence interval) and :func:`summarize_replications` builds it from raw
per-replication observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .confidence import ConfidenceInterval, t_confidence_interval

__all__ = ["ReplicationSummary", "summarize_replications"]


@dataclass(frozen=True)
class ReplicationSummary:
    """Summary statistics over independent simulation replications."""

    name: str
    replications: int
    mean: float
    std: float
    minimum: float
    maximum: float
    interval: ConfidenceInterval | None

    @property
    def relative_spread(self) -> float:
        """Standard deviation relative to the mean (coefficient of variation)."""
        if self.mean == 0.0:
            return float("inf") if self.std > 0 else 0.0
        return self.std / abs(self.mean)

    def as_dict(self) -> dict[str, float]:
        result = {
            "replications": float(self.replications),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }
        if self.interval is not None:
            result["ci_half_width"] = self.interval.half_width
        return result


def summarize_replications(
    name: str,
    values: Sequence[float] | np.ndarray,
    confidence: float | None = 0.90,
) -> ReplicationSummary:
    """Summarise per-replication observations (mean of 10 runs in the paper).

    ``confidence`` may be ``None`` to skip interval construction (e.g. when a
    single replication is available).
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ValueError(f"no replications provided for {name!r}")
    interval = None
    if confidence is not None and data.size >= 2:
        interval = t_confidence_interval(data, confidence)
    return ReplicationSummary(
        name=name,
        replications=int(data.size),
        mean=float(np.mean(data)),
        std=float(np.std(data, ddof=1)) if data.size >= 2 else 0.0,
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
        interval=interval,
    )
