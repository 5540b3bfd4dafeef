"""Simulation output analysis: batch means, confidence intervals, replications."""

from .batch_means import (
    BatchMeansResult,
    batch_means_interval,
    batch_observations,
    lag1_autocorrelation,
    steady_state_interval,
    warmup_truncate,
)
from .confidence import ConfidenceInterval, t_confidence_interval
from .summary import ReplicationSummary, summarize_replications

__all__ = [
    "ConfidenceInterval",
    "t_confidence_interval",
    "BatchMeansResult",
    "batch_means_interval",
    "batch_observations",
    "lag1_autocorrelation",
    "warmup_truncate",
    "steady_state_interval",
    "ReplicationSummary",
    "summarize_replications",
]
