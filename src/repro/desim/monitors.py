"""Observation collectors ("monitors") for simulation output.

CSIM attaches tables/meters to model components to collect statistics; the
:class:`TimeWeightedMonitor` plays the same role for piecewise-constant
quantities like "is the owner using the CPU?", which is how the simulator
measures the realised owner utilization.
"""

from __future__ import annotations

__all__ = ["TimeWeightedMonitor"]


class TimeWeightedMonitor:
    """Time-averaged statistics of a piecewise-constant signal.

    Call :meth:`update` whenever the observed value changes; the monitor
    integrates the signal over simulated time.  The time-average between the
    first update and :meth:`finalize` (or the latest update) is available as
    :attr:`time_average`.
    """

    def __init__(self, name: str = "", initial_value: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._current = float(initial_value)
        self._last_time = float(start_time)
        self._start_time = float(start_time)
        self._area = 0.0
        self._end_time: float | None = None

    def update(self, time: float, value: float) -> None:
        """Record that the signal changed to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"time must be non-decreasing: {time} < {self._last_time}"
            )
        self._area += self._current * (time - self._last_time)
        self._current = float(value)
        self._last_time = float(time)

    def finalize(self, time: float) -> None:
        """Close the observation window at ``time``."""
        self.update(time, self._current)
        self._end_time = float(time)

    @property
    def current(self) -> float:
        return self._current

    @property
    def elapsed(self) -> float:
        end = self._end_time if self._end_time is not None else self._last_time
        return end - self._start_time

    @property
    def time_average(self) -> float:
        """Time-weighted mean of the signal over the observation window."""
        if self.elapsed <= 0:
            raise ValueError(f"monitor {self.name!r} has observed no elapsed time")
        return self._area / self.elapsed
