"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry is the *write* side of the telemetry spine: instrumented code
(the result cache, the sweep runner, the service worker and its shard loop)
increments process-global metrics here, and the *read* side — the service's
``GET /metrics`` route and the ``repro-experiments metrics`` CLI — renders a
snapshot as Prometheus exposition text (:mod:`repro.obs.prometheus`).

Design constraints, in order:

* **Pure observer.**  Nothing in this module touches the simulation's random
  streams or its event ordering; metrics can never perturb a result.  (The
  SL007 lint rule keeps this module out of the bitwise-pinned hot loops
  entirely.)
* **Thread-safe.**  The service mutates metrics from its worker thread while
  HTTP handler threads render snapshots; every mutation and every snapshot
  takes the metric's lock.
* **Process-local.**  Sweep workers are separate processes; their registries
  die with them.  Everything the spine reports is therefore counted in the
  *parent* (the runner observes per-point latencies that its workers measure
  and return), which is also the process the service scrapes.

Metrics follow Prometheus naming conventions (``*_total`` counters,
``*_seconds`` histograms) and support label dimensions::

    POINTS = REGISTRY.counter(
        "repro_sweep_points_total", "Points by execution path", ("path",))
    POINTS.labels(path="cached").inc(6)
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Iterator, Mapping, Sequence, TypeVar, cast

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets for wall-clock latencies, in seconds.  Log-ish
#: spacing from sub-millisecond cache replays to multi-minute shards.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

_INF = float("inf")

#: Prometheus metric- and label-name grammar; enforced at registration so the
#: rendered exposition text is parseable by construction.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


_MetricT = TypeVar("_MetricT", bound="_Metric")


def _validate_labels(
    labelnames: Sequence[str], labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected exactly the label names {tuple(labelnames)!r}, "
            f"got {tuple(sorted(labels))!r}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """One metric family: a name, its help text, and labelled children.

    A family declared with no label names *is* its single child — ``inc`` /
    ``set`` / ``observe`` work directly on it.  With label names, call
    :meth:`labels` to resolve (and memoise) the child for one label-value
    combination.
    """

    metric_type = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid Prometheus metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(str(n) for n in labelnames)
        for label in self.labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid Prometheus label name {label!r}")
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], "_Metric"] = {}
        if not self.labelnames:
            self._children[()] = self

    def labels(self: _MetricT, **labels: str) -> _MetricT:
        """The child tracking one label-value combination (memoised)."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} declares no labels")
        key = _validate_labels(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help_text)
                self._children[key] = child
            return cast(_MetricT, child)

    def samples(self) -> list[tuple[tuple[str, ...], "_Metric"]]:
        """Snapshot of ``(label values, child)`` pairs, insertion order."""
        with self._lock:
            return list(self._children.items())

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames!r}; "
                "resolve a child via .labels(...) first"
            )


class Counter(_Metric):
    """Monotonically increasing count (resets only with the process)."""

    metric_type = "counter"

    def __init__(self, name, help_text="", labelnames=()) -> None:
        super().__init__(name, help_text, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A value that can go up and down (queue depth, ETA)."""

    metric_type = "gauge"

    def __init__(self, name, help_text="", labelnames=()) -> None:
        super().__init__(name, help_text, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._require_leaf()
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Metric):
    """Bucketed distribution of observations (latencies, sizes).

    Buckets are declared by their *upper bounds*; a ``+Inf`` bucket is always
    appended, so ``observe`` can never lose a sample.  Rendering emits
    Prometheus's cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name,
        help_text="",
        labelnames=(),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate histogram buckets in {bounds!r}")
        if bounds and bounds[-1] == _INF:
            bounds = bounds[:-1]
        self.bounds = bounds  # finite upper bounds, ascending
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def labels(self, **labels: str) -> "Histogram":  # children share buckets
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} declares no labels")
        key = _validate_labels(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Histogram(self.name, self.help_text, buckets=self.bounds)
                self._children[key] = child
            return cast(Histogram, child)

    def observe(self, value: float) -> None:
        self._require_leaf()
        index = bisect.bisect_left(self.bounds, float(value))
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += float(value)
            self._count += 1

    def snapshot(self) -> tuple[list[tuple[float, int]], float, int]:
        """``(cumulative (le, count) pairs incl. +Inf, sum, count)``."""
        with self._lock:
            counts = list(self._bucket_counts)
            total_sum = self._sum
            total_count = self._count
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip((*self.bounds, _INF), counts):
            running += count
            cumulative.append((bound, running))
        return cumulative, total_sum, total_count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


class MetricsRegistry:
    """Process-global home of every metric family.

    Registration is idempotent: asking twice for the same name returns the
    existing family (so instrumented modules can declare their metrics at
    import time without worrying about import order or re-imports), but a
    type or label mismatch for an existing name raises — two subsystems
    silently sharing one metric under different meanings is exactly the bug
    a registry exists to prevent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls: type, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type}, not {cls.metric_type}"
                    )
                labelnames = tuple(kwargs.get("labelnames", ()))
                if tuple(existing.labelnames) != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames!r}, not {labelnames!r}"
                    )
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        metric = self._register(Counter, name, help_text, labelnames=labelnames)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        metric = self._register(Gauge, name, help_text, labelnames=labelnames)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            Histogram, name, help_text, labelnames=labelnames, buckets=buckets
        )
        assert isinstance(metric, Histogram)
        return metric

    def collect(self) -> Iterator[_Metric]:
        """Snapshot of every registered family, registration order."""
        with self._lock:
            return iter(list(self._metrics.values()))

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)


#: The process-global registry every instrumented subsystem writes to.
REGISTRY = MetricsRegistry()
