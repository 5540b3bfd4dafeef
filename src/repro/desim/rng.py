"""Random-variate streams for the simulator.

CSIM provides named random streams per model component; we mirror that with
:class:`StreamRegistry`, which hands out independent, reproducibly seeded
:class:`numpy.random.Generator` streams, plus a small family of variate
distributions used by the cluster simulator:

* :class:`DeterministicVariate` — the paper's baseline owner service demand,
* :class:`GeometricVariate` — the paper's owner think time (discrete),
* :class:`ExponentialVariate` and :class:`HyperExponentialVariate` — the
  higher-variance owner-demand alternatives the paper lists as future work
  (used by the variance ablation),
* :class:`UniformVariate` and :class:`ErlangVariate` — additional shapes for
  sensitivity studies,
* :class:`SequenceVariate` — a deterministic replay of recorded values
  (the building block of trace-driven owners).

All variates share a tiny ``sample(rng)`` protocol so the simulator can be
parameterised with any of them.

Pre-draw hooks
--------------
Each built-in variate additionally exposes

* ``draws_rng`` — ``False`` when :meth:`sample` never touches the generator
  (deterministic and sequence variates), and
* ``sample_batch(rng, size)`` — ``size`` samples **bitwise-identical** to
  ``size`` sequential :meth:`sample` calls on the same generator state.

Together these let the array kernel (:mod:`repro.kernel`) pre-draw a
component's variates in bulk without perturbing any stream: batching is only
sound when no *other* draw interleaves on the same stream, which the caller
can prove exactly when the interleaved variate has ``draws_rng == False``.
Single-distribution variates batch through the vectorised numpy call (numpy
guarantees ``rng.dist(size=n)`` consumes the bit stream exactly like ``n``
scalar calls); the two-phase hyper-exponential interleaves two distributions
per sample, so its ``sample_batch`` falls back to a scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Variate",
    "DeterministicVariate",
    "GeometricVariate",
    "ExponentialVariate",
    "HyperExponentialVariate",
    "UniformVariate",
    "ErlangVariate",
    "SequenceVariate",
    "StreamRegistry",
    "make_variate",
]


@runtime_checkable
class Variate(Protocol):
    """Protocol for a random variate: a mean and a ``sample`` method."""

    @property
    def mean(self) -> float:  # pragma: no cover - protocol
        ...

    def sample(self, rng: np.random.Generator) -> float:  # pragma: no cover
        ...


@dataclass(frozen=True)
class DeterministicVariate:
    """Always returns ``value`` (zero variance)."""

    value: float

    draws_rng = False

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"value must be >= 0, got {self.value!r}")

    @property
    def mean(self) -> float:
        return float(self.value)

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.value)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, float(self.value))


@dataclass(frozen=True)
class GeometricVariate:
    """Discrete geometric variate with success probability ``prob`` (support >= 1)."""

    prob: float

    draws_rng = True

    def __post_init__(self) -> None:
        if not 0.0 < self.prob <= 1.0:
            raise ValueError(f"prob must be in (0, 1], got {self.prob!r}")

    @property
    def mean(self) -> float:
        return 1.0 / self.prob

    @property
    def variance(self) -> float:
        return (1.0 - self.prob) / self.prob**2

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.geometric(self.prob))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # int64 -> float64 is exact for every plausible geometric magnitude.
        return rng.geometric(self.prob, size=size).astype(np.float64)


@dataclass(frozen=True)
class ExponentialVariate:
    """Exponential variate with the given ``mean`` (squared CV = 1)."""

    mean_value: float

    draws_rng = True

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")

    @property
    def mean(self) -> float:
        return float(self.mean_value)

    @property
    def variance(self) -> float:
        return float(self.mean_value) ** 2

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_value))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size=size)


@dataclass(frozen=True)
class HyperExponentialVariate:
    """Two-phase hyper-exponential variate (squared CV > 1).

    With probability ``prob_fast`` the sample is exponential with mean
    ``mean_fast``; otherwise exponential with mean ``mean_slow``.  This is the
    classic model of highly variable interactive process demands (Sauer &
    Chandy); the paper cites exactly this variability as the reason its
    deterministic assumption is optimistic.
    """

    prob_fast: float
    mean_fast: float
    mean_slow: float

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_fast < 1.0:
            raise ValueError(f"prob_fast must be in (0, 1), got {self.prob_fast!r}")
        if self.mean_fast <= 0 or self.mean_slow <= 0:
            raise ValueError("phase means must be positive")

    @property
    def mean(self) -> float:
        return self.prob_fast * self.mean_fast + (1.0 - self.prob_fast) * self.mean_slow

    @property
    def variance(self) -> float:
        second_moment = (
            self.prob_fast * 2.0 * self.mean_fast**2
            + (1.0 - self.prob_fast) * 2.0 * self.mean_slow**2
        )
        return second_moment - self.mean**2

    @property
    def squared_cv(self) -> float:
        """Squared coefficient of variation (1 would be exponential)."""
        return self.variance / self.mean**2

    draws_rng = True

    def sample(self, rng: np.random.Generator) -> float:
        if rng.random() < self.prob_fast:
            return float(rng.exponential(self.mean_fast))
        return float(rng.exponential(self.mean_slow))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Two interleaved distributions per sample: a vectorised draw would
        # reorder the bit stream, so batch by looping the scalar path.
        return np.array([self.sample(rng) for _ in range(size)])

    @classmethod
    def from_mean_and_cv(cls, mean: float, squared_cv: float) -> "HyperExponentialVariate":
        """Construct a balanced-means hyper-exponential with the given mean and CV².

        Uses the standard two-moment fit with balanced phase loads.  ``squared_cv``
        must exceed 1 (otherwise use Erlang or exponential).
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        if squared_cv <= 1.0:
            raise ValueError(
                f"squared_cv must be > 1 for a hyper-exponential, got {squared_cv!r}"
            )
        # Balanced-means fit: p1 = (1 + sqrt((c2-1)/(c2+1))) / 2.
        import math

        p_fast = 0.5 * (1.0 + math.sqrt((squared_cv - 1.0) / (squared_cv + 1.0)))
        mean_fast = mean / (2.0 * p_fast)
        mean_slow = mean / (2.0 * (1.0 - p_fast))
        return cls(prob_fast=p_fast, mean_fast=mean_fast, mean_slow=mean_slow)


@dataclass(frozen=True)
class UniformVariate:
    """Uniform variate over ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"need 0 <= low <= high, got [{self.low}, {self.high}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    draws_rng = True

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)


@dataclass(frozen=True)
class ErlangVariate:
    """Erlang-k variate (sum of ``k`` exponentials), squared CV = 1/k < 1."""

    k: int
    mean_value: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")

    @property
    def mean(self) -> float:
        return float(self.mean_value)

    @property
    def variance(self) -> float:
        return self.mean_value**2 / self.k

    draws_rng = True

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.k, self.mean_value / self.k))

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.k, self.mean_value / self.k, size=size)


@dataclass
class SequenceVariate:
    """Deterministic replay of a recorded value sequence, cycling forever.

    ``sample`` ignores the generator entirely: the next value comes from an
    optional non-repeating ``prefix`` (consumed once, e.g. the initial think
    time of a trace measured from its origin) followed by ``values`` cycled
    indefinitely.  The ``mean`` and ``variance`` describe the steady-state
    cycle (the prefix has vanishing long-run weight).
    """

    values: tuple[float, ...]
    prefix: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.values = tuple(float(v) for v in self.values)
        self.prefix = tuple(float(v) for v in self.prefix)
        if not self.values:
            raise ValueError("a sequence variate needs at least one value")
        for value in self.values + self.prefix:
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(
                    f"sequence values must be finite and >= 0, got {value!r}"
                )
        self._cursor = 0

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def variance(self) -> float:
        return float(np.var(self.values))

    draws_rng = False

    def sample(self, rng: np.random.Generator) -> float:
        if self._cursor < len(self.prefix):
            value = self.prefix[self._cursor]
        else:
            value = self.values[
                (self._cursor - len(self.prefix)) % len(self.values)
            ]
        self._cursor += 1
        return value

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Stateful cursor: batching is just the scalar path, repeated.
        return np.array([self.sample(rng) for _ in range(size)])


def make_variate(kind: str, mean: float, **kwargs) -> Variate:
    """Factory used by the ablation experiments to build owner-demand variates.

    ``kind`` is one of ``"deterministic"``, ``"exponential"``,
    ``"hyperexponential"`` (requires ``squared_cv``), ``"uniform"`` (spread of
    ``±mean``), or ``"erlang"`` (requires ``k``), all with the given mean.
    """
    kind = kind.lower()
    if kind == "deterministic":
        return DeterministicVariate(mean)
    if kind == "exponential":
        return ExponentialVariate(mean)
    if kind == "hyperexponential":
        squared_cv = float(kwargs.get("squared_cv", 4.0))
        return HyperExponentialVariate.from_mean_and_cv(mean, squared_cv)
    if kind == "uniform":
        return UniformVariate(0.0, 2.0 * mean)
    if kind == "erlang":
        k = int(kwargs.get("k", 2))
        return ErlangVariate(k, mean)
    raise ValueError(f"unknown variate kind {kind!r}")


class StreamRegistry:
    """Named, independent random streams with reproducible seeding.

    Each stream is a child of a single :class:`numpy.random.SeedSequence`, so
    the whole simulation is reproducible from one seed while distinct model
    components (owner arrivals, owner demands, task placement, ...) draw from
    statistically independent streams — the standard CSIM / simulation
    methodology for variance control.
    """

    def __init__(self, seed: int | None = 0) -> None:
        self._seed_sequence = np.random.SeedSequence(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._spawned = 0

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream with the given name.

        A registry's n-th new stream is its n-th spawned child, whatever its
        name: the name only finds the stream again.  So
        ``StreamRegistry(5).stream("monte-carlo")`` and
        ``StreamRegistry(5).stream("monte-carlo-batch")`` draw the same
        uniforms, and two backends run at one seed draw correlated samples.
        Use :meth:`derive_seed` for streams that must depend on a name.
        """
        if name not in self._streams:
            child = self._seed_sequence.spawn(1)[0]
            self._streams[name] = np.random.default_rng(child)
            self._spawned += 1
        return self._streams[name]

    def derive_seed(self, name: str) -> int:
        """Derive a stable integer seed for an independent child simulation.

        Unlike :meth:`stream`, the result depends only on this registry's root
        entropy and ``name`` — not on how many streams were created before —
        so sweep engines can hand every grid point its own seed and the
        point's samples stay identical when the grid is reordered, subset or
        executed in parallel.  The returned value fits in 63 bits (a valid
        seed for :class:`numpy.random.SeedSequence` and friends).
        """
        import hashlib

        digest = hashlib.sha256(name.encode("utf-8")).digest()
        spawn_key = int.from_bytes(digest[:8], "little")
        child = np.random.SeedSequence(
            entropy=self._seed_sequence.entropy, spawn_key=(spawn_key,)
        )
        return int(child.generate_state(1, np.uint64)[0] >> 1)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __len__(self) -> int:
        return len(self._streams)
