"""Tests for desim random variates, stream registry and monitors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.desim import (
    DeterministicVariate,
    ErlangVariate,
    ExponentialVariate,
    GeometricVariate,
    HyperExponentialVariate,
    StreamRegistry,
    TimeWeightedMonitor,
    UniformVariate,
    make_variate,
)


class TestVariates:
    def test_deterministic(self, rng):
        v = DeterministicVariate(7.0)
        assert v.mean == 7.0
        assert v.variance == 0.0
        assert v.sample(rng) == 7.0

    def test_geometric_moments_and_samples(self, rng):
        v = GeometricVariate(0.1)
        assert v.mean == pytest.approx(10.0)
        samples = np.array([v.sample(rng) for _ in range(20000)])
        assert samples.mean() == pytest.approx(10.0, rel=0.05)
        assert samples.min() >= 1.0

    def test_exponential_moments_and_samples(self, rng):
        v = ExponentialVariate(5.0)
        assert v.mean == 5.0
        assert v.variance == 25.0
        samples = np.array([v.sample(rng) for _ in range(20000)])
        assert samples.mean() == pytest.approx(5.0, rel=0.05)

    def test_hyperexponential_from_mean_and_cv(self, rng):
        v = HyperExponentialVariate.from_mean_and_cv(10.0, 4.0)
        assert v.mean == pytest.approx(10.0)
        assert v.squared_cv == pytest.approx(4.0, rel=1e-6)
        samples = np.array([v.sample(rng) for _ in range(50000)])
        assert samples.mean() == pytest.approx(10.0, rel=0.06)
        measured_cv2 = samples.var() / samples.mean() ** 2
        assert measured_cv2 == pytest.approx(4.0, rel=0.25)

    def test_hyperexponential_requires_cv_above_one(self):
        with pytest.raises(ValueError):
            HyperExponentialVariate.from_mean_and_cv(10.0, 0.5)

    def test_uniform(self, rng):
        v = UniformVariate(2.0, 6.0)
        assert v.mean == 4.0
        samples = np.array([v.sample(rng) for _ in range(5000)])
        assert samples.min() >= 2.0 and samples.max() <= 6.0

    def test_erlang(self, rng):
        v = ErlangVariate(4, 8.0)
        assert v.mean == 8.0
        assert v.variance == pytest.approx(16.0)
        samples = np.array([v.sample(rng) for _ in range(20000)])
        assert samples.mean() == pytest.approx(8.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicVariate(-1.0)
        with pytest.raises(ValueError):
            GeometricVariate(0.0)
        with pytest.raises(ValueError):
            ExponentialVariate(0.0)
        with pytest.raises(ValueError):
            UniformVariate(5.0, 1.0)
        with pytest.raises(ValueError):
            ErlangVariate(0, 1.0)


class TestMakeVariate:
    def test_all_kinds_preserve_mean(self):
        for kind in ("deterministic", "exponential", "hyperexponential", "uniform", "erlang"):
            v = make_variate(kind, 10.0)
            assert v.mean == pytest.approx(10.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_variate("weibull", 10.0)

    def test_hyperexponential_cv_parameter(self):
        v = make_variate("hyperexponential", 10.0, squared_cv=9.0)
        assert v.squared_cv == pytest.approx(9.0, rel=1e-6)


class TestStreamRegistry:
    def test_streams_are_reproducible(self):
        a = StreamRegistry(42).stream("owner").random(5)
        b = StreamRegistry(42).stream("owner").random(5)
        np.testing.assert_allclose(a, b)

    def test_named_streams_are_independent(self):
        registry = StreamRegistry(0)
        a = registry.stream("a").random(5)
        b = registry.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_same_name_returns_same_stream(self):
        registry = StreamRegistry(0)
        assert registry.stream("x") is registry.stream("x")
        assert "x" in registry and len(registry) == 1

    def test_different_seeds_differ(self):
        a = StreamRegistry(1).stream("s").random(5)
        b = StreamRegistry(2).stream("s").random(5)
        assert not np.allclose(a, b)

    def test_a_stream_is_its_creation_rank_not_its_name(self):
        # The first stream of each backend draws the same uniforms at one
        # seed; changing that would move every pinned sample.
        a = StreamRegistry(5).stream("monte-carlo").random(3)
        b = StreamRegistry(5).stream("monte-carlo-batch").random(3)
        np.testing.assert_array_equal(a, b)


class TestTimeWeightedMonitor:
    def test_time_average(self):
        monitor = TimeWeightedMonitor(initial_value=0.0, start_time=0.0)
        monitor.update(10.0, 1.0)   # 0 for [0,10)
        monitor.update(15.0, 0.0)   # 1 for [10,15)
        monitor.finalize(20.0)      # 0 for [15,20)
        assert monitor.time_average == pytest.approx(5.0 / 20.0)

    def test_non_decreasing_time_enforced(self):
        monitor = TimeWeightedMonitor()
        monitor.update(5.0, 1.0)
        with pytest.raises(ValueError):
            monitor.update(4.0, 0.0)

    def test_no_elapsed_time_raises(self):
        monitor = TimeWeightedMonitor()
        with pytest.raises(ValueError):
            _ = monitor.time_average

    def test_current_value(self):
        monitor = TimeWeightedMonitor(initial_value=2.0)
        assert monitor.current == 2.0
        monitor.update(1.0, 7.0)
        assert monitor.current == 7.0
