"""Tests for repro.stats: confidence intervals, batch means, replications."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro.stats import (
    BatchMeansResult,
    ConfidenceInterval,
    batch_means_interval,
    batch_observations,
    lag1_autocorrelation,
    summarize_replications,
    t_confidence_interval,
)
from repro.stats.confidence import t_critical


class TestConfidenceInterval:
    def test_basic_interval(self):
        ci = t_confidence_interval([10.0, 11.0, 9.0, 10.5, 9.5], confidence=0.90)
        assert ci.mean == pytest.approx(10.0)
        assert ci.lower < 10.0 < ci.upper
        assert ci.sample_size == 5
        assert ci.contains(10.0)
        assert not ci.contains(15.0)

    def test_higher_confidence_wider(self):
        data = np.random.default_rng(0).normal(size=30)
        narrow = t_confidence_interval(data, confidence=0.80)
        wide = t_confidence_interval(data, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_constant_data_zero_width(self):
        ci = t_confidence_interval([5.0] * 10)
        assert ci.half_width == 0.0
        assert ci.relative_half_width == 0.0

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=100.0, half_width=1.0, confidence=0.9, sample_size=20)
        assert ci.relative_half_width == pytest.approx(0.01)

    def test_zero_mean_relative_width(self):
        ci = ConfidenceInterval(mean=0.0, half_width=1.0, confidence=0.9, sample_size=20)
        assert ci.relative_half_width == float("inf")

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            t_confidence_interval([1.0])

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            t_confidence_interval([1.0, 2.0], confidence=1.5)

    def test_coverage_on_normal_data(self):
        # ~90% of 90% CIs should contain the true mean.
        rng = np.random.default_rng(7)
        hits = 0
        trials = 300
        for _ in range(trials):
            data = rng.normal(loc=10.0, scale=2.0, size=25)
            ci = t_confidence_interval(data, confidence=0.90)
            hits += ci.contains(10.0)
        assert 0.84 <= hits / trials <= 0.96

    def test_str_rendering(self):
        ci = t_confidence_interval([1.0, 2.0, 3.0])
        assert "±" in str(ci)


class TestTCritical:
    @pytest.mark.parametrize(
        "df", [*range(1, 60), 99, 100, 199, 500, 999, 1000, 1001, 2000, 4999, 10_000]
    )
    def test_matches_scipy_quantile(self, df):
        confidences = np.linspace(0.5, 0.999, 25)
        ours = [t_critical(float(c), df) for c in confidences]
        reference = sps.t.ppf(0.5 + confidences / 2.0, df)
        np.testing.assert_allclose(ours, reference, rtol=1e-11)

    @pytest.mark.parametrize("confidence, df", [(0.0, 5), (1.0, 5), (0.9, 0)])
    def test_invalid_arguments(self, confidence, df):
        with pytest.raises(ValueError):
            t_critical(confidence, df)


class TestBatchObservations:
    def test_shapes(self):
        data = np.arange(100, dtype=float)
        means = batch_observations(data, 20)
        assert means.shape == (20,)
        assert means[0] == pytest.approx(np.mean(np.arange(5)))

    def test_trailing_observations_discarded(self):
        data = np.arange(103, dtype=float)
        means = batch_observations(data, 20)
        assert means.shape == (20,)

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            batch_observations([1.0, 2.0], 20)

    def test_too_few_batches(self):
        with pytest.raises(ValueError):
            batch_observations(np.arange(100), 1)


class TestBatchMeans:
    def test_paper_setup_defaults(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(scale=100.0, size=20_000)
        result = batch_means_interval(data)
        assert isinstance(result, BatchMeansResult)
        assert result.num_batches == 20
        assert result.batch_size == 1000
        assert result.total_observations == 20_000
        assert result.mean == pytest.approx(100.0, rel=0.05)
        # The paper reports <= 1% relative half-width at 90% confidence.
        assert result.meets_precision(0.02)

    def test_iid_batches_low_autocorrelation(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=10_000)
        result = batch_means_interval(data)
        assert abs(result.batch_lag1_autocorrelation) < 0.6

    def test_interval_covers_true_mean(self):
        rng = np.random.default_rng(11)
        data = rng.gamma(shape=2.0, scale=5.0, size=20_000)  # mean 10
        result = batch_means_interval(data)
        assert result.interval.contains(10.0) or abs(result.mean - 10.0) < 0.3


class TestLag1Autocorrelation:
    def test_iid_near_zero(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=5000)
        assert abs(lag1_autocorrelation(data)) < 0.05

    def test_positively_correlated_series(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(size=5000)
        series = np.convolve(noise, np.ones(10) / 10, mode="valid")
        assert lag1_autocorrelation(series) > 0.5

    def test_constant_series(self):
        assert lag1_autocorrelation([3.0] * 100) == 0.0

    def test_tiny_series(self):
        assert lag1_autocorrelation([1.0, 2.0]) == 0.0


class TestReplications:
    def test_summary_fields(self):
        summary = summarize_replications("metric", [10.0, 12.0, 11.0, 9.0, 13.0])
        assert summary.replications == 5
        assert summary.mean == pytest.approx(11.0)
        assert summary.minimum == 9.0
        assert summary.maximum == 13.0
        assert summary.interval is not None
        assert summary.relative_spread > 0

    def test_single_replication(self):
        summary = summarize_replications("metric", [10.0])
        assert summary.std == 0.0
        assert summary.interval is None

    def test_no_interval_requested(self):
        summary = summarize_replications("metric", [1.0, 2.0], confidence=None)
        assert summary.interval is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_replications("metric", [])

    def test_as_dict(self):
        d = summarize_replications("metric", [1.0, 2.0, 3.0]).as_dict()
        assert d["replications"] == 3.0
        assert "ci_half_width" in d
