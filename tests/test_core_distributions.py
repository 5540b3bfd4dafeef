"""Tests for repro.core.distributions."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from repro.core.distributions import (
    binomial_cdf,
    binomial_mean,
    binomial_pmf,
    binomial_variance,
    max_of_iid_cdf,
    max_of_iid_mean,
    max_of_iid_pmf,
)
from repro.core.distributions import _log_factorial


class TestBinomialPmf:
    def test_sums_to_one(self):
        for n, p in [(1, 0.5), (10, 0.1), (100, 0.01), (1000, 0.001), (5000, 0.02)]:
            pmf = binomial_pmf(n, p)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf.shape == (n + 1,)

    def test_matches_scipy(self):
        n, p = 50, 0.07
        expected = sps.binom.pmf(np.arange(n + 1), n, p)
        np.testing.assert_allclose(binomial_pmf(n, p), expected, rtol=1e-10)

    def test_log_factorial_matches_gammaln(self):
        k = np.arange(200_001)
        np.testing.assert_allclose(
            _log_factorial(k), special.gammaln(k + 1.0), rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize(
        "n, p",
        [(10, 0.3), (100, 0.01), (1000, 0.05), (10_000, 0.2), (50_000, 1e-4),
         (99_999, 0.2), (100_000, 0.001), (100_000, 0.5)],
    )
    def test_large_trials_match_scipy(self, n, p):
        pmf = binomial_pmf(n, p)
        k = np.arange(n + 1, dtype=np.float64)
        # Reference: the same log-space formula on scipy's gammaln.
        log_pmf = (
            special.gammaln(n + 1.0)
            - special.gammaln(k + 1.0)
            - special.gammaln(n - k + 1.0)
            + k * np.log(p)
            + (n - k) * np.log1p(-p)
        )
        gammaln_pmf = np.exp(log_pmf)
        gammaln_pmf /= gammaln_pmf.sum()
        kept = gammaln_pmf > 1e-300
        np.testing.assert_allclose(pmf[kept], gammaln_pmf[kept], rtol=1e-10)
        # Rounding ln n! (about 1e6 at n = 1e5) in float64 bounds both forms
        # to a few 1e-10 of the exact pmf.
        exact = sps.binom.pmf(k, n, p)
        kept = exact > 1e-300
        np.testing.assert_allclose(pmf[kept], exact[kept], rtol=1e-9)

    def test_small_case_exact(self):
        np.testing.assert_allclose(binomial_pmf(2, 0.5), [0.25, 0.5, 0.25])

    def test_zero_trials(self):
        np.testing.assert_allclose(binomial_pmf(0, 0.3), [1.0])

    def test_degenerate_probabilities(self):
        pmf0 = binomial_pmf(5, 0.0)
        assert pmf0[0] == 1.0 and pmf0[1:].sum() == 0.0
        pmf1 = binomial_pmf(5, 1.0)
        assert pmf1[-1] == 1.0 and pmf1[:-1].sum() == 0.0

    def test_large_trials_no_overflow(self):
        pmf = binomial_pmf(100_000, 0.0001)
        assert np.all(np.isfinite(pmf))
        assert pmf.sum() == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(10, 1.5)


class TestBinomialCdf:
    def test_monotone_and_ends_at_one(self):
        cdf = binomial_cdf(100, 0.05)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == 1.0
        assert np.all((cdf >= 0) & (cdf <= 1))

    def test_matches_scipy(self):
        n, p = 30, 0.2
        expected = sps.binom.cdf(np.arange(n + 1), n, p)
        np.testing.assert_allclose(binomial_cdf(n, p), expected, rtol=1e-9)


class TestBinomialMoments:
    def test_mean_and_variance(self):
        assert binomial_mean(100, 0.05) == pytest.approx(5.0)
        assert binomial_variance(100, 0.05) == pytest.approx(100 * 0.05 * 0.95)

    def test_zero_probability(self):
        assert binomial_mean(100, 0.0) == 0.0
        assert binomial_variance(100, 0.0) == 0.0


class TestMaxOfIid:
    def test_single_copy_is_identity(self):
        cdf = binomial_cdf(20, 0.1)
        np.testing.assert_allclose(max_of_iid_cdf(cdf, 1), cdf)

    def test_pmf_sums_to_one(self):
        cdf = binomial_cdf(50, 0.05)
        for w in (1, 2, 10, 100, 1000):
            pmf = max_of_iid_pmf(cdf, w)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_increases_with_count(self):
        cdf = binomial_cdf(100, 0.05)
        means = [max_of_iid_mean(cdf, w) for w in (1, 2, 10, 50, 200)]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_mean_of_single_matches_binomial_mean(self):
        cdf = binomial_cdf(200, 0.03)
        assert max_of_iid_mean(cdf, 1) == pytest.approx(200 * 0.03, rel=1e-9)

    def test_matches_monte_carlo(self, rng):
        n, p, w = 100, 0.05, 20
        cdf = binomial_cdf(n, p)
        analytic = max_of_iid_mean(cdf, w)
        samples = rng.binomial(n, p, size=(20000, w)).max(axis=1)
        assert analytic == pytest.approx(samples.mean(), rel=0.02)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            max_of_iid_cdf(binomial_cdf(10, 0.1), 0)
