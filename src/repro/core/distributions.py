"""Discrete probability distributions used by the analytical model.

The analytical model of the paper needs two distributions:

* the **binomial** distribution of the number of owner interruptions suffered
  by one task (Eq. 2), and
* the distribution of the **maximum** of ``W`` i.i.d. binomials, which gives
  the job completion time (Eqs. 4-6).

All pmf/cdf evaluations are vectorised over the support and computed in log
space (from the log-factorial table of :func:`_log_factorial`) so that large
task demands (``T`` in the tens of thousands, as needed for the scaled-problem
experiments) do not overflow or lose precision.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "binomial_pmf",
    "binomial_cdf",
    "binomial_mean",
    "binomial_variance",
    "max_of_iid_cdf",
    "max_of_iid_pmf",
    "max_of_iid_mean",
]


#: ``ln k!`` for ``k <= 32``; Stirling's series covers every larger ``k``.
_SMALL_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(33)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(values: NDArray[np.int64]) -> NDArray[np.float64]:
    """``ln k!`` for each non-negative integer ``k`` of ``values``.

    ``math.lgamma`` up to 32; above that, Stirling's series for
    ``ln Gamma(z)`` at ``z = k + 1`` with four correction terms, whose
    truncation error (``< 1 / (1188 z**9)``) is below double precision.
    """
    z = values + 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    series = 1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))
    out: NDArray[np.float64] = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + inv * series
    small = values < _SMALL_LOG_FACTORIALS.size
    out[small] = _SMALL_LOG_FACTORIALS[values[small]]
    return out


def _validate_trials_prob(trials: int, prob: float) -> None:
    if trials < 0:
        raise ValueError(f"number of trials must be >= 0, got {trials!r}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {prob!r}")


def binomial_pmf(trials: int, prob: float) -> NDArray[np.float64]:
    """Full probability mass function of ``Binomial(trials, prob)``.

    Returns an array of length ``trials + 1`` whose ``k``-th entry is
    ``P(N = k)`` (Eq. 2 of the paper).  Computed in log space for numerical
    stability; degenerate cases (``prob`` of 0 or 1, ``trials`` of 0) are
    handled exactly.

    >>> binomial_pmf(2, 0.5).tolist()
    [0.25, 0.5, 0.25]
    """
    _validate_trials_prob(trials, prob)
    n = int(trials)
    if n == 0:
        return np.array([1.0])
    if prob == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if prob == 1.0:
        out = np.zeros(n + 1)
        out[-1] = 1.0
        return out
    k = np.arange(n + 1)
    log_factorials = _log_factorial(k)
    log_coeff = log_factorials[n] - log_factorials - log_factorials[::-1]
    log_pmf = log_coeff + k * math.log(prob) + (n - k) * math.log1p(-prob)
    pmf = np.exp(log_pmf)
    # Renormalise tiny floating error so the mass sums to exactly one; this
    # keeps the max-order-statistic powers well behaved for very large W.
    total = pmf.sum()
    if total > 0:
        pmf /= total
    return pmf


def binomial_cdf(trials: int, prob: float) -> NDArray[np.float64]:
    """Cumulative distribution ``S[n] = P(N <= n)`` of Eq. 4, for all ``n``.

    Returns an array of length ``trials + 1``; the last entry is exactly 1,
    so an inverse-CDF lookup (the Monte-Carlo sampler's ``searchsorted``)
    never indexes past the support because of round-off in the tail.
    """
    pmf = binomial_pmf(trials, prob)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    return np.clip(cdf, 0.0, 1.0)


def binomial_mean(trials: int, prob: float) -> float:
    """Mean of ``Binomial(trials, prob)`` (= ``trials * prob``)."""
    _validate_trials_prob(trials, prob)
    return float(trials) * float(prob)


def binomial_variance(trials: int, prob: float) -> float:
    """Variance of ``Binomial(trials, prob)``."""
    _validate_trials_prob(trials, prob)
    return float(trials) * float(prob) * (1.0 - float(prob))


def max_of_iid_cdf(cdf: NDArray[np.float64], count: int) -> NDArray[np.float64]:
    """CDF of the maximum of ``count`` i.i.d. variables with the given CDF.

    Implements Eq. 5 of the paper: ``C[W, n] = S[n] ** W``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return np.asarray(cdf, dtype=np.float64) ** int(count)


def max_of_iid_pmf(cdf: NDArray[np.float64], count: int) -> NDArray[np.float64]:
    """PMF of the maximum of ``count`` i.i.d. variables (Eq. 6).

    ``Max[W, n] = C[W, n] - C[W, n-1]`` with ``C[W, -1] = 0``.
    """
    max_cdf = max_of_iid_cdf(cdf, count)
    pmf = np.diff(max_cdf, prepend=0.0)
    return np.clip(pmf, 0.0, 1.0)


def max_of_iid_mean(cdf: NDArray[np.float64], count: int) -> float:
    """Mean of the maximum of ``count`` i.i.d. non-negative integer variables.

    Uses the survival-function identity ``E[max] = sum_n (1 - C[W, n])`` over
    ``n = 0 .. support-1``, which is numerically gentler than summing
    ``n * pmf`` when the pmf has long flat tails.
    """
    max_cdf = max_of_iid_cdf(cdf, count)
    # Support is 0..len(cdf)-1; E[X] = sum_{n=0}^{len-2} P(X > n).
    return float(np.sum(1.0 - max_cdf[:-1]))
