"""Weakest-element lifetime of a conductor array (paper Sec. 3.3).

Each conductor ``i`` fails by time ``t`` with probability ``F_i(t)``,
the lognormal CDF with median from Black's equation and shared shape
``sigma``.  The array's first-failure CDF is

    P(t) = 1 - prod_i (1 - F_i(t)),

and the paper's metric is the ``t`` with ``P(t) = 0.5``, solved here by
Brent's method in log-time (``P`` is monotonic).  Arrays repeat the same
median many times (every conductor of a bundle carries the same
current), so the product runs over the distinct medians ``t50_k`` with
their multiplicities ``m_k`` and is evaluated as
``exp(sum_k m_k log1p(-F_k))``: arrays of 10^5 conductors with tiny
individual failure probabilities stay numerically exact, and each root
iteration evaluates the normal CDF once per distinct median (at most
one per bundle) instead of once per conductor.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.config.technology import EMParameters, default_em
from repro.utils.validation import check_positive


def lognormal_failure_cdf(t, median: float, sigma: float):
    """``F(t)`` of one conductor: lognormal(median, sigma)."""
    check_positive("median", median)
    check_positive("sigma", sigma)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    positive = t > 0
    out[positive] = ndtr((np.log(t[positive]) - np.log(median)) / sigma)
    return out if out.ndim else float(out)


def _distinct_medians(medians):
    """Sorted distinct medians ``t50_k`` and their multiplicities ``m_k``."""
    medians = np.asarray(medians, dtype=float)
    if medians.size == 0:
        raise ValueError("medians must be non-empty")
    return np.unique(medians, return_counts=True)


def _array_failure_cdf(
    t: float, log_medians: np.ndarray, counts: np.ndarray, sigma: float
) -> float:
    """``P(t) = 1 - exp(sum_k m_k log1p(-F_k(t)))``, for ``t > 0``."""
    f = ndtr((np.log(t) - log_medians) / sigma)
    # Clip to keep log1p finite when some conductor is certain to fail.
    f = np.minimum(f, 1.0 - 1e-16)
    log_survival = np.dot(counts, np.log1p(-f))
    return float(1.0 - np.exp(log_survival))


def array_failure_cdf(t: float, medians: np.ndarray, sigma: float) -> float:
    """``P(t) = 1 - prod(1 - F_i(t))`` for the whole array."""
    check_positive("sigma", sigma)
    if t <= 0:
        return 0.0
    distinct, counts = _distinct_medians(medians)
    return _array_failure_cdf(t, np.log(distinct), counts, sigma)


def expected_em_lifetime(
    medians: np.ndarray, em: EMParameters = None
) -> float:
    """The paper's expected EM-damage-free lifetime: ``P(t) = 0.5``.

    ``medians`` are per-conductor median lifetimes (same units as the
    returned value).
    """
    # Imported here so importing the package does not load scipy.optimize.
    from scipy.optimize import brentq

    em = em or default_em()
    distinct, counts = _distinct_medians(medians)
    if distinct[0] <= 0:
        raise ValueError("median lifetimes must be positive")
    log_medians = np.log(distinct)
    sigma = em.sigma

    def objective(log_t: float) -> float:
        return _array_failure_cdf(np.exp(log_t), log_medians, counts, sigma) - 0.5

    # Bracket: below every median scaled far down, above the smallest
    # median (an array is never longer-lived than its weakest member's
    # median).
    lo = float(log_medians[0] - 20.0 * sigma)
    hi = float(log_medians[0] + 5.0 * sigma)
    f_lo = objective(lo)
    f_hi = objective(hi)
    # Expand defensively (tiny arrays can push the median above the
    # weakest conductor's median only in pathological sigma settings).
    expansions = 0
    while f_lo > 0 and expansions < 60:
        lo -= 5.0 * sigma
        f_lo = objective(lo)
        expansions += 1
    while f_hi < 0 and expansions < 120:
        hi += 5.0 * sigma
        f_hi = objective(hi)
        expansions += 1
    if f_lo > 0 or f_hi < 0:
        raise RuntimeError("failed to bracket the array-lifetime root")
    log_t = brentq(objective, lo, hi, xtol=1e-10)
    return float(np.exp(log_t))
