"""Weakest-element lifetime of a conductor array (paper Sec. 3.3).

Each conductor ``i`` fails by time ``t`` with probability ``F_i(t)``,
the lognormal CDF with median from Black's equation and shared shape
``sigma``.  The array's first-failure CDF is

    P(t) = 1 - prod_i (1 - F_i(t)),

and the paper's metric is the ``t`` with ``P(t) = 0.5``, solved here by
Brent's method in log-time (``P`` is monotonic).  The root finder is a
private port of scipy's C ``brentq``: the same float operations, so the
same iterates and the same lifetimes bit for bit, without loading
``scipy.optimize`` (146 modules) into every solving process.

Arrays repeat the same median many times (every conductor of a bundle
carries the same current), so the product runs over the distinct
medians ``t50_k`` with their multiplicities ``m_k`` and is evaluated as
``exp(sum_k m_k log1p(-F_k))``: arrays of 10^5 conductors with tiny
individual failure probabilities stay numerically exact, and each root
iteration evaluates the normal CDF once per distinct median (at most
one per bundle) instead of once per conductor.
"""

from __future__ import annotations

import math

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


def _distinct_medians(medians, counts=None):
    """Sorted distinct medians ``t50_k`` and their multiplicities ``m_k``;
    ``counts[i]`` conductors share ``medians[i]`` (one each by default)."""
    medians = np.asarray(medians, dtype=float)
    if counts is None:
        counts = np.ones(medians.size, dtype=np.int64)
    medians, counts = medians[counts > 0], counts[counts > 0]
    if medians.size == 0:
        raise ValueError("medians must be non-empty")
    distinct, inverse = np.unique(medians, return_inverse=True)
    return distinct, np.bincount(inverse, weights=counts).astype(np.int64)


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


#: scipy's ``brentq`` defaults: relative tolerance and iteration budget.
_BRENTQ_RTOL = 4 * np.finfo(float).eps
_BRENTQ_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in ``[xa, xb]``: a line-for-line port of scipy's C
    ``brentq`` (``rtol = 4 eps``, 100 iterations), with its wrapper's
    errors: ``ValueError`` when ``f(xa)`` and ``f(xb)`` share a sign or
    ``f`` returns NaN, ``RuntimeError`` when the budget runs out.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    rtol = _BRENTQ_RTOL
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            limit = abs(spre)
            if 3 * abs(sbis) - delta < limit:
                limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


def expected_em_lifetime(
    medians: np.ndarray, em: EMParameters = None, counts=None
) -> float:
    """The paper's expected EM-damage-free lifetime: ``P(t) = 0.5``.

    ``medians`` are per-conductor median lifetimes (same units as the
    returned value), or with ``counts`` the median each of ``counts[i]``
    conductors shares: the same array without expanding it.  An infinite
    median is an immortal conductor and is allowed, as long as some
    conductor can fail.
    """
    em = em or default_em()
    distinct, counts = _distinct_medians(medians, counts)
    if distinct[0] <= 0:
        raise ValueError("median lifetimes must be positive")
    # np.unique sorts NaN last and +inf just before it.
    if np.isnan(distinct[-1]):
        raise ValueError("median lifetimes must be finite or +inf, got NaN")
    if np.isinf(distinct[0]):
        raise ValueError(
            "median lifetimes must be finite for at least one conductor, "
            "got only +inf"
        )
    log_medians = np.log(distinct)
    sigma = em.sigma

    def objective(log_t: float) -> float:
        return _array_failure_cdf(np.exp(log_t), log_medians, counts, sigma) - 0.5

    # Bracket around the weakest median t_min in log-time.  With N
    # conductors, P(t_min e^(-20 sigma)) <= N ndtr(-20) ~ N 3e-89 and
    # P(t_min e^(5 sigma)) >= ndtr(5) ~ 1 - 3e-7, so the root P = 0.5
    # is always inside: no expansion is ever needed.
    lo = float(log_medians[0] - 20.0 * sigma)
    hi = float(log_medians[0] + 5.0 * sigma)
    return float(np.exp(_brentq(objective, lo, hi, xtol=1e-10)))
