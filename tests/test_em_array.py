"""Array (weakest-element) lifetime statistics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

from repro.config.technology import EMParameters, default_em
from repro.em.black import TSV_CROSS_SECTION, median_lifetimes_from_currents
from repro.em.array_mttf import (
    _array_failure_cdf,
    _brentq,
    array_failure_cdf,
    expected_em_lifetime,
    lognormal_failure_cdf,
)


class TestLognormalCDF:
    def test_median_point(self):
        assert lognormal_failure_cdf(100.0, median=100.0, sigma=0.3) == pytest.approx(0.5)

    def test_zero_time(self):
        assert lognormal_failure_cdf(0.0, median=10.0, sigma=0.3) == 0.0

    def test_monotone(self):
        ts = np.linspace(1.0, 1000.0, 50)
        cdf = lognormal_failure_cdf(ts, median=100.0, sigma=0.3)
        assert np.all(np.diff(cdf) >= 0)

    def test_known_value(self):
        # One sigma in log space above the median.
        t = 100.0 * np.exp(0.3)
        assert lognormal_failure_cdf(t, 100.0, 0.3) == pytest.approx(norm.cdf(1.0))


class TestArrayCDF:
    def test_single_conductor_median(self):
        assert array_failure_cdf(50.0, np.array([50.0]), 0.3) == pytest.approx(0.5)

    def test_two_identical_conductors(self):
        # P = 1 - (1-F)^2 with F = 0.5.
        assert array_failure_cdf(50.0, np.array([50.0, 50.0]), 0.3) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            array_failure_cdf(1.0, np.array([]), 0.3)

    def test_large_array_numerically_stable(self):
        medians = np.full(100_000, 1000.0)
        p = array_failure_cdf(200.0, medians, 0.3)
        assert 0.0 <= p <= 1.0
        assert np.isfinite(p)


class TestExpectedLifetime:
    def test_single_conductor_returns_median(self):
        assert expected_em_lifetime(np.array([123.0])) == pytest.approx(123.0, rel=1e-6)

    def test_definition_p_half(self):
        medians = np.array([100.0, 150.0, 300.0])
        em = EMParameters()
        t = expected_em_lifetime(medians, em)
        assert array_failure_cdf(t, medians, em.sigma) == pytest.approx(0.5, abs=1e-6)

    def test_more_conductors_shorter_life(self):
        small = expected_em_lifetime(np.full(10, 100.0))
        large = expected_em_lifetime(np.full(10_000, 100.0))
        assert large < small

    def test_bounded_by_weakest_median(self):
        medians = np.array([100.0, 500.0, 900.0])
        assert expected_em_lifetime(medians) <= 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expected_em_lifetime(np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "medians",
        [[1.0, np.nan], [np.nan], [np.nan, np.inf], [np.inf], [np.inf, np.inf]],
    )
    def test_rejects_nonfinite_in_one_line(self, medians):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="median lifetimes must be finite") as info:
                expected_em_lifetime(np.array(medians))
        assert "\n" not in str(info.value)

    def test_immortal_conductor_is_allowed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_em_lifetime(np.array([1.0, np.inf])) == 1.0
            assert expected_em_lifetime(np.array([5.0, np.inf, 9.0])) == (
                expected_em_lifetime(np.array([5.0, 9.0]))
            )

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=1.01, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_scaling(self, medians, factor):
        """Scaling every median by k scales the array lifetime by k."""
        base = np.array(medians)
        t0 = expected_em_lifetime(base)
        t1 = expected_em_lifetime(base * factor)
        assert t1 / t0 == pytest.approx(factor, rel=1e-4)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_adding_conductors_never_helps(self, medians):
        base = np.array(medians)
        without_last = expected_em_lifetime(base[:-1])
        with_all = expected_em_lifetime(base)
        assert with_all <= without_last * (1 + 1e-9)


def _ungrouped_lifetime(medians, sigma):
    """Reference ``P(t) = 0.5`` root: ``scipy.stats.norm`` and ``brentq``
    over every conductor of the expanded array, one term each."""

    def objective(log_t):
        f = norm.cdf((np.log(np.exp(log_t)) - np.log(medians)) / sigma)
        f = np.minimum(f, 1.0 - 1e-16)
        return float(1.0 - np.exp(np.sum(np.log1p(-f)))) - 0.5

    lo = float(np.log(medians.min()) - 20.0 * sigma)
    hi = float(np.log(medians.min()) + 5.0 * sigma)
    while objective(lo) > 0:
        lo -= 5.0 * sigma
    while objective(hi) < 0:
        hi += 5.0 * sigma
    return float(np.exp(brentq(objective, lo, hi, xtol=1e-10)))


#: A conductor array as bundles: distinct median lifetimes, each repeated
#: by its bundle multiplicity (as every conductor of a bundle carries the
#: same current).
bundles = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e6),
        st.integers(min_value=1, max_value=2000),
    ),
    min_size=1,
    max_size=30,
)


def _expand(bundle_list):
    return np.repeat(
        np.array([m for m, _ in bundle_list]), [n for _, n in bundle_list]
    )


class TestGroupedLifetime:
    """The root solve runs over distinct medians with multiplicities."""

    @given(bundles)
    @settings(max_examples=40, deadline=None)
    def test_matches_ungrouped_reference(self, bundle_list):
        medians = _expand(bundle_list)
        sigma = default_em().sigma
        expected = _ungrouped_lifetime(medians, sigma)
        assert expected_em_lifetime(medians) == pytest.approx(expected, rel=1e-12)

    def test_matches_ungrouped_reference_on_large_array(self):
        rng = np.random.default_rng(7)
        distinct = np.exp(rng.uniform(8.0, 14.0, 400))
        medians = np.repeat(distinct, rng.integers(1, 500, distinct.size))
        expected = _ungrouped_lifetime(medians, default_em().sigma)
        assert expected_em_lifetime(medians) == pytest.approx(expected, rel=1e-12)

    @given(bundles, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_is_bit_identical(self, bundle_list, seed):
        medians = _expand(bundle_list)
        shuffled = np.random.default_rng(seed).permutation(medians)
        assert expected_em_lifetime(shuffled) == expected_em_lifetime(medians)
        sigma = default_em().sigma
        t = float(np.median(medians))
        assert array_failure_cdf(t, shuffled, sigma) == array_failure_cdf(t, medians, sigma)

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_current_never_lengthens_life(self, currents, data):
        currents = np.array(currents)
        factors = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=1.0, max_value=10.0),
                    min_size=currents.size,
                    max_size=currents.size,
                )
            )
        )
        base = expected_em_lifetime(
            median_lifetimes_from_currents(currents, TSV_CROSS_SECTION)
        )
        stressed = expected_em_lifetime(
            median_lifetimes_from_currents(currents * factors, TSV_CROSS_SECTION)
        )
        assert stressed <= base * (1 + 1e-9)


def _scipy_lifetime(medians, sigma):
    """The grouped objective on the same bracket, solved by scipy."""
    distinct, counts = np.unique(medians, return_counts=True)
    log_medians = np.log(distinct)

    def objective(log_t):
        return _array_failure_cdf(np.exp(log_t), log_medians, counts, sigma) - 0.5

    lo = float(log_medians[0] - 20.0 * sigma)
    hi = float(log_medians[0] + 5.0 * sigma)
    return float(np.exp(brentq(objective, lo, hi, xtol=1e-10)))


class TestBrentPort:
    """The private ``brentq`` port takes scipy's iterates bit for bit."""

    @given(bundles, st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_lifetime_equals_scipy_brentq(self, bundle_list, sigma):
        medians = _expand(bundle_list)
        em = EMParameters(sigma=sigma)
        assert expected_em_lifetime(medians, em) == _scipy_lifetime(medians, sigma)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([1, 3, 5]),
        st.floats(min_value=1e-14, max_value=1e-2),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_equals_scipy_brentq(self, root, below, above, power, xtol):
        """Odd powers (flat at the root) and asymmetric brackets make
        the port take every branch: interpolation, extrapolation and
        bisection, from either end."""

        def f(x):
            return (x - root) ** power

        def outcome(solve, *args, **kwargs):
            try:
                return solve(*args, **kwargs)
            except RuntimeError as exc:  # both give up on the same case
                return type(exc)

        for a, b in ((root - below, root + above), (root + above, root - below)):
            assert outcome(_brentq, f, a, b, xtol) == outcome(brentq, f, a, b, xtol=xtol)

    def test_bracket_always_holds(self):
        """No bracket expansion is needed: the fixed bracket straddles
        the root for arrays far beyond any real conductor count."""
        for sigma in (0.05, 0.3, 2.0):
            for count in (1, 10**9):
                log_medians = np.array([0.0, 3.0])
                counts = np.array([count, count])
                lo, hi = -20.0 * sigma, 5.0 * sigma
                assert _array_failure_cdf(np.exp(lo), log_medians, counts, sigma) < 0.5
                assert _array_failure_cdf(np.exp(hi), log_medians, counts, sigma) > 0.5

    def test_endpoint_root_is_returned(self):
        assert _brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-10) == 2.0
        assert _brentq(lambda x: x - 5.0, 2.0, 5.0, 1e-10) == 5.0

    def test_equal_signs_raise_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-10)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_non_convergence_raises_runtime_error(self):
        """A step function over a 1e300-wide bracket needs ~1000
        bisections, past the 100-iteration budget."""

        def step(x):
            return math.copysign(1.0, x - 0.3)

        with pytest.raises(RuntimeError, match="Failed to converge"):
            brentq(step, -1e300, 1e300, xtol=1e-10)
        with pytest.raises(RuntimeError, match="Failed to converge after 100"):
            _brentq(step, -1e300, 1e300, 1e-10)

    def test_nan_objective_raises_instead_of_looping(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-10)
