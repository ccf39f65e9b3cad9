"""Statistical noise profiling under sampled workloads."""

import numpy as np
import pytest

from repro.config.stackups import ProcessorSpec
from repro.core.noise_profile import NoiseProfile, NoiseProfiler
from repro.core.scenarios import build_stacked_pdn
from repro.workload.sampling import sample_suite

GRID = 8


@pytest.fixture(scope="module")
def profiler():
    pdn = build_stacked_pdn(4, converters_per_core=8, grid_nodes=GRID)
    suite = sample_suite(ProcessorSpec(), n_samples=300, rng=3)
    return NoiseProfiler(pdn, suite)


@pytest.fixture(scope="module")
def profiles(profiler):
    return profiler.compare_policies(trials=40, rng=11)


class TestNoiseProfile:
    def test_statistics_consistent(self, profiles):
        p = profiles["mixed"]
        assert p.percentile(0) <= p.mean <= p.worst
        assert p.percentile(95) <= p.worst

    def test_exceedance(self):
        profile = NoiseProfile(samples=np.array([0.01, 0.02, 0.03, 0.04]), policy="x")
        assert profile.exceedance_fraction(0.025) == pytest.approx(0.5)

    def test_samples_positive_and_bounded(self, profiles):
        for p in profiles.values():
            assert np.all(p.samples > 0)
            assert np.all(p.samples < 0.25)


class TestScheduling:
    def test_same_app_policy_quieter(self, profiles):
        """The paper's Sec. 5.2 recommendation, now on the full
        distribution rather than the average."""
        assert profiles["same-app"].mean < profiles["mixed"].mean

    def test_same_app_tail_quieter(self, profiles):
        assert profiles["same-app"].percentile(90) <= profiles["mixed"].percentile(90)

    def test_reproducible(self, profiler):
        a = profiler.profile("mixed", trials=10, rng=5)
        b = profiler.profile("mixed", trials=10, rng=5)
        assert np.array_equal(a.samples, b.samples)

    def test_unknown_policy_rejected(self, profiler):
        with pytest.raises(ValueError, match="policy"):
            profiler.profile("round-robin")

    def test_empty_suite_rejected(self):
        pdn = build_stacked_pdn(2, grid_nodes=GRID)
        with pytest.raises(ValueError):
            NoiseProfiler(pdn, {})
