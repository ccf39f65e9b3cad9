"""Sampling campaign and stack scheduling."""

import numpy as np
import pytest

from repro.config.stackups import ProcessorSpec
from repro.workload.sampling import sample_suite, schedule_stack


@pytest.fixture(scope="module")
def suite():
    return sample_suite(ProcessorSpec(), n_samples=400, rng=11)


class TestSampleSuite:
    def test_sample_counts(self, suite):
        assert all(len(s.powers) == 400 for s in suite.values())

    def test_dynamic_excludes_leakage(self, suite):
        proc = ProcessorSpec()
        for s in suite.values():
            assert np.allclose(s.powers - s.dynamic_powers, proc.leakage_power)

    def test_max_imbalance_in_unit_range(self, suite):
        for s in suite.values():
            assert 0.0 <= s.max_imbalance <= 1.0

    def test_percentiles_sorted(self, suite):
        p = suite["ferret"].percentiles()
        assert np.all(np.diff(p) >= 0)


class TestScheduleStack:
    def test_output_length(self, suite):
        out = schedule_stack(suite, ["x264"] * 4, rng=0)
        assert len(out) == 3

    def test_same_app_bounded_by_app_spread(self, suite):
        app = "blackscholes"
        worst = 0.0
        for trial in range(50):
            out = schedule_stack(suite, [app] * 4, rng=trial)
            worst = max(worst, float(out.max()))
        assert worst <= suite[app].max_imbalance + 1e-9

    def test_unknown_app_rejected(self, suite):
        with pytest.raises(KeyError):
            schedule_stack(suite, ["nonexistent", "x264"])

    def test_single_layer_rejected(self, suite):
        with pytest.raises(ValueError):
            schedule_stack(suite, ["x264"])
