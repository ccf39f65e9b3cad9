"""McPAT-lite core power model."""

import pytest

from repro.config.stackups import ProcessorSpec
from repro.power.mcpat_lite import CorePowerModel


class TestCalibration:
    def test_core_peak_matches_processor(self):
        proc = ProcessorSpec()
        model = CorePowerModel(proc)
        assert model.core_power(1.0) == pytest.approx(proc.peak_core_power)

    def test_idle_is_leakage(self):
        proc = ProcessorSpec()
        model = CorePowerModel(proc)
        assert model.core_power(0.0) == pytest.approx(
            proc.peak_core_power * (1 - proc.dynamic_fraction)
        )

    def test_activity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CorePowerModel(ProcessorSpec()).core_power(1.2)
