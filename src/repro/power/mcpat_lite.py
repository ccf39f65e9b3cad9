"""Analytical core power model ("McPAT-lite").

McPAT estimates dynamic energy from switched capacitance and leakage
from device geometry.  For a PDN study only the resulting per-core power
matters, so this substitute calibrates one core tile to the published
peak power split: ``ProcessorSpec.dynamic_fraction`` of the peak is
dynamic at full activity, the rest is the leakage floor.
"""

from __future__ import annotations

from repro.config.stackups import ProcessorSpec
from repro.utils.validation import check_fraction


class CorePowerModel:
    """Calibrated power of one core tile.

    Parameters
    ----------
    processor:
        The layer-level spec providing the peak-power calibration
        anchors.
    """

    def __init__(self, processor: ProcessorSpec):
        self.processor = processor
        core_peak = processor.peak_core_power
        self._dynamic_peak = core_peak * processor.dynamic_fraction
        self._leakage = core_peak * (1.0 - processor.dynamic_fraction)

    def core_power(self, activity: float = 1.0) -> float:
        """Total core power (W) at the given dynamic activity factor."""
        check_fraction("activity", activity)
        return self._leakage + activity * self._dynamic_peak
