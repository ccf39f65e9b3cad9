"""Analytical component-level power model ("McPAT-lite").

McPAT estimates per-component dynamic energy from switched capacitance
and leakage from device geometry.  For a PDN study only the resulting
per-block power densities matter, so this substitute models each core
component with:

* an area fraction of the core tile,
* a switched-capacitance weight (relative share of core C_eff), and
* a leakage density weight.

A global effective capacitance is then calibrated so that the whole core
hits the published peak power split (`ProcessorSpec.dynamic_fraction`
dynamic at full activity plus the leakage floor).  Per-component dynamic
power follows ``P_i = w_i * C_eff * Vdd^2 * f * activity`` — the McPAT
formula with the technology detail folded into the calibrated weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.config.stackups import ProcessorSpec
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class ComponentSpec:
    """One architectural component of a core tile."""

    #: Component name.
    name: str
    #: Fraction of the core tile's area.
    area_fraction: float
    #: Relative share of the core's switched capacitance (dynamic power).
    dynamic_weight: float
    #: Relative share of the core's leakage power.
    leakage_weight: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component name must be non-empty")
        check_fraction("area_fraction", self.area_fraction)
        if self.dynamic_weight < 0 or self.leakage_weight < 0:
            raise ValueError("weights must be non-negative")


#: A Cortex-A9-class core tile (dual-issue OoO, VFP/NEON, 32K+32K L1,
#: shared slice of a 1 MB L2).  Area fractions follow the ARM/McPAT
#: breakdown of an A9 hard macro; weights give the familiar result that
#: datapath and L1s dominate dynamic power while L2 dominates leakage.
DEFAULT_CORE_COMPONENTS: Sequence[ComponentSpec] = (
    ComponentSpec("ifu", area_fraction=0.10, dynamic_weight=0.14, leakage_weight=0.08),
    ComponentSpec("decode", area_fraction=0.06, dynamic_weight=0.08, leakage_weight=0.04),
    ComponentSpec("rename_rob", area_fraction=0.07, dynamic_weight=0.10, leakage_weight=0.06),
    ComponentSpec("int_exe", area_fraction=0.12, dynamic_weight=0.20, leakage_weight=0.10),
    ComponentSpec("fpu_neon", area_fraction=0.13, dynamic_weight=0.12, leakage_weight=0.10),
    ComponentSpec("lsu", area_fraction=0.08, dynamic_weight=0.11, leakage_weight=0.07),
    ComponentSpec("l1i", area_fraction=0.09, dynamic_weight=0.07, leakage_weight=0.10),
    ComponentSpec("l1d", area_fraction=0.09, dynamic_weight=0.09, leakage_weight=0.10),
    ComponentSpec("l2_slice", area_fraction=0.20, dynamic_weight=0.05, leakage_weight=0.28),
    ComponentSpec("noc_uncore", area_fraction=0.06, dynamic_weight=0.04, leakage_weight=0.07),
)


class CorePowerModel:
    """Calibrated per-component power for one core tile.

    Parameters
    ----------
    processor:
        The layer-level spec providing Vdd, frequency and the peak-power
        calibration anchors.
    components:
        Component mix; area fractions must sum to ~1.
    """

    def __init__(
        self,
        processor: ProcessorSpec,
        components: Sequence[ComponentSpec] = DEFAULT_CORE_COMPONENTS,
    ):
        total_area_fraction = sum(c.area_fraction for c in components)
        if abs(total_area_fraction - 1.0) > 1e-6:
            raise ValueError(
                f"component area fractions must sum to 1, got {total_area_fraction}"
            )
        if not components:
            raise ValueError("components must be non-empty")
        self.processor = processor
        self.components = tuple(components)
        dyn_total_weight = sum(c.dynamic_weight for c in components)
        leak_total_weight = sum(c.leakage_weight for c in components)
        if dyn_total_weight <= 0 or leak_total_weight <= 0:
            raise ValueError("total dynamic and leakage weights must be positive")
        core_peak = processor.peak_core_power
        self._dynamic_peak = core_peak * processor.dynamic_fraction
        self._leakage = core_peak * (1.0 - processor.dynamic_fraction)
        # Calibrated effective switched capacitance of the whole core:
        # P_dyn = C_eff * Vdd^2 * f at activity 1.
        self.core_effective_capacitance = self._dynamic_peak / (
            processor.vdd**2 * processor.frequency
        )
        self._dyn_share = {
            c.name: c.dynamic_weight / dyn_total_weight for c in components
        }
        self._leak_share = {
            c.name: c.leakage_weight / leak_total_weight for c in components
        }

    # ------------------------------------------------------------------
    def core_power(self, activity: float = 1.0) -> float:
        """Total core power (W) at the given dynamic activity factor."""
        check_fraction("activity", activity)
        return self._leakage + activity * self._dynamic_peak

    def component_powers(self, activity: float = 1.0) -> Dict[str, float]:
        """Per-component power (W) at the given activity factor."""
        check_fraction("activity", activity)
        return {
            c.name: (
                self._leakage * self._leak_share[c.name]
                + activity * self._dynamic_peak * self._dyn_share[c.name]
            )
            for c in self.components
        }

    def component_areas(self, core_area: float) -> Dict[str, float]:
        """Per-component areas (m^2) for a core tile of ``core_area``."""
        check_positive("core_area", core_area)
        return {c.name: c.area_fraction * core_area for c in self.components}

    @property
    def peak_dynamic_power(self) -> float:
        """Core dynamic power at activity 1 (W)."""
        return self._dynamic_peak

    @property
    def leakage_power(self) -> float:
        """Core leakage power — the idle floor (W)."""
        return self._leakage


def build_core_power_model(
    processor: Optional[ProcessorSpec] = None,
    components: Sequence[ComponentSpec] = DEFAULT_CORE_COMPONENTS,
) -> CorePowerModel:
    """Convenience constructor with the paper's default processor."""
    return CorePowerModel(processor or ProcessorSpec(), components)
