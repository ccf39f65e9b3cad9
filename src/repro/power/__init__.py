"""McPAT-lite: analytical power/area modeling of the example processor.

The paper derives its 16-core layer's power and area with McPAT (Li et
al., MICRO 2009) for a 40 nm dual-core ARM Cortex-A9 at 1 GHz / 1 V:
7.6 W peak and 44.12 mm^2 for the 16-core layer.  This package provides a
component-level analytical substitute calibrated to those anchors, plus
the rasterisation of per-core powers onto the PDN model grid.
"""

from repro.power.mcpat_lite import (
    ComponentSpec,
    CorePowerModel,
    DEFAULT_CORE_COMPONENTS,
    build_core_power_model,
)
from repro.power.powermap import PowerMap, layer_power_map, uniform_power_map

__all__ = [
    "ComponentSpec",
    "CorePowerModel",
    "DEFAULT_CORE_COMPONENTS",
    "build_core_power_model",
    "PowerMap",
    "layer_power_map",
    "uniform_power_map",
]
