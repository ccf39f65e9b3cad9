"""The cross-layer design exploration itself.

:mod:`scenarios` builds the paper's design points; the
:mod:`experiments <repro.core.experiments>` subpackage contains one
driver per figure/table of the evaluation, each returning a structured
result plus a formatted text rendering used by the benchmark harness.
"""

from repro.core.explorer import DesignPoint, DesignSpaceExplorer, ExplorationResult
from repro.core.noise_profile import NoiseProfile, NoiseProfiler
from repro.core.report import generate_report
from repro.core.sensitivity import SensitivityAnalysis, SensitivityEntry
from repro.core.scenarios import (
    DEFAULT_GRID_NODES,
    VS_VDD_PADS_PER_CORE,
    build_regular_pdn,
    build_stacked_pdn,
    regular_stack,
    stacked_stack,
)

__all__ = [
    "DEFAULT_GRID_NODES",
    "VS_VDD_PADS_PER_CORE",
    "build_regular_pdn",
    "build_stacked_pdn",
    "regular_stack",
    "stacked_stack",
    "DesignPoint",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "NoiseProfile",
    "NoiseProfiler",
    "generate_report",
    "SensitivityAnalysis",
    "SensitivityEntry",
]
