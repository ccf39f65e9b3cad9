"""repro — charge-recycled power delivery for many-layer 3D-ICs.

A full reproduction of "A Cross-Layer Design Exploration of
Charge-Recycled Power-Delivery in Many-Layer 3D-IC" (Zhang, Mazumdar,
Meyer, Wang, Skadron, Stan — DAC 2015), including every substrate the
study depends on: a sparse MNA circuit engine, a VoltSpot-style 3D PDN
model with regular and voltage-stacked topologies, Seeman-style SC
converter compact models validated against a transient switched-cap
simulator, Black's-equation EM array lifetimes, McPAT-lite power,
PARSEC-like workload statistics, and a HotSpot-lite thermal screen.

Typical entry points::

    from repro import build_stacked_pdn, build_regular_pdn
    pdn = build_stacked_pdn(n_layers=8, converters_per_core=8)
    result = pdn.solve()
    print(result.max_ir_drop_fraction())

    from repro.core.experiments import compute_fig6
    print(compute_fig6().format())

or, from a shell, ``python -m repro fig6`` (see ``python -m repro -h``).
"""

from repro.config import (
    C4Technology,
    CapacitorTechnology,
    EMParameters,
    OnChipMetal,
    PackageModel,
    PadAllocation,
    ProcessorSpec,
    SCConverterSpec,
    StackConfig,
    TSVTechnology,
    TSVTopology,
    TSV_TOPOLOGIES,
)
from repro.core.scenarios import (
    build_regular_pdn,
    build_stacked_pdn,
    regular_stack,
    stacked_stack,
)
from repro.em import expected_em_lifetime, median_lifetimes_from_currents
from repro.errors import (
    ConvergenceError,
    FaultInjectionError,
    ReproError,
    SingularCircuitError,
)
from repro.faults import (
    FaultPlan,
    FaultReport,
    em_fault_plan,
    severed_layer_plan,
    uniform_fault_plan,
)
from repro.grid import Circuit, SolveDiagnostics
from repro.pdn import PDNResult, RegularPDN3D, StackedPDN3D
from repro.power import CorePowerModel, PowerMap, layer_power_map
from repro.runtime import (
    PDNSpec,
    SweepEngine,
    SweepOutcome,
    SweepPoint,
    SweepResult,
)
from repro.regulator import (
    ClosedLoopControl,
    OpenLoopControl,
    SCCompactModel,
    SwitchCapSimulator,
)
from repro.thermal import HotSpotLite, max_feasible_layers
from repro.workload import (
    PARSEC_APPLICATIONS,
    interleaved_layer_activities,
    sample_suite,
)

__version__ = "1.0.0"

__all__ = [
    "C4Technology",
    "CapacitorTechnology",
    "EMParameters",
    "OnChipMetal",
    "PackageModel",
    "PadAllocation",
    "ProcessorSpec",
    "SCConverterSpec",
    "StackConfig",
    "TSVTechnology",
    "TSVTopology",
    "TSV_TOPOLOGIES",
    "build_regular_pdn",
    "build_stacked_pdn",
    "regular_stack",
    "stacked_stack",
    "expected_em_lifetime",
    "median_lifetimes_from_currents",
    "ReproError",
    "SingularCircuitError",
    "ConvergenceError",
    "FaultInjectionError",
    "FaultPlan",
    "FaultReport",
    "em_fault_plan",
    "severed_layer_plan",
    "uniform_fault_plan",
    "Circuit",
    "SolveDiagnostics",
    "PDNResult",
    "RegularPDN3D",
    "StackedPDN3D",
    "PDNSpec",
    "SweepEngine",
    "SweepPoint",
    "SweepOutcome",
    "SweepResult",
    "CorePowerModel",
    "PowerMap",
    "layer_power_map",
    "ClosedLoopControl",
    "OpenLoopControl",
    "SCCompactModel",
    "SwitchCapSimulator",
    "HotSpotLite",
    "max_feasible_layers",
    "PARSEC_APPLICATIONS",
    "interleaved_layer_activities",
    "sample_suite",
    "__version__",
]
