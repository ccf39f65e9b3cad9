"""Technology, geometry and scenario parameters.

The values in this package come directly from the paper:

* Table 1 — C4, TSV, and on-chip PDN metal parameters
  (:mod:`repro.config.technology`).
* Table 2 — the Dense / Sparse / Few TSV topologies
  (:mod:`repro.config.stackups`).
* Section 3.1 — the switched-capacitor converter implementation anchors
  (:mod:`repro.config.converters`).
* Section 4.1 — the 16-core ARM-class processor layer
  (:mod:`repro.config.stackups`).
"""

from repro.config.technology import (
    C4Technology,
    EMParameters,
    OnChipMetal,
    PackageModel,
    TSVTechnology,
    default_c4,
    default_em,
    default_metal,
    default_package,
    default_tsv,
)
from repro.config.stackups import (
    PadAllocation,
    ProcessorSpec,
    StackConfig,
    TSVTopology,
    TSV_TOPOLOGIES,
    dense_tsv,
    few_tsv,
    sparse_tsv,
)
from repro.config.converters import (
    CAPACITOR_TECHNOLOGIES,
    CapacitorTechnology,
    SCConverterSpec,
    default_sc_spec,
)

__all__ = [
    "C4Technology",
    "EMParameters",
    "OnChipMetal",
    "PackageModel",
    "TSVTechnology",
    "default_c4",
    "default_em",
    "default_metal",
    "default_package",
    "default_tsv",
    "PadAllocation",
    "ProcessorSpec",
    "StackConfig",
    "TSVTopology",
    "TSV_TOPOLOGIES",
    "dense_tsv",
    "few_tsv",
    "sparse_tsv",
    "CAPACITOR_TECHNOLOGIES",
    "CapacitorTechnology",
    "SCConverterSpec",
    "default_sc_spec",
]
