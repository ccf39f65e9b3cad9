"""Stack-level configuration: the example processor, TSV topologies and
C4 pad allocation (paper Sections 4.1-4.2, Table 2).

The paper's example system is a 40 nm dual-core ARM Cortex-A9 replicated
eight times into a single-layer 16-core processor: 1 GHz, 1 V, 7.6 W peak
and 44.12 mm^2 per layer, stacked 2-8 layers high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.config.technology import TSVTechnology, default_tsv
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class ProcessorSpec:
    """One silicon layer of the example many-core processor (Sec. 4.1)."""

    #: Number of cores on the layer (8x dual-core Cortex-A9).
    core_count: int = 16
    #: Total layer area (m^2).  McPAT: 44.12 mm^2.
    die_area: float = 44.12e-6
    #: Nominal per-layer supply voltage (V).
    vdd: float = 1.0
    #: Clock frequency (Hz).
    frequency: float = 1.0e9
    #: Peak layer power at nominal voltage (W).  McPAT: 7.6 W.
    peak_power: float = 7.6
    #: Fraction of peak power that is dynamic (the remainder is leakage).
    #: "100% imbalance means the low-power layers are idle and only
    #: consume leakage power", so the idle floor is the leakage fraction.
    #: 32% leakage is typical of 40 nm low-power cores and calibrates the
    #: Fig. 6 noise slope to the paper's quoted deltas.
    dynamic_fraction: float = 0.68

    def __post_init__(self) -> None:
        check_positive_int("core_count", self.core_count)
        check_positive("die_area", self.die_area)
        check_positive("vdd", self.vdd)
        check_positive("frequency", self.frequency)
        check_positive("peak_power", self.peak_power)
        check_fraction("dynamic_fraction", self.dynamic_fraction)

    @property
    def die_side(self) -> float:
        """Side length of the (square) die (m)."""
        return math.sqrt(self.die_area)

    @property
    def core_area(self) -> float:
        """Area of one core, including its share of uncore (m^2)."""
        return self.die_area / self.core_count

    @property
    def peak_core_power(self) -> float:
        """Peak power of one core (W)."""
        return self.peak_power / self.core_count

    @property
    def peak_current(self) -> float:
        """Peak layer current draw at nominal voltage (A)."""
        return self.peak_power / self.vdd

    @property
    def leakage_power(self) -> float:
        """Layer leakage power — the idle floor (W)."""
        return self.peak_power * (1.0 - self.dynamic_fraction)

    @property
    def dynamic_power(self) -> float:
        """Layer peak dynamic power (W)."""
        return self.peak_power * self.dynamic_fraction

    def layer_power(self, activity: float) -> float:
        """Layer power at dynamic activity factor ``activity`` in [0, 1]."""
        check_fraction("activity", activity)
        return self.leakage_power + activity * self.dynamic_power


@dataclass(frozen=True)
class TSVTopology:
    """A power-delivery TSV allocation (paper Table 2).

    Table 2 specifies each topology by TSV count per core; the quoted
    "effective pitch" and area overhead are derived quantities.  We treat
    the per-core count as the primary specification so the table's counts
    reproduce exactly, and re-derive pitch/overhead from the count and the
    keep-out-zone geometry.  (Table 2's Few-TSV quoted pitch of 240 um is
    not consistent with 110 TSVs per 2.76 mm^2 core under any simple
    area/pitch^2 reading; the count and the 0.4% overhead are consistent
    with each other, so we keep those.)
    """

    #: Human-readable name ("Dense", "Sparse", "Few").
    name: str
    #: Power-delivery TSVs per core (Vdd + GND combined), Table 2.
    tsvs_per_core: int

    def __post_init__(self) -> None:
        check_positive_int("tsvs_per_core", self.tsvs_per_core)
        if not self.name:
            raise ValueError("name must be non-empty")

    @property
    def vdd_tsvs_per_core(self) -> int:
        """TSVs assigned to the Vdd net (half the total, rounded down)."""
        return self.tsvs_per_core // 2

    @property
    def gnd_tsvs_per_core(self) -> int:
        """TSVs assigned to the GND net."""
        return self.tsvs_per_core - self.vdd_tsvs_per_core

    def effective_pitch(self, core_area: float) -> float:
        """Derived uniform placement pitch for this density (m)."""
        check_positive("core_area", core_area)
        return math.sqrt(core_area / self.tsvs_per_core)

    def area_overhead(self, core_area: float, tsv: TSVTechnology = None) -> float:
        """Fraction of core area blocked by the TSVs' keep-out zones."""
        tsv = tsv if tsv is not None else default_tsv()
        check_positive("core_area", core_area)
        return self.tsvs_per_core * tsv.koz_area / core_area


def dense_tsv() -> TSVTopology:
    """Table 2 "Dense" topology: 6650 TSVs/core, ~24% area overhead."""
    return TSVTopology(name="Dense", tsvs_per_core=6650)


def sparse_tsv() -> TSVTopology:
    """Table 2 "Sparse" topology: 1675 TSVs/core, ~6% area overhead."""
    return TSVTopology(name="Sparse", tsvs_per_core=1675)


def few_tsv() -> TSVTopology:
    """Table 2 "Few" topology: 110 TSVs/core, ~0.4% area overhead."""
    return TSVTopology(name="Few", tsvs_per_core=110)


#: The three Table 2 design points, keyed by name.
TSV_TOPOLOGIES: Dict[str, TSVTopology] = {
    "Dense": dense_tsv(),
    "Sparse": sparse_tsv(),
    "Few": few_tsv(),
}


@dataclass(frozen=True)
class PadAllocation:
    """How the C4 pad array is split between power delivery and I/O.

    ``power_fraction`` is the fraction of all pad sites used for power
    (split evenly between Vdd and GND), matching the 25/50/75/100%
    sweep of Fig. 5b.  For the voltage-stacked PDN the paper connects
    each Vdd pad to a single through-via stack and reports 32 Vdd pads
    per core for its TSV-lifetime study; ``vdd_pads_per_core_override``
    reproduces that setting when given.
    """

    #: Fraction of all pad sites allocated to power delivery.
    power_fraction: float = 0.25
    #: If set, force this many Vdd pads per core regardless of fraction
    #: (paper Sec. 5.1 uses 32 Vdd pads/core for the V-S TSV study).
    vdd_pads_per_core_override: int = 0

    def __post_init__(self) -> None:
        check_fraction("power_fraction", self.power_fraction)
        if self.vdd_pads_per_core_override < 0:
            raise ValueError("vdd_pads_per_core_override must be >= 0")

    def vdd_pads(self, total_sites: int, core_count: int) -> int:
        """Number of Vdd pads for a die with ``total_sites`` pad sites."""
        check_positive_int("total_sites", total_sites)
        check_positive_int("core_count", core_count)
        if self.vdd_pads_per_core_override:
            return self.vdd_pads_per_core_override * core_count
        return max(1, int(round(total_sites * self.power_fraction / 2.0)))


@dataclass(frozen=True)
class StackConfig:
    """A complete 3D stack design point for the PDN model."""

    #: Number of stacked silicon layers (paper studies 2-8).
    n_layers: int = 8
    #: Per-layer processor description.
    processor: ProcessorSpec = field(default_factory=ProcessorSpec)
    #: Power-TSV allocation between adjacent layers.
    tsv_topology: TSVTopology = field(default_factory=few_tsv)
    #: C4 pad split.
    pads: PadAllocation = field(default_factory=PadAllocation)
    #: Model-grid resolution: PDN nodes per die side, per net, per layer.
    #: 2 x n_layers x grid_nodes^2 electrical nodes total.
    grid_nodes: int = 24

    def __post_init__(self) -> None:
        check_positive_int("n_layers", self.n_layers)
        check_positive_int("grid_nodes", self.grid_nodes)
        if self.grid_nodes < 4:
            raise ValueError("grid_nodes must be at least 4 for a meaningful grid")

    @property
    def cell_size(self) -> float:
        """Side length of one model-grid cell (m)."""
        return self.processor.die_side / self.grid_nodes

    @property
    def total_peak_power(self) -> float:
        """Whole-stack peak power (W)."""
        return self.n_layers * self.processor.peak_power

    @property
    def stack_supply_voltage(self) -> float:
        """Off-chip supply for the voltage-stacked arrangement (V)."""
        return self.n_layers * self.processor.vdd
