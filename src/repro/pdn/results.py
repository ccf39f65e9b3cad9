"""PDN solve results: IR drop, conductor currents, efficiency.

:class:`PDNResult` wraps one DC operating point of a 3D PDN and exposes
exactly the quantities the paper's experiments consume:

* the per-layer IR-drop map and its chip-wide maximum (Fig. 6),
* per-conductor current profiles of the C4 pad and TSV arrays, expanded
  from bundled model branches (Fig. 5 via the EM model),
* system power efficiency — load power over off-chip source power
  (Fig. 8) — and converter loading against the 100 mA rating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.grid.netlist import ElementRef
from repro.grid.solution import Solution


@dataclass(frozen=True)
class ConductorGroup:
    """A population of identical physical conductors behind one tag.

    A model branch at multiplicity ``m`` stands for ``m`` parallel
    conductors sharing its current equally; ``segments`` further
    multiplies the population for series stacks (a through-via crossing
    ``k`` layers contributes ``k`` EM-stressed segments all carrying the
    branch current).
    """

    #: Element tag in the circuit.
    tag: str
    #: Reference to the resistor bundle.
    ref: ElementRef
    #: Per-bundle conductor multiplicity (aligned with ``ref.indices``).
    multiplicity: np.ndarray
    #: Series segments per conductor (1 for pads and single-tier TSVs).
    segments: int = 1

    @property
    def conductor_count(self) -> int:
        return int(self.multiplicity.sum()) * self.segments

    def per_conductor_currents(self, solution: Solution) -> np.ndarray:
        """|current| of every physical conductor in the group (A)."""
        return np.repeat(*self.bundle_currents(solution))

    def bundle_currents(self, solution: Solution):
        """``(current, count)`` per bundle: the |current| (A) each of its
        conductors carries, and how many conductor segments carry it."""
        bundle_currents = np.abs(solution.resistor_currents(self.tag))
        if len(bundle_currents) != len(self.multiplicity):
            raise ValueError(
                f"group {self.tag!r}: {len(bundle_currents)} branches but "
                f"{len(self.multiplicity)} multiplicities"
            )
        # Fully-failed bundles have multiplicity 0 (and carry no current
        # once opened): guard the divide; their count of 0 drops them.
        per_conductor = bundle_currents / np.maximum(self.multiplicity, 1)
        return per_conductor, self.multiplicity * self.segments


class PDNResult:
    """One solved operating point of a 3D PDN."""

    def __init__(
        self,
        solution: Solution,
        vdd_nominal: float,
        vdd_node_ids: List[np.ndarray],
        gnd_node_ids: List[np.ndarray],
        conductor_groups: Dict[str, ConductorGroup],
        converter_multiplicity: Optional[np.ndarray] = None,
        converter_rating: Optional[float] = None,
    ):
        self.solution = solution
        self.vdd_nominal = vdd_nominal
        self._vdd_ids = vdd_node_ids
        self._gnd_ids = gnd_node_ids
        self.conductor_groups = conductor_groups
        self._converter_multiplicity = converter_multiplicity
        self._converter_rating = converter_rating
        #: ``repro.contracts.ContractReport`` attached by the PDN builder
        #: when contract checking is enabled; None otherwise.
        self.contracts = None

    @property
    def diagnostics(self):
        """Resilient-solve diagnostics, or None for a strict solve."""
        return self.solution.diagnostics

    @property
    def degraded(self) -> bool:
        """True for pruned/fallback solves or recorded contract violations."""
        if self.diagnostics is not None and self.diagnostics.degraded:
            return True
        return self.contracts is not None and not self.contracts.passed

    # ------------------------------------------------------------------
    # voltage noise
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self._vdd_ids)

    def ir_drop_map(self, layer: int) -> np.ndarray:
        """Per-cell IR drop (V) of one layer: Vdd_nom - local headroom."""
        v_vdd = self.solution.voltage_by_id(self._vdd_ids[layer])
        v_gnd = self.solution.voltage_by_id(self._gnd_ids[layer])
        return self.vdd_nominal - (v_vdd - v_gnd)

    def max_ir_drop(self) -> float:
        """Chip-wide worst IR drop (V) across all layers."""
        return max(float(self.ir_drop_map(l).max()) for l in range(self.n_layers))

    def max_ir_drop_fraction(self) -> float:
        """Worst IR drop as a fraction of nominal Vdd (the Fig. 6 metric)."""
        return self.max_ir_drop() / self.vdd_nominal

    # ------------------------------------------------------------------
    # conductor currents for EM
    # ------------------------------------------------------------------
    def conductor_currents(self, prefix: str) -> np.ndarray:
        """Per-conductor |current| over all groups whose tag starts with
        ``prefix`` ("c4", "tsv", "tvia")."""
        return np.repeat(*self.conductor_bundles(prefix))

    def conductor_bundles(self, prefix: str):
        """:meth:`conductor_currents` before expansion: ``(current,
        count)`` per bundle (see :meth:`ConductorGroup.bundle_currents`)."""
        parts = [
            group.bundle_currents(self.solution)
            for tag, group in self.conductor_groups.items()
            if tag.startswith(prefix)
        ]
        if not parts:
            raise KeyError(f"no conductor groups with prefix {prefix!r}")
        currents, counts = zip(*parts)
        return np.concatenate(currents), np.concatenate(counts)

    def has_group_prefix(self, prefix: str) -> bool:
        return any(tag.startswith(prefix) for tag in self.conductor_groups)

    # ------------------------------------------------------------------
    # power efficiency (Fig. 8)
    # ------------------------------------------------------------------
    def load_power(self) -> float:
        """Power actually delivered to the logic loads (W)."""
        return self.solution.isource_power()

    def source_power(self) -> float:
        """Power drawn from the off-chip supply (W)."""
        return self.solution.vsource_power()

    def efficiency(self) -> float:
        """System power efficiency: load power / off-chip power."""
        source = self.source_power()
        if source <= 0:
            return 0.0
        return self.load_power() / source

    # ------------------------------------------------------------------
    # converter loading (V-S only)
    # ------------------------------------------------------------------
    def converter_currents(self) -> np.ndarray:
        """|output current| of every physical converter cell (A)."""
        if self._converter_multiplicity is None:
            raise RuntimeError("this PDN has no SC converters")
        bundles = np.abs(self.solution.converter_output_currents())
        # Dead banks have multiplicity 0 and zero stamped current; guard
        # the divide and let np.repeat drop them from the profile.
        per_cell = bundles / np.maximum(self._converter_multiplicity, 1)
        return np.repeat(per_cell, self._converter_multiplicity)

    def max_converter_current(self) -> float:
        """Worst per-converter loading (A)."""
        return float(self.converter_currents().max())

    def converters_within_rating(self) -> bool:
        """True when every converter respects its max-load rating.

        The paper skips Fig. 6 data points that violate the 100 mA limit.
        """
        if self._converter_rating is None:
            raise RuntimeError("this PDN has no SC converters")
        return self.max_converter_current() <= self._converter_rating
