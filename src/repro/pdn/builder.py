"""Shared building blocks for the two 3D PDN topologies.

Both PDN classes derive from :class:`BasePDN3D`, which owns the model
grid, the per-layer load current machinery (leakage + activity * dynamic
decomposition for fast sweeps), and the assembled-circuit lifecycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config.stackups import StackConfig
from repro.config.technology import (
    C4Technology,
    OnChipMetal,
    PackageModel,
    TSVTechnology,
    default_c4,
    default_metal,
    default_package,
    default_tsv,
)
from repro.contracts import check_pdn_result
from repro.errors import ReproError
from repro.grid.backends import resolve_backend
from repro.grid.netlist import Circuit, ElementRef
from repro.grid.solver import SolveOptions, SolveRequest
from repro.pdn.geometry import CellMultiplicity, GridGeometry, cells_to_arrays
from repro.pdn.results import ConductorGroup, PDNResult
from repro.power.powermap import PowerMap, layer_power_map

#: Ground reference node key shared by all PDN builds.
BOARD_GND = ("board", "gnd")
BOARD_VDD = ("board", "vdd")
PKG_VDD = ("pkg", "vdd")
PKG_GND = ("pkg", "gnd")


def add_net_grid(
    circuit: Circuit,
    layer: int,
    net: str,
    geometry: GridGeometry,
    edge_resistance: float,
) -> np.ndarray:
    """Create one layer's power-net mesh; returns a (g, g) node-id array.

    Node ``(net, layer, j, i)`` sits at cell ``(j, i)``; the mesh's ids
    are one contiguous block (:meth:`Circuit.node_block`).  The mesh has
    one node per cell and one square of sheet resistance per
    horizontal/vertical edge.
    """
    g = geometry.grid_nodes
    ids = circuit.node_block((net, layer), g, g)
    tag = f"grid.{net}.l{layer}"
    # Horizontal edges.
    n1 = ids[:, :-1].ravel()
    n2 = ids[:, 1:].ravel()
    circuit.add_resistors(n1, n2, np.full(n1.size, edge_resistance), tag=tag)
    # Vertical edges.
    n1 = ids[:-1, :].ravel()
    n2 = ids[1:, :].ravel()
    circuit.add_resistors(n1, n2, np.full(n1.size, edge_resistance), tag=tag)
    return ids


def connect_bundles(
    circuit: Circuit,
    from_ids: np.ndarray,
    to_ids: np.ndarray,
    cells: CellMultiplicity,
    unit_resistance: float,
    tag: str,
    segments: int = 1,
) -> ConductorGroup:
    """Connect two node-id grids through per-cell conductor bundles.

    ``from_ids``/``to_ids`` are (g, g) arrays; each cell in ``cells``
    gets one equivalent resistor of ``unit_resistance * segments /
    multiplicity``.  Returns the EM bookkeeping for the group.
    """
    j, i, m = cells_to_arrays(cells)
    n1 = from_ids[j, i]
    n2 = to_ids[j, i]
    resistance = unit_resistance * segments / m
    ref = circuit.add_resistors(n1, n2, resistance, tag=tag)
    return ConductorGroup(tag=tag, ref=ref, multiplicity=m, segments=segments)


def connect_bundles_to_node(
    circuit: Circuit,
    node_key,
    grid_ids: np.ndarray,
    cells: CellMultiplicity,
    unit_resistance: float,
    tag: str,
    segments: int = 1,
) -> ConductorGroup:
    """Like :func:`connect_bundles` but one side is a single lumped node."""
    j, i, m = cells_to_arrays(cells)
    node_id = circuit.node(node_key)
    n1 = np.full(len(m), node_id, dtype=int)
    n2 = grid_ids[j, i]
    resistance = unit_resistance * segments / m
    ref = circuit.add_resistors(n1, n2, resistance, tag=tag)
    return ConductorGroup(tag=tag, ref=ref, multiplicity=m, segments=segments)


class BasePDN3D:
    """Common machinery for the regular and voltage-stacked PDNs."""

    def __init__(
        self,
        stack: StackConfig,
        c4: Optional[C4Technology] = None,
        tsv: Optional[TSVTechnology] = None,
        metal: Optional[OnChipMetal] = None,
        package: Optional[PackageModel] = None,
    ):
        self.stack = stack
        self.c4 = c4 or default_c4()
        self.tsv = tsv or default_tsv()
        self.metal = metal or default_metal()
        self.package = package or default_package()
        self.geometry = GridGeometry.from_stack(stack)
        self.circuit = Circuit()
        self.circuit.set_ground(BOARD_GND)
        self.vdd_ids: List[np.ndarray] = []
        self.gnd_ids: List[np.ndarray] = []
        self.conductor_groups: Dict[str, ConductorGroup] = {}
        self._load_refs: List[ElementRef] = []
        # Leakage / dynamic decomposition of the per-cell load currents,
        # for fast uniform-activity sweeps.
        leak_map = layer_power_map(stack, activity=0.0)
        full_map = layer_power_map(stack, activity=1.0)
        vdd = stack.processor.vdd
        self._leak_cells = leak_map.currents(vdd).ravel()
        self._dyn_cells = (full_map.cell_power - leak_map.cell_power).ravel() / vdd
        self._assembled = None
        self._fault_reports: List = []

    # ------------------------------------------------------------------
    def _add_layer_grids(self, edge_resistance: float) -> None:
        for layer in range(self.stack.n_layers):
            self.vdd_ids.append(
                add_net_grid(self.circuit, layer, "vdd", self.geometry, edge_resistance)
            )
            self.gnd_ids.append(
                add_net_grid(self.circuit, layer, "gnd", self.geometry, edge_resistance)
            )

    def _add_supply(self, voltage: float) -> None:
        """Stamp the off-chip source and lumped package (both polarities)."""
        circuit = self.circuit
        circuit.add_voltage_source(BOARD_VDD, BOARD_GND, voltage, tag="supply")
        pkg_r = max(self.package.resistance, 1e-9)
        circuit.add_resistor(BOARD_VDD, PKG_VDD, pkg_r, tag="pkg.vdd")
        circuit.add_resistor(PKG_GND, BOARD_GND, pkg_r, tag="pkg.gnd")

    def _add_layer_loads(self) -> None:
        """Constant-current loads at every cell of every layer.

        Placeholder (peak) currents are stamped; :meth:`solve` overrides
        them per operating point through the RHS only.
        """
        peak = self._leak_cells + self._dyn_cells
        for layer in range(self.stack.n_layers):
            ref = self.circuit.add_current_sources(
                self.vdd_ids[layer].ravel(),
                self.gnd_ids[layer].ravel(),
                peak,
                tag=f"load.l{layer}",
            )
            self._load_refs.append(ref)

    def _record_group(self, group: ConductorGroup) -> None:
        if group.tag in self.conductor_groups:
            raise ValueError(f"duplicate conductor group {group.tag!r}")
        self.conductor_groups[group.tag] = group

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def apply_faults(self, plan) -> "FaultReport":
        """Apply a :class:`repro.faults.FaultPlan` to this PDN's circuit.

        The cached factorisation is invalidated, conductor-group
        multiplicities are updated to the surviving population, and
        subsequent :meth:`solve` calls default to the resilient path
        (islands pruned and diagnosed instead of crashing).
        """
        report = plan.apply(self)
        self._fault_reports.append(report)
        self._assembled = None
        return report

    @property
    def faulted(self) -> bool:
        """True once any fault plan has been applied."""
        return bool(self._fault_reports)

    def fault_tags(self, prefix: str = "") -> List[str]:
        """Conductor-group keys addressable by fault plans."""
        return [k for k in self.conductor_groups if k.startswith(prefix)]

    # ------------------------------------------------------------------
    def _load_current_vector(
        self,
        layer_activities: Optional[Sequence[float]],
        power_maps: Optional[Sequence[PowerMap]],
    ) -> np.ndarray:
        n_layers = self.stack.n_layers
        cells = self.geometry.grid_nodes**2
        currents = np.empty(n_layers * cells)
        vdd = self.stack.processor.vdd
        if power_maps is not None:
            if len(power_maps) != n_layers:
                raise ValueError(f"need {n_layers} power maps, got {len(power_maps)}")
            for l, pmap in enumerate(power_maps):
                if pmap.grid_nodes != self.geometry.grid_nodes:
                    raise ValueError("power map grid does not match the PDN grid")
                if not np.all(np.isfinite(pmap.cell_power)):
                    raise ReproError(
                        f"power map for layer {l} contains NaN/Inf cell powers"
                    )
                currents[l * cells : (l + 1) * cells] = pmap.currents(vdd).ravel()
            return currents
        if layer_activities is None:
            layer_activities = np.ones(n_layers)
        layer_activities = np.asarray(layer_activities, dtype=float)
        if layer_activities.shape != (n_layers,):
            raise ValueError(
                f"layer_activities must have shape ({n_layers},), got "
                f"{layer_activities.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(layer_activities))
        if bad.size:
            raise ReproError(
                f"layer_activities[{int(bad[0])}] is NaN/Inf (layer {int(bad[0])})"
            )
        if np.any((layer_activities < 0) | (layer_activities > 1)):
            raise ValueError("layer activities must lie in [0, 1]")
        for l, activity in enumerate(layer_activities):
            currents[l * cells : (l + 1) * cells] = (
                self._leak_cells + activity * self._dyn_cells
            )
        return currents

    def solve(
        self,
        layer_activities: Optional[Sequence[float]] = None,
        power_maps: Optional[Sequence[PowerMap]] = None,
        resilient: Optional[bool] = None,
    ) -> PDNResult:
        """Solve one operating point.

        Either give per-layer uniform ``layer_activities`` (fast sweep
        path — the factorisation is reused) or explicit per-layer
        ``power_maps`` (spatially detailed).  Default: all layers fully
        active, the regular PDN's worst case.

        ``resilient`` selects the island-pruning solve path with
        :class:`repro.grid.solver.SolveDiagnostics` attached to the
        result; by default it turns on automatically once faults have
        been applied through :meth:`apply_faults`.
        """
        if resilient is None:
            resilient = self.faulted
        currents = self._load_current_vector(layer_activities, power_maps)
        solution = self.assembled().solve(
            SolveRequest(
                isource_current=currents,
                options=SolveOptions(resilient=resilient),
            )
        )
        return self._finalise_result(self._make_result(solution))

    def solve_batch(
        self,
        activity_sets: Sequence[Optional[Sequence[float]]],
        resilient: Optional[bool] = None,
    ) -> List[PDNResult]:
        """Solve many operating points in one multi-RHS batched solve.

        ``activity_sets`` is a sequence of per-layer activity vectors
        (``None`` entries mean all layers fully active, as in
        :meth:`solve`).  The PDN is assembled and factorised once; all
        load vectors are stacked into a dense RHS matrix and solved by a
        single batched :meth:`repro.grid.solver.AssembledCircuit.solve`
        call, in input order.  A batch of one is bit-identical to
        :meth:`solve`; a larger batch's columns may differ from it in the
        last bits, amplified by the system's conditioning (over 108 V-S
        designs: up to 8.9e-11 of max |x|, most under 1e-17).
        """
        if resilient is None:
            resilient = self.faulted
        currents = [
            self._load_current_vector(activities, None)
            for activities in activity_sets
        ]
        solutions = self.assembled().solve(
            SolveRequest(
                isource_currents=currents,
                options=SolveOptions(resilient=resilient),
            )
        )
        return [
            self._finalise_result(self._make_result(solution))
            for solution in solutions
        ]

    def assembled(self, backend=None):
        """The cached :class:`AssembledCircuit`, assembling on demand.

        ``backend`` (a solver-backend name from
        :mod:`repro.grid.backends`, or ``None`` for the process
        default) selects the factorisation backend; asking for a
        different backend than the cached assembly re-assembles.
        """
        if self._assembled is None or (
            backend is not None
            and self._assembled.backend.name != resolve_backend(backend).name
        ):
            self._assembled = self.circuit.assemble(backend=backend)
        return self._assembled

    # Subclasses fill converter metadata.
    def _make_result(self, solution) -> PDNResult:
        return PDNResult(
            solution=solution,
            vdd_nominal=self.stack.processor.vdd,
            vdd_node_ids=self.vdd_ids,
            gnd_node_ids=self.gnd_ids,
            conductor_groups=self.conductor_groups,
        )

    def _finalise_result(self, result: PDNResult) -> PDNResult:
        """Run the physics-contract checks and attach the report.

        Checks are pure reads — they never modify the solved values —
        so enabling them cannot change any experiment output.  A check
        failing at severity ``raise`` aborts here with a typed
        :class:`repro.errors.ContractViolationError`.  Solves of a
        fault-injected network are checked as degraded (severity capped
        at ``record``): its pristine invariants no longer hold by
        construction, and violations are data, not errors.
        """
        report = check_pdn_result(result, degraded=self.faulted)
        result.contracts = report
        diagnostics = result.diagnostics
        if diagnostics is not None:
            diagnostics.contracts = report
        return result
