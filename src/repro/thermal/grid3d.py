"""Steady-state 3D thermal conduction on the model grid.

Stack-up (bottom to top, heat flowing up to the sink as in a
conventional flip-chip 3D assembly with the heat sink on the back of the
top die):

    C4/board (adiabatic)  |  layer 0  | bond | layer 1 | bond | ...
    ... | layer N-1 | TIM | spreader (lumped) | sink-to-ambient R

Each silicon layer is discretised into the PDN grid's cells with lateral
conduction ``k_si * t_si`` per square; vertical paths go through the
bond/BEOL interfaces cell-by-cell.  The network is assembled as a
resistive circuit (temperature = voltage above ambient, power = injected
current) and solved with :mod:`repro.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.config.stackups import StackConfig
from repro.grid.netlist import Circuit
from repro.grid.solver import SolveRequest
from repro.power.powermap import PowerMap, layer_power_map
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ThermalConfig:
    """Material / cooling parameters for the thermal model."""

    #: Silicon thermal conductivity near operating temperature (W/mK).
    silicon_conductivity: float = 110.0
    #: Thinned die thickness (m); stacked dies are ~100 um or less.
    silicon_thickness: float = 100e-6
    #: Inter-layer bond (BEOL + underfill + microbumps) thickness (m).
    bond_thickness: float = 10e-6
    #: Effective bond-layer conductivity (W/mK).
    bond_conductivity: float = 2.0
    #: Thermal-interface-material thickness between the top die and the
    #: heat spreader (m).
    tim_thickness: float = 50e-6
    #: TIM conductivity (W/mK).
    tim_conductivity: float = 4.0
    #: Lumped spreader+sink-to-ambient resistance (K/W), air cooling.
    sink_resistance: float = 0.20
    #: Ambient temperature (Celsius).
    ambient: float = 45.0

    def __post_init__(self) -> None:
        check_positive("silicon_conductivity", self.silicon_conductivity)
        check_positive("silicon_thickness", self.silicon_thickness)
        check_positive("bond_thickness", self.bond_thickness)
        check_positive("bond_conductivity", self.bond_conductivity)
        check_positive("tim_thickness", self.tim_thickness)
        check_positive("tim_conductivity", self.tim_conductivity)
        check_positive("sink_resistance", self.sink_resistance)


@dataclass
class ThermalResult:
    """Solved temperature field of one stack operating point."""

    #: Per-layer temperature maps (Celsius), bottom layer first.
    layer_temperatures: List[np.ndarray]
    #: Ambient used (Celsius).
    ambient: float

    @property
    def hotspot(self) -> float:
        """Peak temperature anywhere in the stack (Celsius)."""
        return max(float(t.max()) for t in self.layer_temperatures)

    @property
    def hotspot_layer(self) -> int:
        """Index of the layer containing the hotspot."""
        peaks = [float(t.max()) for t in self.layer_temperatures]
        return int(np.argmax(peaks))


class HotSpotLite:
    """Steady-state thermal solver for a :class:`StackConfig` stack."""

    def __init__(self, stack: StackConfig, config: Optional[ThermalConfig] = None):
        self.stack = stack
        self.config = config or ThermalConfig()
        self._node_ids: List[np.ndarray] = []
        self._circuit = Circuit()
        self._assembled = None
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        stack = self.stack
        g = stack.grid_nodes
        cell = stack.processor.die_side / g
        cell_area = cell * cell
        circuit = self._circuit
        circuit.set_ground("ambient")

        # Lateral silicon conduction: R per square = 1 / (k * t).
        r_lateral = 1.0 / (cfg.silicon_conductivity * cfg.silicon_thickness)
        for layer in range(stack.n_layers):
            ids = circuit.node_block(("T", layer), g, g)
            self._node_ids.append(ids)
            n1 = ids[:, :-1].ravel()
            n2 = ids[:, 1:].ravel()
            circuit.add_resistors(n1, n2, np.full(n1.size, r_lateral), tag=f"lat.l{layer}")
            n1 = ids[:-1, :].ravel()
            n2 = ids[1:, :].ravel()
            circuit.add_resistors(n1, n2, np.full(n1.size, r_lateral), tag=f"lat.l{layer}")

        # Vertical conduction through bond layers, cell by cell.
        r_bond = cfg.bond_thickness / (cfg.bond_conductivity * cell_area)
        for tier in range(stack.n_layers - 1):
            n1 = self._node_ids[tier].ravel()
            n2 = self._node_ids[tier + 1].ravel()
            circuit.add_resistors(n1, n2, np.full(n1.size, r_bond), tag=f"bond.t{tier}")

        # TIM from the top layer into the lumped spreader, then the sink.
        r_tim = cfg.tim_thickness / (cfg.tim_conductivity * cell_area)
        top = self._node_ids[-1].ravel()
        spreader = circuit.node("spreader")
        circuit.add_resistors(
            top,
            np.full(top.size, spreader, dtype=int),
            np.full(top.size, r_tim),
            tag="tim",
        )
        circuit.add_resistor("spreader", "ambient", cfg.sink_resistance, tag="sink")

        # Heat injection placeholders (peak power); solve() overrides.
        for layer in range(stack.n_layers):
            ids = self._node_ids[layer].ravel()
            peak = layer_power_map(stack, activity=1.0).cell_power.ravel()
            circuit.add_current_sources(
                np.full(ids.size, circuit.node("ambient"), dtype=int),
                ids,
                peak,
                tag=f"heat.l{layer}",
            )

    # ------------------------------------------------------------------
    def solve(
        self,
        power_maps: Optional[Sequence[PowerMap]] = None,
        layer_activities: Optional[Sequence[float]] = None,
    ) -> ThermalResult:
        """Solve the temperature field for the given per-layer powers.

        Defaults to every layer at peak power — the feasibility check of
        Sec. 4.1.
        """
        stack = self.stack
        g = stack.grid_nodes
        if self._assembled is None:
            self._assembled = self._circuit.assemble()
        if power_maps is None:
            if layer_activities is None:
                layer_activities = np.ones(stack.n_layers)
            layer_activities = np.asarray(layer_activities, dtype=float)
            if layer_activities.shape != (stack.n_layers,):
                raise ValueError(
                    f"layer_activities must have shape ({stack.n_layers},)"
                )
            power_maps = [
                layer_power_map(stack, activity=float(a)) for a in layer_activities
            ]
        if len(power_maps) != stack.n_layers:
            raise ValueError(f"need {stack.n_layers} power maps")
        heats = np.concatenate([m.cell_power.ravel() for m in power_maps])
        solution = self._assembled.solve(SolveRequest(isource_current=heats))
        layers = [
            solution.voltage_by_id(ids).reshape(g, g) + self.config.ambient
            for ids in self._node_ids
        ]
        return ThermalResult(layer_temperatures=layers, ambient=self.config.ambient)


def max_feasible_layers(
    base_stack: StackConfig,
    limit_celsius: float = 100.0,
    max_layers: int = 12,
    config: Optional[ThermalConfig] = None,
) -> int:
    """Largest layer count whose peak-power hotspot stays below the limit.

    Reproduces the paper's Sec. 4.1 finding that the example processor
    can stack up to 8 layers under air cooling.
    """
    check_positive("limit_celsius", limit_celsius)
    feasible = 0
    for n in range(1, max_layers + 1):
        stack = StackConfig(
            n_layers=n,
            processor=base_stack.processor,
            tsv_topology=base_stack.tsv_topology,
            pads=base_stack.pads,
            grid_nodes=base_stack.grid_nodes,
        )
        result = HotSpotLite(stack, config).solve()
        if result.hotspot <= limit_celsius:
            feasible = n
        else:
            break
    return feasible
