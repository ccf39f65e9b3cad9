"""The voltage-stacked (charge-recycled) 3D PDN — paper Fig. 4b.

The ``N`` layers' supply/ground nets form a series ladder of ``N+1``
rails: layer ``l``'s GND net is rail ``l`` and its Vdd net is rail
``l+1`` (0-based layers).  Rail 0 returns to the board through the GND
C4 pads; rail ``N`` receives the boosted ``N * Vdd`` supply through
through-via stacks (one per Vdd pad, crossing ``N-1`` layer interfaces).
Adjacent layers share their intermediate rail through the tier's full
TSV allocation, and every intermediate rail is regulated by a bank of
push-pull 2:1 SC converters spanning its neighbouring rails (the
multi-output ladder of Sec. 2.1).

Because all layers share the same stack current, the off-chip and
cross-layer current density is independent of layer count — the property
behind the V-S PDN's flat EM-lifetime curves in Fig. 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.config.converters import SCConverterSpec, default_sc_spec
from repro.config.stackups import StackConfig
from repro.config.technology import (
    C4Technology,
    OnChipMetal,
    PackageModel,
    TSVTechnology,
)
from repro.errors import FaultInjectionError
from repro.pdn.builder import (
    PKG_GND,
    PKG_VDD,
    BasePDN3D,
    connect_bundles,
    connect_bundles_to_node,
)
from repro.pdn.geometry import cells_to_arrays, distribute_per_core
from repro.pdn.pads import (
    C4_GND_TAG,
    C4_VDD_TAG,
    THROUGH_VIA_KEY,
    build_pad_array,
)
from repro.pdn.results import PDNResult
from repro.pdn.tsv import build_tsv_arrays, rail_tag
from repro.regulator.compact import SCCompactModel
from repro.utils.validation import check_positive_int


class StackedPDN3D(BasePDN3D):
    """Charge-recycled voltage-stacked power delivery for an N-layer stack.

    Parameters
    ----------
    stack:
        Stack design point; ``stack.n_layers`` must be >= 2.
    converters_per_core:
        2:1 SC cells regulating each intermediate rail, per core
        (the Fig. 6 / Fig. 8 sweep variable; paper studies 2-8).
    converter_spec:
        Converter electrical parameters; the compact model derives the
        stamped ``RSERIES`` and the parasitic shunt from it at its
        nominal switching frequency.
    """

    def __init__(
        self,
        stack: StackConfig,
        converters_per_core: int = 8,
        converter_spec: Optional[SCConverterSpec] = None,
        c4: Optional[C4Technology] = None,
        tsv: Optional[TSVTechnology] = None,
        metal: Optional[OnChipMetal] = None,
        package: Optional[PackageModel] = None,
    ):
        if stack.n_layers < 2:
            raise ValueError("voltage stacking requires at least 2 layers")
        check_positive_int("converters_per_core", converters_per_core)
        super().__init__(
            stack,
            c4=c4,
            tsv=tsv,
            metal=metal,
            package=package,
        )
        self.converters_per_core = converters_per_core
        self.converter_spec = converter_spec or default_sc_spec()
        self.compact_model = SCCompactModel(self.converter_spec)
        self.pad_array = build_pad_array(stack, self.c4, self.geometry)
        self.tsv_arrays = build_tsv_arrays(stack, self.tsv, self.geometry)
        self._converter_multiplicity: Optional[np.ndarray] = None
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        circuit = self.circuit
        stack = self.stack
        n = stack.n_layers
        edge_r = self.metal.grid_edge_resistance(self.geometry.cell_size)
        self._add_layer_grids(edge_r)

        # Boosted off-chip supply (N * Vdd) and lumped package.
        self._add_supply(stack.stack_supply_voltage)

        # Rail 0: bottom layer's GND net returns through the GND pads.
        self._record_group(
            connect_bundles_to_node(
                circuit,
                PKG_GND,
                self.gnd_ids[0],
                self.pad_array.gnd_cells,
                self.pad_array.pad_resistance,
                tag=C4_GND_TAG,
            )
        )

        # Rail N: the top layer's Vdd net is fed by through-via stacks
        # (pad + one TSV segment per crossed interface, in series).
        via_segments = max(1, n - 1)
        j, i, m = cells_to_arrays(self.pad_array.vdd_cells)
        node_id = circuit.node(PKG_VDD)
        n1 = np.full(len(m), node_id, dtype=int)
        n2 = self.vdd_ids[n - 1][j, i]
        resistance = (
            self.pad_array.pad_resistance
            + via_segments * self.tsv_arrays.tsv_resistance
        ) / m
        ref = circuit.add_resistors(n1, n2, resistance, tag=C4_VDD_TAG)
        from repro.pdn.results import ConductorGroup

        # The same branch stresses one pad and ``via_segments`` TSV
        # segments per conductor; register both populations.
        self._record_group(
            ConductorGroup(tag=C4_VDD_TAG, ref=ref, multiplicity=m, segments=1)
        )
        self.conductor_groups[THROUGH_VIA_KEY] = ConductorGroup(
            tag=C4_VDD_TAG, ref=ref, multiplicity=m, segments=via_segments
        )

        # Intermediate rails: layer (r-1) Vdd net <-> layer r GND net via
        # the tier's full TSV allocation.
        for rail in range(1, n):
            self._record_group(
                connect_bundles(
                    circuit,
                    self.vdd_ids[rail - 1],
                    self.gnd_ids[rail],
                    self.tsv_arrays.rail_cells,
                    self.tsv_arrays.tsv_resistance,
                    tag=rail_tag(rail),
                )
            )

        # SC converter banks regulating every intermediate rail.
        # The paper's uniform per-core distribution.
        conv_cells = distribute_per_core(self.geometry, self.converters_per_core)
        cj, ci, cm = cells_to_arrays(conv_cells)
        multiplicities = []
        r_series = self.compact_model.r_series()
        r_par = self.compact_model.r_par()
        for rail in range(1, n):
            top_ids = self.vdd_ids[rail][cj, ci]      # rail + 1
            bottom_ids = self.gnd_ids[rail - 1][cj, ci]  # rail - 1
            mid_ids = self.vdd_ids[rail - 1][cj, ci]  # rail (output)
            circuit.add_converters(
                top_ids,
                bottom_ids,
                mid_ids,
                r_series / cm,
                tag=f"sc.rail{rail}",
            )
            # Frequency-proportional parasitic loss across the input port.
            circuit.add_resistors(
                top_ids, bottom_ids, r_par / cm, tag=f"scpar.rail{rail}"
            )
            multiplicities.append(cm)
        self._converter_multiplicity = np.concatenate(multiplicities)

        self._add_layer_loads()

    # ------------------------------------------------------------------
    def _make_result(self, solution) -> PDNResult:
        return PDNResult(
            solution=solution,
            vdd_nominal=self.stack.processor.vdd,
            vdd_node_ids=self.vdd_ids,
            gnd_node_ids=self.gnd_ids,
            conductor_groups=self.conductor_groups,
            converter_multiplicity=self._converter_multiplicity,
            converter_rating=self.converter_spec.max_load_current,
        )

    @property
    def total_converters(self) -> int:
        """All converter cells across the stack."""
        return (
            (self.stack.n_layers - 1)
            * self.converters_per_core
            * self.stack.processor.core_count
        )

    @property
    def converter_multiplicity(self) -> Optional[np.ndarray]:
        """Surviving SC cells behind each stamped converter branch.

        Fault injection decrements this array in place as converter
        cells are killed.
        """
        return self._converter_multiplicity

    # ------------------------------------------------------------------
    def isolation_tags(self, layer: Optional[int] = None) -> Dict[str, List[str]]:
        """Everything that must fail open to electrically isolate ``layer``.

        In the series ladder a layer spans rails ``l`` (its GND net) and
        ``l + 1`` (its Vdd net), so isolating it requires opening both
        interface tiers — the rail TSVs, or the C4 arrays at the ladder's
        ends — plus the SC converter banks and their parasitic branches
        bridging those rails.  Defaults to the top layer.
        """
        n = self.stack.n_layers
        if layer is None:
            layer = n - 1
        if not 0 <= layer < n:
            raise FaultInjectionError(f"layer {layer} outside 0..{n - 1}")
        groups: List[str] = []
        # Lower interface: rail ``layer``.
        groups.append(rail_tag(layer) if layer > 0 else C4_GND_TAG)
        # Upper interface: rail ``layer + 1``.
        groups.append(rail_tag(layer + 1) if layer < n - 1 else C4_VDD_TAG)
        # Converter banks (and their parasitics) bridging either rail.
        rails = [r for r in (layer, layer + 1) if 1 <= r <= n - 1]
        return {
            "groups": groups,
            "converters": [f"sc.rail{r}" for r in rails],
            "resistors": [f"scpar.rail{r}" for r in rails],
        }
