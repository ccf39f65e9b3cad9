"""The conventional (parallel) 3D PDN — paper Fig. 4a.

Every layer's Vdd net is paralleled with the next layer's through the
power-TSV tier, and likewise for the GND nets; all off-chip current
enters through the bottom layer's C4 pads.  Stacking more layers
multiplies the current through both the pad array and the lower TSV
tiers, which is the root of the regular PDN's EM-scaling problem
(Fig. 5).
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
from repro.pdn.pads import C4_GND_TAG, C4_VDD_TAG, build_pad_array
from repro.pdn.tsv import build_tsv_arrays, tier_tag


class RegularPDN3D(BasePDN3D):
    """Conventional parallel power delivery for an N-layer stack."""

    def __init__(
        self,
        stack: StackConfig,
        c4: Optional[C4Technology] = None,
        tsv: Optional[TSVTechnology] = None,
        metal: Optional[OnChipMetal] = None,
        package: Optional[PackageModel] = None,
    ):
        super().__init__(
            stack,
            c4=c4,
            tsv=tsv,
            metal=metal,
            package=package,
        )
        self.pad_array = build_pad_array(stack, self.c4, self.geometry)
        self.tsv_arrays = build_tsv_arrays(stack, self.tsv, self.geometry)
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        circuit = self.circuit
        edge_r = self.metal.grid_edge_resistance(self.geometry.cell_size)
        self._add_layer_grids(edge_r)

        # Off-chip supply and lumped package.
        self._add_supply(self.stack.processor.vdd)

        # C4 pads into the bottom layer (layer 0).
        self._record_group(
            connect_bundles_to_node(
                circuit,
                PKG_VDD,
                self.vdd_ids[0],
                self.pad_array.vdd_cells,
                self.pad_array.pad_resistance,
                tag=C4_VDD_TAG,
            )
        )
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

        # TSV tiers between adjacent layers, both nets in parallel.
        for tier in range(self.stack.n_layers - 1):
            self._record_group(
                connect_bundles(
                    circuit,
                    self.vdd_ids[tier],
                    self.vdd_ids[tier + 1],
                    self.tsv_arrays.vdd_cells,
                    self.tsv_arrays.tsv_resistance,
                    tag=tier_tag("vdd", tier),
                )
            )
            self._record_group(
                connect_bundles(
                    circuit,
                    self.gnd_ids[tier + 1],
                    self.gnd_ids[tier],
                    self.tsv_arrays.gnd_cells,
                    self.tsv_arrays.tsv_resistance,
                    tag=tier_tag("gnd", tier),
                )
            )

        self._add_layer_loads()

    # ------------------------------------------------------------------
    def isolation_tags(self, layer: Optional[int] = None) -> Dict[str, List[str]]:
        """Everything that must fail open to electrically isolate ``layer``.

        A regular-PDN layer hangs off the TSV tiers above and below it
        (both nets), plus the C4 arrays when it is the bottom layer.
        Opening all of them turns the layer into a floating island — the
        worst-case contingency :func:`repro.faults.severed_layer_plan`
        replays.  Defaults to the top layer, the cut with the fewest
        severed branches.
        """
        n = self.stack.n_layers
        if layer is None:
            layer = n - 1
        if not 0 <= layer < n:
            raise FaultInjectionError(f"layer {layer} outside 0..{n - 1}")
        groups: List[str] = []
        if layer > 0:
            groups += [tier_tag("vdd", layer - 1), tier_tag("gnd", layer - 1)]
        else:
            groups += [C4_VDD_TAG, C4_GND_TAG]
        if layer < n - 1:
            groups += [tier_tag("vdd", layer), tier_tag("gnd", layer)]
        return {"groups": groups}
