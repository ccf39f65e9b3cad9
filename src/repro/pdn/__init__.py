"""3D-IC power-delivery-network models (the VoltSpot 3D extension).

Two PDN arrangements are modelled on the same electrical substrate
(paper Fig. 4):

* :class:`RegularPDN3D` — the conventional arrangement: every layer's
  Vdd and GND nets are paralleled through TSV tiers down to the C4
  pads (Fig. 4a).
* :class:`StackedPDN3D` — charge-recycled voltage stacking: the layers'
  supply/ground nets form a series ladder of ``N+1`` rails; the boosted
  supply enters the top layer through through-via stacks, and push-pull
  SC converters regulate every intermediate rail (Fig. 4b).

Both produce a :class:`PDNResult` exposing the max on-chip IR drop, the
per-conductor C4/TSV current profile consumed by the EM analysis, and
system power-efficiency bookkeeping.
"""

from repro.pdn.geometry import GridGeometry, distribute_per_core, distribute_uniform
from repro.pdn.pads import PadArray, build_pad_array
from repro.pdn.tsv import TSVArrays, build_tsv_arrays, tsv_topology_report
from repro.pdn.results import ConductorGroup, PDNResult
from repro.pdn.regular3d import RegularPDN3D
from repro.pdn.regular_sc3d import RegularSCPDN3D
from repro.pdn.stacked3d import StackedPDN3D

__all__ = [
    "GridGeometry",
    "distribute_per_core",
    "distribute_uniform",
    "PadArray",
    "build_pad_array",
    "TSVArrays",
    "build_tsv_arrays",
    "tsv_topology_report",
    "ConductorGroup",
    "PDNResult",
    "RegularPDN3D",
    "RegularSCPDN3D",
    "StackedPDN3D",
]
