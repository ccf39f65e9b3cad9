"""Switched-capacitor (SC) converter models.

The paper implements a 2:1 push-pull SC converter (Fig. 1) in 28 nm
CMOS, fits Seeman's output-impedance compact model (Fig. 2, Eq. 1-2),
validates the fit against Spectre transient simulation (Fig. 3), and
extends the two-load converter into a multi-output ladder for many-layer
stacks (stamped by :class:`repro.pdn.StackedPDN3D`).  This package
reproduces the converter pieces:

* :mod:`compact` — the RSSL/RFSL/RSERIES/RPAR compact model.
* :mod:`control` — open-loop and closed-loop frequency modulation.
* :mod:`switchcap_sim` — a piecewise-linear time-domain simulator of the
  switch/fly-cap network (the "circuit simulation" of Fig. 3).
* :mod:`area` — converter area under different capacitor technologies.
"""

from repro.regulator.compact import SCCompactModel, OperatingPoint
from repro.regulator.control import ClosedLoopControl, ControlPolicy, OpenLoopControl
from repro.regulator.switchcap_sim import SwitchCapSimulator, TransientResult
from repro.regulator.area import converter_area, converters_area_overhead

__all__ = [
    "SCCompactModel",
    "OperatingPoint",
    "ControlPolicy",
    "OpenLoopControl",
    "ClosedLoopControl",
    "SwitchCapSimulator",
    "TransientResult",
    "converter_area",
    "converters_area_overhead",
]
