"""Switching-frequency control policies (paper Sec. 3.1, Fig. 3).

The paper evaluates two frequency-modulation strategies:

* **open-loop** — the converter always switches at its nominal (optimum)
  frequency, so parasitic loss is constant and efficiency collapses at
  light load.  The system-level study uses this policy.
* **closed-loop** — a feedback loop modulates frequency with load
  current.  We model the standard square-root law
  ``fsw = f_nom * sqrt(|I| / I_max)`` (clamped to a minimum ratio),
  which balances the slow-switching-limit conduction loss (growing as
  ``1/fsw``) against parasitic loss (growing as ``fsw``) and keeps
  efficiency high across the load range, matching Fig. 3a.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.config.converters import SCConverterSpec
from repro.utils.validation import check_fraction


class ControlPolicy(ABC):
    """Maps a load current to the converter's switching frequency."""

    @abstractmethod
    def frequency(self, spec: SCConverterSpec, load_current: float) -> float:
        """Switching frequency (Hz) for ``load_current`` (A)."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable policy name."""


@dataclass(frozen=True)
class OpenLoopControl(ControlPolicy):
    """Constant-frequency operation (the paper's system-level choice)."""

    @property
    def name(self) -> str:
        return "open-loop"

    def frequency(self, spec: SCConverterSpec, load_current: float) -> float:
        return spec.switching_frequency


@dataclass(frozen=True)
class ClosedLoopControl(ControlPolicy):
    """Load-proportional frequency modulation (square-root law)."""

    #: Lowest frequency the controller will command, as a fraction of the
    #: nominal frequency (keeps the output regulated at very light load).
    min_frequency_ratio: float = 0.02

    def __post_init__(self) -> None:
        check_fraction("min_frequency_ratio", self.min_frequency_ratio)
        if self.min_frequency_ratio == 0:
            raise ValueError("min_frequency_ratio must be > 0")

    @property
    def name(self) -> str:
        return "closed-loop"

    def frequency(self, spec: SCConverterSpec, load_current: float) -> float:
        ratio = math.sqrt(
            min(1.0, abs(load_current) / spec.max_load_current)
        )
        ratio = max(ratio, self.min_frequency_ratio)
        return spec.switching_frequency * ratio
