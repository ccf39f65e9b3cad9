"""Multi-output ladder SC arrangement for many-layer stacks.

The paper extends the two-load converter of Mazumdar & Stan into "a
scalable, multi-output ladder SC" (Sec. 2.1): an ``N``-layer stack has
``N+1`` power rails (rail 0 = board ground, rail N = the boosted supply),
and every intermediate rail ``k`` is regulated by a bank of 2:1 push-pull
cells spanning rails ``k+1`` and ``k-1`` (Fig. 1 shows the 3-layer /
2-bank instance).  This module captures that arrangement's bookkeeping:
how many cells exist, where they connect, what silicon they cost and how
much mismatch they can absorb.  The electrical behaviour is stamped into
the PDN model by :mod:`repro.pdn.stacked3d`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config.converters import SCConverterSpec, default_sc_spec
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class LadderDesign:
    """A resolved ladder configuration for one stack design point."""

    #: Number of stacked layers ``N``.
    n_layers: int
    #: 2:1 cells regulating each intermediate rail, per core.
    converters_per_core: int
    #: Converter electrical/area spec.
    spec: SCConverterSpec

    def __post_init__(self) -> None:
        check_positive_int("n_layers", self.n_layers)
        if self.n_layers < 2:
            raise ValueError("a ladder needs at least 2 stacked layers")
        check_positive_int("converters_per_core", self.converters_per_core)

    @property
    def intermediate_rails(self) -> Tuple[int, ...]:
        """Indices of the regulated rails (1 .. N-1)."""
        return tuple(range(1, self.n_layers))

    @property
    def banks(self) -> int:
        """Number of converter banks (one per intermediate rail)."""
        return self.n_layers - 1

    def rail_span(self, rail: int) -> Tuple[int, int]:
        """(top, bottom) rail indices a cell at ``rail`` connects across."""
        if rail not in self.intermediate_rails:
            raise ValueError(
                f"rail must be an intermediate rail {self.intermediate_rails}, got {rail}"
            )
        return rail + 1, rail - 1

    def total_converters(self, core_count: int) -> int:
        """All cells on all layers of the stack for ``core_count`` cores."""
        check_positive_int("core_count", core_count)
        return self.banks * self.converters_per_core * core_count

    def max_mismatch_current_per_core(self) -> float:
        """Largest adjacent-layer current mismatch a bank can absorb (A).

        Each cell sources or sinks up to its 100 mA rating, and the cells
        of one bank share the core's mismatch current evenly.
        """
        return self.converters_per_core * self.spec.max_load_current

    def supports_imbalance(
        self, mismatch_current_per_core: float
    ) -> bool:
        """True when the bank rating covers the given per-core mismatch."""
        check_positive("mismatch_current_per_core", mismatch_current_per_core) if mismatch_current_per_core > 0 else None
        return abs(mismatch_current_per_core) <= self.max_mismatch_current_per_core()


def design_ladder(
    n_layers: int,
    converters_per_core: int,
    spec: Optional[SCConverterSpec] = None,
) -> LadderDesign:
    """Build a :class:`LadderDesign` with the paper's converter spec."""
    return LadderDesign(
        n_layers=n_layers,
        converters_per_core=converters_per_core,
        spec=spec or default_sc_spec(),
    )
