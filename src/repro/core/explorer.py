"""Cross-layer design-space exploration — the paper's stated purpose.

"Our model can help system designers to evaluate the benefits and costs
of design scenarios with different number of regulators and different
TSV/C4 pad allocations" (Sec. 1).  :class:`DesignSpaceExplorer` sweeps
a grid of design points — PDN arrangement, TSV topology, pad budget,
converters per core — evaluates the four competing objectives for each
(worst-case supply noise at a given workload imbalance, system power
efficiency, EM-damage-free lifetime of the weaker conductor array, and
silicon area overhead), and extracts the Pareto-efficient frontier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.config.stackups import ProcessorSpec, TSV_TOPOLOGIES
from repro.config.technology import EMParameters, default_em, default_tsv
from repro.regulator.area import converters_area_overhead
from repro.config.converters import default_sc_spec
from repro.core.experiments.base import FigurePlan, compute_plans
from repro.core.experiments.fig5 import c4_array_lifetime, tsv_array_lifetime
from repro.runtime import PDNSpec, SweepEngine, SweepPoint
from repro.workload.imbalance import interleaved_layer_activities


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design scenario."""

    arrangement: str  # "regular" | "voltage-stacked"
    tsv_topology: str
    converters_per_core: int  # 0 for regular
    power_pad_fraction: float
    #: Worst-case IR drop at the evaluation imbalance (fraction of Vdd);
    #: None when the converter rating is violated (infeasible point).
    ir_drop: Optional[float]
    #: System power efficiency at the evaluation imbalance.
    efficiency: Optional[float]
    #: EM-damage-free lifetime of the C4 pad array, arbitrary units.
    c4_lifetime: float
    #: EM-damage-free lifetime of the TSV array (tiers + through-vias).
    tsv_lifetime: float
    #: Silicon area overhead per core (KoZ + converters), fraction.
    area_overhead: float
    #: True when the underlying solve was flagged degraded/unconverged;
    #: the point's objectives are then best-effort values.
    degraded: bool = False

    @property
    def feasible(self) -> bool:
        return self.ir_drop is not None

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance over five objectives.

        Lower is better for noise, area and the power-pad budget (pads
        not used for power are available for I/O — the paper's scarce
        resource); higher is better for efficiency and EM lifetime.
        """
        if not self.feasible or not other.feasible:
            return False
        at_least = (
            self.ir_drop <= other.ir_drop
            and self.efficiency >= other.efficiency
            and self.c4_lifetime >= other.c4_lifetime
            and self.tsv_lifetime >= other.tsv_lifetime
            and self.area_overhead <= other.area_overhead
            and self.power_pad_fraction <= other.power_pad_fraction
        )
        strictly = (
            self.ir_drop < other.ir_drop
            or self.efficiency > other.efficiency
            or self.c4_lifetime > other.c4_lifetime
            or self.tsv_lifetime > other.tsv_lifetime
            or self.area_overhead < other.area_overhead
            or self.power_pad_fraction < other.power_pad_fraction
        )
        return at_least and strictly


@dataclass
class ExplorationResult:
    """All evaluated points plus the Pareto frontier."""

    points: List[DesignPoint]
    imbalance: float
    n_layers: int

    @property
    def feasible_points(self) -> List[DesignPoint]:
        return [p for p in self.points if p.feasible]

    @property
    def degraded_points(self) -> int:
        """Evaluated points whose solve was flagged degraded."""
        return sum(1 for p in self.points if p.degraded)

    @property
    def pareto_frontier(self) -> List[DesignPoint]:
        feasible = self.feasible_points
        return [
            p
            for p in feasible
            if not any(q.dominates(p) for q in feasible)
        ]

    def best_by(self, objective: str) -> DesignPoint:
        """Single-objective winner among feasible points."""
        feasible = self.feasible_points
        if not feasible:
            raise RuntimeError("no feasible design points")
        keys = {
            "noise": lambda p: p.ir_drop,
            "efficiency": lambda p: -p.efficiency,
            "c4_lifetime": lambda p: -p.c4_lifetime,
            "tsv_lifetime": lambda p: -p.tsv_lifetime,
            "area": lambda p: p.area_overhead,
        }
        if objective not in keys:
            raise ValueError(f"objective must be one of {sorted(keys)}")
        return min(feasible, key=keys[objective])

    def format(self, pareto_only: bool = True) -> str:
        rows = []
        points = self.pareto_frontier if pareto_only else self.points
        ref_c4 = max(p.c4_lifetime for p in self.points)
        ref_tsv = max(p.tsv_lifetime for p in self.points)
        for p in sorted(points, key=lambda p: (p.ir_drop is None, p.ir_drop or 0)):
            rows.append(
                (
                    p.arrangement,
                    p.tsv_topology,
                    p.converters_per_core or "-",
                    f"{p.power_pad_fraction:.0%}",
                    None if p.ir_drop is None else p.ir_drop * 100,
                    None if p.efficiency is None else p.efficiency * 100,
                    p.c4_lifetime / ref_c4,
                    p.tsv_lifetime / ref_tsv,
                    p.area_overhead * 100,
                )
            )
        title = (
            f"{'Pareto frontier' if pareto_only else 'Design points'}: "
            f"{self.n_layers} layers at {self.imbalance:.0%} imbalance"
        )
        return format_table(
            [
                "arrangement", "TSV", "conv/core", "power pads",
                "IR drop (%Vdd)", "efficiency (%)", "C4 life (norm)",
                "TSV life (norm)", "area ovh (%)",
            ],
            rows,
            title=title,
        )


def _area_overhead(
    topology: str, converters: int, capacitor_technology: str
) -> float:
    core_area = ProcessorSpec().core_area
    koz = TSV_TOPOLOGIES[topology].area_overhead(core_area, default_tsv())
    if converters == 0:
        return koz
    conv = converters_area_overhead(
        default_sc_spec(), converters, core_area, capacitor_technology
    )
    return koz + conv


def _design_point_extract(
    outcome, em: EMParameters, capacitor_technology: str
) -> DesignPoint:
    """Build one DesignPoint from a sweep outcome (picklable)."""
    arrangement, topology, pad_fraction, converters = outcome.point.tag
    result = outcome.unwrap()
    # A regular PDN is always feasible; a V-S point is infeasible when
    # its converters exceed the 100 mA rating.
    feasible = converters == 0 or result.converters_within_rating()
    return DesignPoint(
        arrangement=arrangement,
        tsv_topology=topology,
        converters_per_core=converters,
        power_pad_fraction=pad_fraction,
        ir_drop=result.max_ir_drop_fraction() if feasible else None,
        efficiency=result.efficiency() if feasible else None,
        c4_lifetime=c4_array_lifetime(result, em),
        tsv_lifetime=tsv_array_lifetime(result, em),
        area_overhead=_area_overhead(topology, converters, capacitor_technology),
        degraded=bool(getattr(result, "degraded", False)),
    )


class DesignSpaceExplorer:
    """Sweep and rank 3D-PDN design scenarios.

    ``explore()`` runs its cross product as a one-run plan through
    :func:`~repro.core.experiments.base.compute_plans`, one topology at
    a time on a plain engine.  Pass ``engine=RunSupervisor(workers=N)``
    to spread the topologies over N worker processes.
    """

    def __init__(
        self,
        n_layers: int = 8,
        imbalance: float = 0.65,
        grid_nodes: int = 12,
        em: Optional[EMParameters] = None,
        capacitor_technology: str = "trench",
        engine: Optional[SweepEngine] = None,
    ):
        if not 0.0 <= imbalance <= 1.0:
            raise ValueError("imbalance must be within [0, 1]")
        self.n_layers = n_layers
        self.imbalance = imbalance
        self.grid_nodes = grid_nodes
        self.em = em or default_em()
        self.capacitor_technology = capacitor_technology
        self.engine = engine or SweepEngine()

    def explore(
        self,
        topologies: Sequence[str] = ("Dense", "Sparse", "Few"),
        pad_fractions: Sequence[float] = (0.25, 0.5),
        converter_counts: Sequence[int] = (2, 4, 8),
    ) -> ExplorationResult:
        """Evaluate the full cross product of scenarios on the engine."""
        activities = tuple(
            interleaved_layer_activities(self.n_layers, self.imbalance)
        )
        sweep_points: List[SweepPoint] = []
        for topology, fraction in itertools.product(topologies, pad_fractions):
            sweep_points.append(
                SweepPoint(
                    spec=PDNSpec.regular(
                        self.n_layers,
                        topology=topology,
                        power_pad_fraction=fraction,
                        grid_nodes=self.grid_nodes,
                    ),
                    # regular worst case: all layers active
                    tag=("regular", topology, fraction, 0),
                )
            )
        for topology, fraction, conv in itertools.product(
            topologies, pad_fractions, converter_counts
        ):
            sweep_points.append(
                SweepPoint(
                    spec=PDNSpec.stacked(
                        self.n_layers,
                        converters_per_core=conv,
                        topology=topology,
                        power_pad_fraction=fraction,
                        grid_nodes=self.grid_nodes,
                    ),
                    layer_activities=activities,
                    tag=("voltage-stacked", topology, fraction, conv),
                )
            )
        extract = partial(
            _design_point_extract,
            em=self.em,
            capacitor_technology=self.capacitor_technology,
        )
        plan = FigurePlan(
            runs=((sweep_points, extract),),
            assemble=lambda values: ExplorationResult(
                list(values[0]), self.imbalance, self.n_layers
            ),
        )
        return compute_plans([plan], self.engine)[0]
