"""The paper's headline claims, evaluated end-to-end in one report.

Abstract / conclusions checked:

1. V-S improves the 8-layer C4 array's EM lifetime by up to ~5x.
2. V-S improves the 8-layer TSV array's EM lifetime by more than 3x.
3. Stacking layers degrades the regular PDN's TSV lifetime by up to
   ~84%, while the V-S PDN's is nearly insensitive to layer count.
4. At the suite-average 65% workload imbalance, the V-S PDN's IR drop
   exceeds the equal-area regular PDN (Dense TSV) by only ~0.75% Vdd,
   and V-S wins outright below ~50% imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    add_grid_argument,
    compute_plans,
    degraded_notes,
    resolve_engine,
)
from repro.core.experiments.fig5 import Fig5aResult, Fig5bResult, fig5a_plan, fig5b_plan
from repro.core.experiments.fig6 import Fig6Result, fig6_plan
from repro.core.experiments.fig7 import Fig7Result, compute_fig7
from repro.runtime import SweepEngine

# The sweep axes the claims read, used for a figure that is not supplied.
# Figs. 5a/5b at 2 and 8 layers: the C4 and TSV gains at 8 layers (claims
# 1-2), the 2->8-layer TSV lifetime losses (claim 3), and the 2-layer V-S
# point every lifetime is normalised to.
HEADLINE_FIG5_LAYERS: Tuple[int, ...] = (2, 8)
# Fig. 5b at 25% power C4 only: the C4 gain (claim 1) compares the 25%
# regular series with the V-S PDN, which always uses 25%.
HEADLINE_FIG5B_PAD_FRACTIONS: Tuple[float, ...] = (0.25,)
# Fig. 6 at 8 converters per core: the extra IR drop at the average
# imbalance and the crossover (claim 4) read that series and the Dense line.
HEADLINE_FIG6_CONVERTERS: Tuple[int, ...] = (8,)


@dataclass(frozen=True)
class HeadlineReport:
    """Measured values behind each headline claim."""

    c4_improvement_8l: float
    tsv_improvement_8l: float
    regular_tsv_degradation: float
    vs_tsv_degradation: float
    average_imbalance: float
    vs_extra_ir_drop_at_average: float
    crossover_imbalance: Optional[float]
    #: Degraded/unconverged points rolled up from the Fig. 5a/5b/6 results
    #: the report was built from.  When they are computed here, only the
    #: demand-driven point set is evaluated, so only its points count.
    degraded_points: int = 0

    def format(self) -> str:
        crossover = (
            f"{self.crossover_imbalance:.0%}"
            if self.crossover_imbalance is not None
            else "none observed"
        )
        return "\n".join(
            [
                "Headline claims (paper -> measured):",
                f"  C4 EM lifetime gain at 8 layers (up to ~5x): {self.c4_improvement_8l:.2f}x",
                f"  TSV EM lifetime gain at 8 layers (>3x): {self.tsv_improvement_8l:.2f}x",
                f"  Regular-PDN TSV lifetime loss, 2->8 layers (up to 84%): "
                f"{self.regular_tsv_degradation:.0%}",
                f"  V-S PDN TSV lifetime loss, 2->8 layers (slight): "
                f"{self.vs_tsv_degradation:.0%}",
                f"  Suite-average max imbalance (65%): {self.average_imbalance:.0%}",
                f"  V-S IR drop above Reg/Dense at that imbalance (~0.75% Vdd): "
                f"{self.vs_extra_ir_drop_at_average * 100:+.2f}% Vdd",
                f"  V-S/regular noise crossover (~50%): {crossover}",
            ]
        )


@dataclass(frozen=True)
class ClaimBand:
    """A two-sided band around one measured :class:`HeadlineReport` value.

    The measured values move by less than 1e-3 relative between grids 6
    and 20, so a value outside its band means the physics changed, in
    either direction.
    """

    field: str
    low: float
    high: float
    #: Why the band sits where it does.
    reason: str
    #: Whether the ends belong to the band (open by default).
    closed: bool = False

    def contains(self, value: Optional[float]) -> bool:
        if value is None:
            return False
        if self.closed:
            return self.low <= value <= self.high
        return self.low < value < self.high


#: One band per headline claim, the single source for tests and benchmarks.
HEADLINE_CLAIM_BANDS: Tuple[ClaimBand, ...] = (
    ClaimBand(
        "c4_improvement_8l", 6.0, 8.0,
        "Measured 7.02x, above the paper's ~5x; a gain below 6x or past 8x "
        "means the C4 current split changed.",
    ),
    ClaimBand(
        "tsv_improvement_8l", 3.0, 4.0,
        "Measured 3.41x; the paper's >3x is the floor, 4x caps upward drift.",
    ),
    ClaimBand(
        "regular_tsv_degradation", 0.80, 0.92,
        "Measured 0.859, within a few points of the paper's ~84%.",
    ),
    ClaimBand(
        "vs_tsv_degradation", 0.10, 0.30,
        "Measured 0.197: a slight loss, far below the regular PDN's.",
    ),
    ClaimBand(
        "average_imbalance", 0.60, 0.70,
        "Measured 0.633 for the seeded suite; the paper reports 65%.",
    ),
    ClaimBand(
        "vs_extra_ir_drop_at_average", 0.003, 0.010,
        "Measured 0.61% Vdd: positive because V-S crosses Dense below the "
        "average imbalance, and under 1% Vdd like the paper's ~0.75%.",
    ),
    ClaimBand(
        "crossover_imbalance", 0.4, 0.7,
        "Measured 0.6 on the 0.2-step axis; the paper reports ~50%.",
        closed=True,
    ),
)


def run_headline(
    grid_nodes: int = 20,
    fig5a: Optional[Fig5aResult] = None,
    fig5b: Optional[Fig5bResult] = None,
    fig6: Optional[Fig6Result] = None,
    fig7: Optional[Fig7Result] = None,
    engine: Optional[SweepEngine] = None,
) -> HeadlineReport:
    """Evaluate every headline claim (reusing results when supplied).

    A figure that is not supplied is computed on demand, over only the
    sweep points the claims read: Figs. 5a/5b at 2 and 8 layers (5b at
    25% power C4 only) and the 8-converter Fig. 6 series with its
    regular-PDN lines.  That is 10 distinct topologies instead of the
    full figures' 35; the claims come out identical to those taken from
    full-axis figures.  Supplied figures are used as given.

    The figures share topologies, so :func:`compute_plans` runs them
    topology-major on any engine, and the engine ends holding none of
    the ten.  Each figure keeps its own right-hand-side batches, so the
    report equals the one from figure-by-figure runs; a default report
    makes 16 engine runs, with 10 structure-cache misses and 6 hits.
    """
    engine = engine or SweepEngine()
    plans = {}
    if fig5a is None:
        plans["fig5a"] = fig5a_plan(HEADLINE_FIG5_LAYERS, grid_nodes)
    if fig5b is None:
        plans["fig5b"] = fig5b_plan(
            HEADLINE_FIG5_LAYERS, HEADLINE_FIG5B_PAD_FRACTIONS, grid_nodes
        )
    if fig6 is None:
        plans["fig6"] = fig6_plan(
            converters_per_core=HEADLINE_FIG6_CONVERTERS, grid_nodes=grid_nodes
        )
    computed = dict(zip(plans, compute_plans(list(plans.values()), engine)))
    fig5a = computed.get("fig5a", fig5a)
    fig5b = computed.get("fig5b", fig5b)
    fig6 = computed.get("fig6", fig6)
    fig7 = fig7 or compute_fig7()

    vs_series = fig5a.series["V-S PDN, Few TSV"]
    reg_series = fig5a.series["Reg. PDN, Few TSV"]
    average = fig7.average_max_imbalance
    # Interpolate the Fig. 6 sweep at the suite-average imbalance.
    sweep = [
        (imb, val)
        for imb, val in zip(fig6.imbalances, fig6.vs_series[8])
        if val is not None
    ]
    vs_at_avg = None
    for (x0, y0), (x1, y1) in zip(sweep, sweep[1:]):
        if x0 <= average <= x1:
            vs_at_avg = y0 + (y1 - y0) * (average - x0) / (x1 - x0)
            break
    if vs_at_avg is None:
        vs_at_avg = sweep[-1][1]
    dense = fig6.regular_lines["Dense"]

    return HeadlineReport(
        c4_improvement_8l=fig5b.improvement_at(8),
        tsv_improvement_8l=fig5a.improvement_at(8),
        regular_tsv_degradation=fig5a.regular_degradation(),
        vs_tsv_degradation=1.0 - vs_series[-1] / vs_series[0],
        average_imbalance=average,
        vs_extra_ir_drop_at_average=vs_at_avg - dense,
        crossover_imbalance=fig6.crossover_imbalance(),
        degraded_points=(
            fig5a.degraded_points + fig5b.degraded_points + fig6.degraded_points
        ),
    )


class HeadlineExperiment(Experiment):
    name = "headline"
    description = "All headline claims in one report"

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        config = config or ExperimentConfig()
        report = run_headline(
            grid_nodes=config.grid_nodes,
            engine=resolve_engine(config),
        )
        return ExperimentResult(
            name=self.name,
            table=report.format(),
            data={
                "c4_improvement_8l": report.c4_improvement_8l,
                "tsv_improvement_8l": report.tsv_improvement_8l,
                "regular_tsv_degradation": report.regular_tsv_degradation,
                "vs_tsv_degradation": report.vs_tsv_degradation,
                "average_imbalance": report.average_imbalance,
                "vs_extra_ir_drop_at_average": report.vs_extra_ir_drop_at_average,
                "crossover_imbalance": report.crossover_imbalance,
                "degraded_points": report.degraded_points,
            },
            raw=report,
            notes=degraded_notes(report.degraded_points),
        )
