"""Fig. 8 — system power efficiency of the 8-layer stack.

For the V-S PDN, efficiency (total load power / off-chip source power)
comes straight from the grid solve: it accounts for converter series and
parasitic losses plus all resistive PDN losses.  The regular-PDN
comparison line — SC converters providing *all* the power, stepping a
2 Vdd rail down to Vdd — is evaluated with the compact model, with each
core served by the minimal number of converters that respects the
100 mA rating.

The V-S sweep reads Fig. 6's topologies (one per converter count) at
Fig. 8's imbalances; each topology's points are solved in one batched
multi-RHS call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.config.converters import SCConverterSpec, default_sc_spec
from repro.config.stackups import ProcessorSpec
from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    FigurePlan,
    add_grid_argument,
    add_layers_argument,
    compute_plans,
    degraded_notes,
    outcome_degraded,
    resolve_engine,
)
from repro.core.experiments.fig6 import split_vs_series, vs_series_points
from repro.regulator.compact import SCCompactModel
from repro.runtime import SweepEngine
from repro.workload.imbalance import interleaved_layer_activities

DEFAULT_IMBALANCES: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_CONVERTERS: Tuple[int, ...] = (2, 4, 6, 8)


def regular_sc_efficiency(
    imbalance: float,
    n_layers: int = 8,
    processor: Optional[ProcessorSpec] = None,
    spec: Optional[SCConverterSpec] = None,
) -> float:
    """Efficiency of a regular PDN whose SC converters carry all power.

    Unlike the V-S case the converters see the full per-core current of
    every layer (high and low layers alike under the interleaved
    pattern), converting a 2 Vdd input rail down to Vdd.
    """
    processor = processor or ProcessorSpec()
    spec = spec or default_sc_spec()
    model = SCCompactModel(spec)
    peak_core_current = processor.peak_core_power / processor.vdd
    converters_per_core = max(1, math.ceil(peak_core_current / spec.max_load_current))
    total_out = 0.0
    total_in = 0.0
    for activity in interleaved_layer_activities(n_layers, imbalance):
        core_current = processor.layer_power(float(activity)) / (
            processor.vdd * processor.core_count
        )
        per_converter = core_current / converters_per_core
        op = model.operating_point(
            2.0 * processor.vdd, 0.0, per_converter
        )
        total_out += op.output_power * converters_per_core * processor.core_count
        total_in += op.input_power * converters_per_core * processor.core_count
    return total_out / total_in


def _extract_rated_efficiency(outcome) -> Tuple[Optional[float], bool]:
    """(Efficiency or None when rating-violated, degraded flag)."""
    result = outcome.unwrap()
    if result.converters_within_rating():
        return result.efficiency(), outcome_degraded(outcome)
    return None, outcome_degraded(outcome)


@dataclass(frozen=True)
class Fig8Result:
    """Efficiency sweep results (fractions of 1)."""

    n_layers: int
    imbalances: Tuple[float, ...]
    #: converters/core -> efficiency per imbalance (None = rating violated).
    vs_series: Dict[int, List[Optional[float]]]
    #: regular PDN + SC-for-all-power line.
    regular_sc: List[float]
    #: converters/core -> per-imbalance degraded/unconverged flags.
    vs_degraded: Dict[int, List[bool]] = field(default_factory=dict)
    #: Total sweep points flagged degraded.
    degraded_points: int = 0

    def vs_at(self, converters: int, imbalance: float) -> Optional[float]:
        idx = self.imbalances.index(imbalance)
        return self.vs_series[converters][idx]

    def format(self) -> str:
        headers = (
            ["imbalance"]
            + [f"V-S {k} conv/core" for k in sorted(self.vs_series)]
            + ["Reg. PDN + SC all power"]
        )
        rows = []
        for i, imbalance in enumerate(self.imbalances):
            row: List[object] = [f"{imbalance:.0%}"]
            for k in sorted(self.vs_series):
                value = self.vs_series[k][i]
                row.append(None if value is None else value * 100)
            row.append(self.regular_sc[i] * 100)
            rows.append(row)
        return format_table(
            headers, rows,
            title=(
                f"Fig. 8: system power efficiency (%), {self.n_layers}-layer stack "
                "('-' = converter rating exceeded)"
            ),
        )


def fig8_plan(
    n_layers: int = 8,
    imbalances: Sequence[float] = DEFAULT_IMBALANCES,
    converters_per_core: Sequence[int] = DEFAULT_CONVERTERS,
    grid_nodes: int = 20,
) -> FigurePlan:
    """Fig. 8's engine run (Fig. 6's V-S topologies) and its assembly."""
    imbalances = tuple(imbalances)

    def assemble(values) -> Fig8Result:
        (flagged,) = values
        vs_series, vs_degraded = split_vs_series(flagged, converters_per_core)
        return Fig8Result(
            n_layers=n_layers,
            imbalances=imbalances,
            vs_series=vs_series,
            regular_sc=[regular_sc_efficiency(i, n_layers) for i in imbalances],
            vs_degraded=vs_degraded,
            degraded_points=sum(1 for _, flag in flagged if flag),
        )

    return FigurePlan(
        runs=(
            (
                vs_series_points(n_layers, imbalances, converters_per_core, grid_nodes),
                _extract_rated_efficiency,
            ),
        ),
        assemble=assemble,
    )


def compute_fig8(
    n_layers: int = 8,
    imbalances: Sequence[float] = DEFAULT_IMBALANCES,
    converters_per_core: Sequence[int] = DEFAULT_CONVERTERS,
    grid_nodes: int = 20,
    engine: Optional[SweepEngine] = None,
) -> Fig8Result:
    """Reproduce the Fig. 8 efficiency comparison.

    The engine-backed implementation behind :class:`Fig8Experiment`.
    """
    return compute_plans(
        [fig8_plan(n_layers, imbalances, converters_per_core, grid_nodes)],
        engine or SweepEngine(),
    )[0]


class Fig8Experiment(Experiment):
    name = "fig8"
    description = "Fig. 8: system power efficiency"

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)
        add_layers_argument(parser)
        parser.add_argument("--csv", type=str, default=None, help="also export to CSV")

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["csv"] = getattr(args, "csv", None)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        config = config or ExperimentConfig()
        result = compute_fig8(
            n_layers=config.n_layers,
            grid_nodes=config.grid_nodes,
            engine=resolve_engine(config),
        )
        notes = degraded_notes(result.degraded_points)
        csv_path = config.option("csv")
        if csv_path:
            from repro.analysis.export import fig8_to_csv

            notes.append(f"wrote {fig8_to_csv(result, csv_path)}")
        return ExperimentResult(
            name=self.name,
            table=result.format(),
            data={
                "n_layers": result.n_layers,
                "imbalances": list(result.imbalances),
                "vs_series": {str(k): v for k, v in result.vs_series.items()},
                "regular_sc": result.regular_sc,
                "vs_degraded": {str(k): v for k, v in result.vs_degraded.items()},
                "degraded_points": result.degraded_points,
            },
            raw=result,
            notes=notes,
        )
