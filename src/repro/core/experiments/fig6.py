"""Fig. 6 — load-imbalance-induced voltage noise of the 8-layer stack.

The V-S PDN (Few TSV) is swept over the interleaved high-low workload
pattern at 0-100% imbalance for 2/4/6/8 converters per core; data points
whose converters exceed the 100 mA rating are skipped, exactly as the
paper does.  The regular PDN's worst case is all-layers-active and is
therefore a single horizontal line per TSV topology.

The sweep runs on the :class:`repro.runtime.engine.SweepEngine`: each
converter count is one topology group whose eleven imbalance points
share a single factorisation and one batched multi-RHS solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
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
from repro.runtime import PDNSpec, SweepEngine, SweepPoint
from repro.workload.imbalance import interleaved_layer_activities

DEFAULT_IMBALANCES: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_CONVERTERS: Tuple[int, ...] = (2, 4, 6, 8)


def _extract_rated_ir_drop(outcome) -> Tuple[Optional[float], bool]:
    """(IR-drop fraction or None when rating-violated, degraded flag)."""
    result = outcome.unwrap()
    if result.converters_within_rating():
        return result.max_ir_drop_fraction(), outcome_degraded(outcome)
    return None, outcome_degraded(outcome)  # the paper skips these points


def _extract_ir_drop(outcome) -> Tuple[float, bool]:
    return outcome.unwrap().max_ir_drop_fraction(), outcome_degraded(outcome)


@dataclass(frozen=True)
class Fig6Result:
    """IR-drop sweep results (fractions of Vdd)."""

    n_layers: int
    imbalances: Tuple[float, ...]
    #: converters/core -> IR drop per imbalance (None = rating violated).
    vs_series: Dict[int, List[Optional[float]]]
    #: TSV topology name -> flat regular-PDN worst-case IR drop.
    regular_lines: Dict[str, float]
    #: converters/core -> per-imbalance degraded/unconverged flags.
    vs_degraded: Dict[int, List[bool]] = field(default_factory=dict)
    #: Total sweep points (V-S + regular) flagged degraded.
    degraded_points: int = 0

    def vs_at(self, converters: int, imbalance: float) -> Optional[float]:
        idx = self.imbalances.index(imbalance)
        return self.vs_series[converters][idx]

    def crossover_imbalance(
        self, converters: int = 8, regular: str = "Dense"
    ) -> Optional[float]:
        """First swept imbalance where V-S noise exceeds the regular line."""
        threshold = self.regular_lines[regular]
        for imbalance, value in zip(self.imbalances, self.vs_series[converters]):
            if value is not None and value > threshold:
                return imbalance
        return None

    def format(self) -> str:
        headers = ["imbalance"] + [
            f"V-S {k} conv/core" for k in sorted(self.vs_series)
        ]
        rows = []
        for i, imbalance in enumerate(self.imbalances):
            row: List[object] = [f"{imbalance:.0%}"]
            for k in sorted(self.vs_series):
                value = self.vs_series[k][i]
                row.append(None if value is None else value * 100)
            rows.append(row)
        table = format_table(
            headers, rows,
            title=(
                f"Fig. 6: max on-chip IR drop (% Vdd), {self.n_layers}-layer V-S PDN "
                "(Few TSV; '-' = converter rating exceeded)"
            ),
        )
        lines = [
            f"Reg. PDN {name} TSV (worst case, any imbalance): {value * 100:.2f}% Vdd"
            for name, value in self.regular_lines.items()
        ]
        return table + "\n" + "\n".join(lines)


def vs_series_points(
    n_layers: int,
    imbalances: Sequence[float],
    converters_per_core: Sequence[int],
    grid_nodes: int,
) -> List[SweepPoint]:
    """The V-S (Few TSV) sweep, converter-major: one topology per count.

    Figs. 6 and 8 read the same topologies at their own imbalances.
    """
    return [
        SweepPoint(
            spec=PDNSpec.stacked(
                n_layers, converters_per_core=k, topology="Few",
                grid_nodes=grid_nodes,
            ),
            layer_activities=tuple(
                interleaved_layer_activities(n_layers, imbalance)
            ),
        )
        for k in converters_per_core
        for imbalance in imbalances
    ]


def split_vs_series(flagged, converters_per_core: Sequence[int]):
    """``(values, degraded flags)`` per converter count, from the
    ``(value, degraded)`` pairs of a :func:`vs_series_points` run."""
    n_imb = len(flagged) // max(1, len(converters_per_core))
    chunks = {
        k: flagged[i * n_imb:(i + 1) * n_imb] for i, k in enumerate(converters_per_core)
    }
    values = {k: [value for value, _ in chunk] for k, chunk in chunks.items()}
    return values, {k: [bool(flag) for _, flag in chunk] for k, chunk in chunks.items()}


def fig6_plan(
    n_layers: int = 8,
    imbalances: Sequence[float] = DEFAULT_IMBALANCES,
    converters_per_core: Sequence[int] = DEFAULT_CONVERTERS,
    grid_nodes: int = 20,
) -> FigurePlan:
    """Fig. 6's two engine runs and their assembly.

    The first run is the V-S series (converter-major, one topology per
    converter count), the second the regular PDN's worst-case lines.
    """
    imbalances = tuple(imbalances)
    regular_points = [
        SweepPoint(
            spec=PDNSpec.regular(n_layers, topology=topology, grid_nodes=grid_nodes),
            layer_activities=(1.0,) * n_layers,
        )
        for topology in ("Dense", "Sparse", "Few")
    ]

    def assemble(values) -> Fig6Result:
        vs_flagged, regular_flagged = values
        vs_series, vs_degraded = split_vs_series(vs_flagged, converters_per_core)
        regular_lines = dict(
            zip(("Dense", "Sparse", "Few"), (value for value, _ in regular_flagged))
        )
        degraded = sum(1 for _, flag in vs_flagged if flag) + sum(
            1 for _, flag in regular_flagged if flag
        )
        return Fig6Result(
            n_layers=n_layers,
            imbalances=imbalances,
            vs_series=vs_series,
            regular_lines=regular_lines,
            vs_degraded=vs_degraded,
            degraded_points=degraded,
        )

    return FigurePlan(
        runs=(
            (
                vs_series_points(n_layers, imbalances, converters_per_core, grid_nodes),
                _extract_rated_ir_drop,
            ),
            (regular_points, _extract_ir_drop),
        ),
        assemble=assemble,
    )


def compute_fig6(
    n_layers: int = 8,
    imbalances: Sequence[float] = DEFAULT_IMBALANCES,
    converters_per_core: Sequence[int] = DEFAULT_CONVERTERS,
    grid_nodes: int = 20,
    engine: Optional[SweepEngine] = None,
) -> Fig6Result:
    """Reproduce the Fig. 6 noise comparison.

    The engine-backed implementation behind :class:`Fig6Experiment`.
    """
    return compute_plans(
        [fig6_plan(n_layers, imbalances, converters_per_core, grid_nodes)],
        engine or SweepEngine(),
    )[0]


class Fig6Experiment(Experiment):
    name = "fig6"
    description = "Fig. 6: IR drop vs workload imbalance"

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
        result = compute_fig6(
            n_layers=config.n_layers,
            grid_nodes=config.grid_nodes,
            engine=resolve_engine(config),
        )
        notes = degraded_notes(result.degraded_points)
        csv_path = config.option("csv")
        if csv_path:
            from repro.analysis.export import fig6_to_csv

            notes.append(f"wrote {fig6_to_csv(result, csv_path)}")
        return ExperimentResult(
            name=self.name,
            table=result.format(),
            data={
                "n_layers": result.n_layers,
                "imbalances": list(result.imbalances),
                "vs_series": {str(k): v for k, v in result.vs_series.items()},
                "regular_lines": result.regular_lines,
                "vs_degraded": {str(k): v for k, v in result.vs_degraded.items()},
                "degraded_points": result.degraded_points,
            },
            raw=result,
            notes=notes,
        )
