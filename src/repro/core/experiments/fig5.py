"""Fig. 5 — EM-damage-free lifetime of the TSV and C4 pad arrays.

Both panels sweep the layer count (2, 4, 6, 8) at peak power (all layers
fully active — the EM stress condition) and report the expected
EM-damage-free lifetime normalised to the 2-layer V-S PDN:

* Fig. 5a: the power-TSV array.  Regular PDN with the Dense / Sparse /
  Few topologies vs the V-S PDN (Few topology, 32 Vdd pads per core
  feeding through-via stacks).
* Fig. 5b: the power-C4 array.  Regular PDN with 25/50/75/100% of pad
  sites used for power vs the V-S PDN at 25%.  The C4 array's stress is
  insensitive to the TSV topology, so a single (Few) topology is used.

Both sweeps are figure plans run by
:func:`~repro.core.experiments.base.compute_plans`: each distinct
topology is built and factorised once, serves every plan that reads it
(the headline report and ``repro report`` run several figures on one
engine), and is freed before the next one is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.config.technology import EMParameters, default_em
from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    FigurePlan,
    add_grid_argument,
    compute_plans,
    degraded_notes,
    outcome_degraded,
    resolve_engine,
)
from repro.core.scenarios import VS_VDD_PADS_PER_CORE
from repro.em import (
    C4_CROSS_SECTION,
    TSV_CROSS_SECTION,
    expected_em_lifetime,
    median_lifetimes_from_currents,
)
from repro.pdn.results import PDNResult
from repro.runtime import PDNSpec, SweepEngine, SweepPoint

LayerSweep = Tuple[int, ...]
DEFAULT_LAYERS: LayerSweep = (2, 4, 6, 8)


def tsv_array_lifetime(result: PDNResult, em: EMParameters) -> float:
    """Array lifetime over all TSV conductors (tiers + through-vias)."""
    bundles = [result.conductor_bundles("tsv")]
    if result.has_group_prefix("tvia"):
        bundles.append(result.conductor_bundles("tvia"))
    currents, counts = (np.concatenate(part) for part in zip(*bundles))
    medians = median_lifetimes_from_currents(currents, TSV_CROSS_SECTION, em)
    return expected_em_lifetime(medians, em, counts=counts)


def c4_array_lifetime(result: PDNResult, em: EMParameters) -> float:
    """Array lifetime over all power C4 pads."""
    currents, counts = result.conductor_bundles("c4")
    medians = median_lifetimes_from_currents(currents, C4_CROSS_SECTION, em)
    return expected_em_lifetime(medians, em, counts=counts)


# Module-level extractors so sweeps stay picklable for process fan-out.
# Each returns ``(value, degraded)`` so the contract/convergence flag
# survives the trip back from worker processes.
def _extract_tsv_lifetime(outcome, em: EMParameters) -> Tuple[float, bool]:
    return tsv_array_lifetime(outcome.unwrap(), em), outcome_degraded(outcome)


def _extract_c4_lifetime(outcome, em: EMParameters) -> Tuple[float, bool]:
    return c4_array_lifetime(outcome.unwrap(), em), outcome_degraded(outcome)


@dataclass(frozen=True)
class Fig5aResult:
    """Normalised TSV-array lifetimes per design and layer count."""

    layers: LayerSweep
    #: Series name -> lifetime per layer count, normalised to 2-layer V-S.
    series: Dict[str, List[float]]
    #: Sweep points whose solve was flagged degraded/unconverged.
    degraded_points: int = 0

    def improvement_at(self, n_layers: int, baseline: str = "Reg. PDN, Few TSV") -> float:
        """V-S / regular lifetime ratio at a layer count."""
        idx = self.layers.index(n_layers)
        return self.series["V-S PDN, Few TSV"][idx] / self.series[baseline][idx]

    def regular_degradation(self, name: str = "Reg. PDN, Few TSV") -> float:
        """Fractional lifetime loss of a regular series from 2 to max layers."""
        values = self.series[name]
        return 1.0 - values[-1] / values[0]

    def format(self) -> str:
        headers = ["design"] + [f"{n} layers" for n in self.layers]
        rows = [[name] + values for name, values in self.series.items()]
        return format_table(
            headers, rows,
            title="Fig. 5a: normalised TSV EM-damage-free MTTF (vs 2-layer V-S)",
        )


@dataclass(frozen=True)
class Fig5bResult:
    """Normalised C4-array lifetimes per design and layer count."""

    layers: LayerSweep
    series: Dict[str, List[float]]
    #: Sweep points whose solve was flagged degraded/unconverged.
    degraded_points: int = 0

    def improvement_at(self, n_layers: int, baseline: str = "Reg. PDN (25% Power C4)") -> float:
        idx = self.layers.index(n_layers)
        return self.series["V-S PDN (25% Power C4)"][idx] / self.series[baseline][idx]

    def format(self) -> str:
        headers = ["design"] + [f"{n} layers" for n in self.layers]
        rows = [[name] + values for name, values in self.series.items()]
        return format_table(
            headers, rows,
            title="Fig. 5b: normalised C4 EM-damage-free MTTF (vs 2-layer V-S)",
        )


def _normalised_plan(
    layers: LayerSweep,
    named_specs: List[Tuple[str, PDNSpec]],
    extract,
    vs_name: str,
    result_type,
) -> FigurePlan:
    """One run over all specs, normalised to 2-layer V-S on assembly.

    The assembled result also carries the degraded-point count.
    """
    points = [SweepPoint(spec=spec, tag=name) for name, spec in named_specs]

    def assemble(values):
        (flagged,) = values
        degraded = sum(1 for _, flag in flagged if flag)
        raw: Dict[str, List[float]] = {}
        for (name, _), (value, _) in zip(named_specs, flagged):
            raw.setdefault(name, []).append(value)
        reference = raw[vs_name][layers.index(2)] if 2 in layers else raw[vs_name][0]
        series = {k: [v / reference for v in vals] for k, vals in raw.items()}
        return result_type(layers=layers, series=series, degraded_points=degraded)

    return FigurePlan(runs=((points, extract),), assemble=assemble)


_FIG5A_VS_SERIES = "V-S PDN, Few TSV"
_FIG5B_VS_SERIES = "V-S PDN (25% Power C4)"


def fig5a_plan(
    layers: LayerSweep = DEFAULT_LAYERS,
    grid_nodes: int = 20,
    em: Optional[EMParameters] = None,
) -> FigurePlan:
    """Fig. 5a's engine run (points in sweep order) and its assembly."""
    layers = tuple(layers)
    named_specs: List[Tuple[str, PDNSpec]] = []
    for topology in ("Dense", "Sparse", "Few"):
        name = f"Reg. PDN, {topology} TSV"
        for n in layers:
            named_specs.append(
                (name, PDNSpec.regular(n, topology=topology, grid_nodes=grid_nodes))
            )
    for n in layers:
        named_specs.append(
            (
                _FIG5A_VS_SERIES,
                PDNSpec.stacked(
                    n,
                    topology="Few",
                    vdd_pads_per_core=VS_VDD_PADS_PER_CORE,
                    grid_nodes=grid_nodes,
                ),
            )
        )
    return _normalised_plan(
        layers,
        named_specs,
        partial(_extract_tsv_lifetime, em=em or default_em()),
        _FIG5A_VS_SERIES,
        Fig5aResult,
    )


def fig5b_plan(
    layers: LayerSweep = DEFAULT_LAYERS,
    pad_fractions: Sequence[float] = (0.25, 0.50, 0.75, 1.00),
    grid_nodes: int = 20,
    em: Optional[EMParameters] = None,
) -> FigurePlan:
    """Fig. 5b's engine run (points in sweep order) and its assembly."""
    layers = tuple(layers)
    named_specs: List[Tuple[str, PDNSpec]] = []
    for fraction in pad_fractions:
        name = f"Reg. PDN ({int(round(fraction * 100))}% Power C4)"
        for n in layers:
            named_specs.append(
                (
                    name,
                    PDNSpec.regular(
                        n,
                        topology="Few",
                        power_pad_fraction=fraction,
                        grid_nodes=grid_nodes,
                    ),
                )
            )
    for n in layers:
        named_specs.append(
            (
                _FIG5B_VS_SERIES,
                PDNSpec.stacked(
                    n, topology="Few", power_pad_fraction=0.25, grid_nodes=grid_nodes
                ),
            )
        )
    return _normalised_plan(
        layers,
        named_specs,
        partial(_extract_c4_lifetime, em=em or default_em()),
        _FIG5B_VS_SERIES,
        Fig5bResult,
    )


def compute_fig5a(
    layers: LayerSweep = DEFAULT_LAYERS,
    grid_nodes: int = 20,
    em: Optional[EMParameters] = None,
    engine: Optional[SweepEngine] = None,
) -> Fig5aResult:
    """Reproduce Fig. 5a (TSV array lifetimes).

    The engine-backed implementation behind :class:`Fig5aExperiment`.
    """
    return compute_plans(
        [fig5a_plan(layers, grid_nodes, em)], engine or SweepEngine()
    )[0]


def compute_fig5b(
    layers: LayerSweep = DEFAULT_LAYERS,
    pad_fractions: Sequence[float] = (0.25, 0.50, 0.75, 1.00),
    grid_nodes: int = 20,
    em: Optional[EMParameters] = None,
    engine: Optional[SweepEngine] = None,
) -> Fig5bResult:
    """Reproduce Fig. 5b (C4 pad array lifetimes).

    The engine-backed implementation behind :class:`Fig5bExperiment`.
    """
    return compute_plans(
        [fig5b_plan(layers, pad_fractions, grid_nodes, em)], engine or SweepEngine()
    )[0]


class Fig5aExperiment(Experiment):
    name = "fig5a"
    description = "Fig. 5a: TSV array EM lifetime"
    compute = staticmethod(compute_fig5a)

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        config = config or ExperimentConfig()
        result = self.compute(
            grid_nodes=config.grid_nodes,
            engine=resolve_engine(config),
        )
        return ExperimentResult(
            name=self.name,
            table=result.format(),
            data={
                "layers": list(result.layers),
                "series": result.series,
                "degraded_points": result.degraded_points,
            },
            raw=result,
            notes=degraded_notes(result.degraded_points),
        )


class Fig5bExperiment(Fig5aExperiment):
    """Fig. 5a's command over the C4 array."""

    name = "fig5b"
    description = "Fig. 5b: C4 array EM lifetime"
    compute = staticmethod(compute_fig5b)
