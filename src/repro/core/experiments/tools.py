"""Experiment wrappers for the non-figure analysis commands.

These wrap the design-space explorer, the technology-sensitivity
tornado, the statistical noise profiler and the consolidated report
behind the same :class:`repro.core.experiments.base.Experiment`
protocol the figure reproductions use, so the CLI can be generated
from one registry.
"""

from __future__ import annotations

from typing import Optional

from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    add_grid_argument,
    add_layers_argument,
    add_seed_argument,
    degraded_notes,
    resolve_engine,
    typed_float,
    typed_int,
)


class ExploreExperiment(Experiment):
    name = "explore"
    description = "Design-space exploration (Pareto frontier)"

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)
        parser.add_argument(
            "--imbalance", type=typed_float("--imbalance", minimum=0.0),
            default=0.65,
        )
        parser.add_argument(
            "--layers", type=typed_int("--layers", minimum=1), default=8
        )
        parser.add_argument("--all-points", action="store_true")

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["imbalance"] = getattr(args, "imbalance", 0.65)
        config.options["all_points"] = getattr(args, "all_points", False)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.core.explorer import DesignSpaceExplorer

        config = config or ExperimentConfig()
        explorer = DesignSpaceExplorer(
            n_layers=config.n_layers,
            imbalance=config.option("imbalance", 0.65),
            grid_nodes=config.grid_nodes,
            engine=resolve_engine(config),
        )
        result = explorer.explore()
        pareto_only = not config.option("all_points", False)
        return ExperimentResult(
            name=self.name,
            table=result.format(pareto_only=pareto_only),
            data={
                "n_layers": result.n_layers,
                "imbalance": result.imbalance,
                "n_points": len(result.points),
                "n_feasible": len(result.feasible_points),
                "n_pareto": len(result.pareto_frontier),
                "degraded_points": result.degraded_points,
            },
            raw=result,
            notes=degraded_notes(result.degraded_points),
        )


class SensitivityExperiment(Experiment):
    name = "sensitivity"
    description = "Technology-parameter tornado analysis"

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)
        add_layers_argument(parser)
        parser.add_argument(
            "--arrangement", choices=("regular", "voltage-stacked"),
            default="regular",
        )
        parser.add_argument(
            "--metric", choices=("ir_drop", "efficiency"), default="ir_drop"
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["arrangement"] = getattr(args, "arrangement", "regular")
        config.options["metric"] = getattr(args, "metric", "ir_drop")
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.config.stackups import StackConfig
        from repro.core.sensitivity import SensitivityAnalysis

        config = config or ExperimentConfig()
        analysis = SensitivityAnalysis(
            StackConfig(n_layers=config.n_layers, grid_nodes=config.grid_nodes),
            arrangement=config.option("arrangement", "regular"),
            metric=config.option("metric", "ir_drop"),
        )
        rows = analysis.run()
        return ExperimentResult(
            name=self.name,
            table=analysis.format(rows),
            raw=rows,
        )


class NoiseExperiment(Experiment):
    name = "noise"
    description = "Statistical supply-noise profile under sampled workloads"

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)
        add_layers_argument(parser)
        add_seed_argument(parser)
        parser.add_argument(
            "--trials", type=typed_int("--trials", minimum=1), default=60
        )
        parser.add_argument(
            "--converters", type=typed_int("--converters", minimum=1), default=8
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["trials"] = getattr(args, "trials", 60)
        config.options["converters"] = getattr(args, "converters", 8)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.config.stackups import ProcessorSpec
        from repro.core.noise_profile import NoiseProfiler
        from repro.core.scenarios import build_stacked_pdn
        from repro.utils.rng import spawn_seeds
        from repro.workload.sampling import sample_suite

        config = config or ExperimentConfig()
        trials = config.option("trials", 60)
        converters = config.option("converters", 8)
        # Two decoupled streams: one for the workload samples, one for
        # the trial draws (historical defaults 0/1 when unseeded).
        seeds = (
            spawn_seeds(config.seed, 2) if config.seed is not None else [0, 1]
        )
        pdn = build_stacked_pdn(
            config.n_layers,
            converters_per_core=converters,
            grid_nodes=config.grid_nodes,
        )
        profiler = NoiseProfiler(pdn, sample_suite(ProcessorSpec(), rng=seeds[0]))
        profiles = profiler.compare_policies(trials=trials, rng=seeds[1])
        lines = [
            f"V-S PDN, {config.n_layers} layers, {converters} conv/core, "
            f"{trials} sampled operating points per policy"
        ]
        data = {}
        for policy, profile in profiles.items():
            lines.append(
                f"  {policy:>9}: mean {profile.mean:.2%}  P95 "
                f"{profile.percentile(95):.2%}  worst {profile.worst:.2%} of Vdd"
            )
            data[policy] = {
                "mean": profile.mean,
                "p95": profile.percentile(95),
                "worst": profile.worst,
            }
        return ExperimentResult(
            name=self.name,
            table="\n".join(lines),
            data={"policies": data},
            raw=profiles,
        )


class ReportExperiment(Experiment):
    name = "report"
    description = "Run everything; emit a consolidated report"

    @classmethod
    def configure_parser(cls, parser) -> None:
        add_grid_argument(parser)
        parser.add_argument(
            "--output", type=str, default=None,
            help="write to a file instead of stdout",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["output"] = getattr(args, "output", None)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.core.report import generate_report

        config = config or ExperimentConfig()
        text = generate_report(grid_nodes=config.grid_nodes)
        output = config.option("output")
        if output:
            import pathlib

            pathlib.Path(output).write_text(text)
            return ExperimentResult(
                name=self.name, table=f"wrote {output}", raw=text
            )
        return ExperimentResult(name=self.name, table=text, raw=text)
