"""The unified Experiment protocol behind every paper reproduction.

Each figure/table driver is an :class:`Experiment`: it has a CLI
``name``, a one-line ``description``, declares its own command-line
arguments (:meth:`Experiment.configure_parser`), and turns an
:class:`ExperimentConfig` into an :class:`ExperimentResult` that renders
to text (:meth:`ExperimentResult.to_table`) or machine-readable JSON
(:meth:`ExperimentResult.to_json`).  Registering a subclass with
:func:`register` makes it show up in ``python -m repro`` automatically —
the CLI is generated from this registry, not hand-written per figure.

The per-figure ``compute_fig*`` functions are the engine-backed
implementations the Experiment classes run; the pre-registry
``run_fig*`` shims have been removed — use ``repro <subcommand>``.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "FigurePlan",
    "compute_plans",
    "register",
    "get_experiment",
    "all_experiments",
    "typed_int",
    "typed_float",
    "add_grid_argument",
    "add_layers_argument",
    "add_seed_argument",
    "add_supervision_arguments",
    "add_observability_arguments",
    "apply_common_args",
    "configure_observability",
    "supervision_from_args",
    "resolve_engine",
    "outcome_degraded",
    "degraded_notes",
]


@dataclass
class ExperimentConfig:
    """Common knobs every experiment understands, plus free-form options.

    ``options`` carries experiment-specific settings (CSV paths, failure
    fractions, sample counts, ...) so the dataclass does not grow a
    field per figure.
    """

    grid_nodes: int = 20
    n_layers: int = 8
    seed: Optional[int] = None
    #: Process fan-out (``--workers``) is a supervision setting: it
    #: lives in ``options["supervision"]``, a ``SupervisorConfig``.
    options: Dict[str, Any] = field(default_factory=dict)

    def option(self, name: str, default: Any = None) -> Any:
        return self.options.get(name, default)


@dataclass
class ExperimentResult:
    """What an experiment produced, in renderable form.

    ``table`` is the human-readable text (exactly what the CLI prints),
    ``data`` the JSON-serialisable payload, ``raw`` the underlying
    result object for programmatic use, and ``notes`` extra lines the
    CLI prints after the table (e.g. "wrote fig6.csv").
    """

    name: str
    table: str
    data: Dict[str, Any] = field(default_factory=dict)
    raw: Any = None
    notes: List[str] = field(default_factory=list)

    def to_table(self) -> str:
        return self.table

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.name, **self.data}, indent=2, sort_keys=True
        )


@dataclass(frozen=True)
class FigurePlan:
    """A figure's engine runs as data, plus the step that assembles them.

    Each of ``runs`` is a ``(points, extract)`` pair, one
    ``engine.run(points, extract=extract)`` when run whole; ``assemble``
    turns their values (one list per run, in run order) into the
    figure's result.  :func:`compute_plans` runs plans.
    """

    runs: Tuple[Tuple[Sequence[Any], Callable[[Any], Any]], ...]
    assemble: Callable[[List[List[Any]]], Any]


def compute_plans(plans: Sequence[FigurePlan], engine) -> List[Any]:
    """Run ``plans`` on ``engine``; return each plan's assembled result.

    Topology-major on an engine whose runs stay in process (its
    ``in_process`` is true: a :class:`~repro.runtime.SweepEngine`, or a
    :class:`~repro.runtime.RunSupervisor` with one worker, no fleet and
    no task timeout), and on any engine when a topology is read by more
    than one run of the set: topologies go in first-appearance order;
    every run that reads one gets its points on it as one
    ``engine.run``, in plan and run order; then
    ``engine.clear_cache([spec])`` drops it (even if it was cached
    before the call), so peak memory holds one topology's factor.  An
    engine that fans out, with runs that share no topology, gets each
    run whole to spread.  A run's points on one topology are the batch
    the whole run solves there, so both schedules give the same values
    bit for bit.
    """
    runs = [run for plan in plans for run in plan.runs]
    # Per run: spec -> indices of the run's points on it, in order.
    groups: List[Dict[Any, List[int]]] = [{} for _ in runs]
    for (points, _), group in zip(runs, groups):
        for i, point in enumerate(points):
            group.setdefault(point.spec, []).append(i)
    readers = Counter(spec for group in groups for spec in group)
    if getattr(engine, "in_process", False) or max(readers.values(), default=0) > 1:
        values = [[None] * len(points) for points, _ in runs]
        for spec in readers:
            for (points, extract), group, run_values in zip(runs, groups, values):
                if spec in group:
                    batch = [points[i] for i in group[spec]]
                    result = engine.run(batch, extract=extract)
                    for i, value in zip(group[spec], result.values):
                        run_values[i] = value
            engine.clear_cache([spec])
    else:
        values = [engine.run(points, extract=extract).values for points, extract in runs]
    per_run = iter(values)
    return [plan.assemble([next(per_run) for _ in plan.runs]) for plan in plans]


class Experiment(ABC):
    """One reproducible experiment of the paper's evaluation."""

    #: CLI subcommand name (unique within the registry).
    name: str = ""
    #: One-line summary shown in ``python -m repro --help``.
    description: str = ""

    def describe(self) -> str:
        return self.description

    # ------------------------------------------------------------------
    @classmethod
    def configure_parser(cls, parser) -> None:
        """Declare this experiment's CLI arguments (default: none)."""

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        """Map a parsed argparse namespace onto an ExperimentConfig."""
        config = ExperimentConfig(
            grid_nodes=getattr(args, "grid", 20),
            n_layers=getattr(args, "layers", 8),
            seed=getattr(args, "seed", None),
        )
        apply_common_args(config, args)
        return config

    # ------------------------------------------------------------------
    @abstractmethod
    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        """Execute the experiment and return its renderable result."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding an Experiment to the CLI registry."""
    if not issubclass(cls, Experiment):
        raise TypeError(f"{cls!r} is not an Experiment subclass")
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate experiment name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_experiment(name: str) -> type:
    """Look an Experiment class up by its CLI name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> Dict[str, type]:
    """All registered experiments, in registration order."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Typed argparse converters
# ----------------------------------------------------------------------
# argparse swallows ValueError/TypeError/ArgumentTypeError into its own
# "invalid value" wall of usage text.  These converters raise ReproError
# (a RuntimeError) instead, which propagates out of ``parse_args`` so the
# CLI can print a single-line diagnostic and exit 2 — no traceback.

def typed_int(
    flag: str, minimum: Optional[int] = None
) -> Callable[[str], int]:
    """An int converter for ``flag`` raising one-line ReproErrors."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except (TypeError, ValueError):
            raise ReproError(
                f"{flag} expects an integer, got {text!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise ReproError(f"{flag} must be >= {minimum}, got {value}")
        return value

    convert.__name__ = "int"  # keeps argparse metavar/help readable
    return convert


def typed_float(
    flag: str,
    minimum: Optional[float] = None,
    exclusive: bool = False,
) -> Callable[[str], float]:
    """A finite-float converter for ``flag`` raising one-line ReproErrors."""

    def convert(text: str) -> float:
        try:
            value = float(text)
        except (TypeError, ValueError):
            raise ReproError(
                f"{flag} expects a number, got {text!r}"
            ) from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ReproError(f"{flag} must be finite, got {text!r}")
        if minimum is not None:
            if exclusive and value <= minimum:
                raise ReproError(f"{flag} must be > {minimum}, got {value}")
            if not exclusive and value < minimum:
                raise ReproError(f"{flag} must be >= {minimum}, got {value}")
        return value

    convert.__name__ = "float"
    return convert


# Shared argparse helpers so every experiment words its flags the same.
def add_grid_argument(parser, default: int = 20) -> None:
    parser.add_argument(
        "--grid", type=typed_int("--grid", minimum=2), default=default,
        help=f"model-grid nodes per die side (default {default})",
    )


def add_layers_argument(parser, default: int = 8, help_text: str = "stacked layer count") -> None:
    parser.add_argument(
        "--layers", type=typed_int("--layers", minimum=1), default=default,
        help=help_text,
    )


def add_seed_argument(parser) -> None:
    parser.add_argument(
        "--seed", type=typed_int("--seed"), default=None,
        help="RNG seed (default: the repo-wide deterministic seed)",
    )


def add_supervision_arguments(parser) -> None:
    """The run-supervision flag group shared by every subcommand."""
    group = parser.add_argument_group(
        "run supervision",
        "checkpoint/resume, retry and quarantine for long sweeps "
        "(see docs/RUNTIME.md)",
    )
    group.add_argument(
        "--run-dir", type=str, default=None, metavar="DIR",
        help="journal completed work into DIR (enables crash-safe resume)",
    )
    group.add_argument(
        "--resume", type=str, default=None, metavar="RUN_DIR",
        help="resume an interrupted run from its journal directory",
    )
    group.add_argument(
        "--resume-salvage", action="store_true",
        help="with --resume: truncate the journal at its first corrupted "
        "record (logged) instead of refusing to resume",
    )
    group.add_argument(
        "--max-retries", type=typed_int("--max-retries", minimum=0),
        default=None, metavar="N",
        help="retries per topology task before quarantine (default 2)",
    )
    group.add_argument(
        "--task-timeout",
        type=typed_float("--task-timeout", minimum=0.0, exclusive=True),
        default=None, metavar="SECONDS",
        help="per-task deadline; hung workers are killed and retried",
    )
    group.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first task failure instead of retrying",
    )
    group.add_argument(
        "--workers", type=typed_int("--workers", minimum=1), default=None,
        metavar="N",
        help="spread each run's topologies over N supervised worker "
        "processes (default 1; a one-topology run stays in-process)",
    )
    group.add_argument(
        "--fleet", type=str, default=None, metavar="HOST:PORT",
        help="lease tasks to 'repro worker' processes via a coordinator "
        "bound here (port 0 picks one; see docs/DISTRIBUTED.md); with no "
        "workers attached the run degrades to in-process execution",
    )
    group.add_argument(
        "--lease-timeout",
        type=typed_float("--lease-timeout", minimum=0.0, exclusive=True),
        default=None, metavar="SECONDS",
        help="per-lease deadline before a fleet task is reassigned "
        "(default 60)",
    )
    group.add_argument(
        "--fleet-wait",
        type=typed_float("--fleet-wait", minimum=0.0),
        default=None, metavar="SECONDS",
        help="grace window to wait for fleet workers before degrading to "
        "in-process execution (default 10)",
    )


def add_solver_arguments(parser) -> None:
    """The solver-backend flag group shared by every subcommand."""
    group = parser.add_argument_group(
        "solver backend",
        "linear-solver backend selection (see docs/SOLVERS.md)",
    )
    group.add_argument(
        "--solver", type=str, default=None, metavar="BACKEND",
        help="solver backend: lu (default), cholesky, or iterative "
        "(also via REPRO_SOLVER; unknown names are a one-line error)",
    )


def configure_solver(args) -> None:
    """Apply --solver as the process-default backend (validated).

    An unknown name raises :class:`repro.errors.SolverBackendError`,
    which the CLI reports as a one-line message — never a traceback.
    """
    name = getattr(args, "solver", None)
    if name is not None:
        from repro.grid.backends import set_default_backend

        set_default_backend(name)


def add_observability_arguments(parser) -> None:
    """The tracing/logging flag group shared by every subcommand."""
    group = parser.add_argument_group(
        "observability",
        "hierarchical tracing and structured logging "
        "(see docs/OBSERVABILITY.md)",
    )
    group.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="DIR",
        help="record hierarchical spans; flush trace-<fingerprint>.jsonl "
        "to DIR (default: --run-dir, REPRO_TRACE_DIR, or the cwd)",
    )
    group.add_argument(
        "--log-level", type=str, default=None, metavar="LEVEL",
        choices=["debug", "info", "warning", "error"],
        help="structured JSON log threshold (also via REPRO_LOG)",
    )


def configure_observability(args) -> None:
    """Apply --trace / --log-level (idempotent, cheap when absent)."""
    level = getattr(args, "log_level", None)
    if level is not None:
        from repro.obs.logs import configure_logging

        configure_logging(level)
    trace = getattr(args, "trace", None)
    if trace is not None:
        from repro.obs.trace import configure

        trace_dir = trace or getattr(args, "run_dir", None) or getattr(
            args, "resume", None
        )
        configure(enabled=True, trace_dir=trace_dir or None)


def supervision_from_args(args) -> Optional[Any]:
    """Build a SupervisorConfig when any supervision flag was used."""
    resume = getattr(args, "resume", None)
    run_dir = getattr(args, "run_dir", None) or resume
    max_retries = getattr(args, "max_retries", None)
    task_timeout = getattr(args, "task_timeout", None)
    fail_fast = bool(getattr(args, "fail_fast", False))
    fleet = getattr(args, "fleet", None)
    lease_timeout = getattr(args, "lease_timeout", None)
    fleet_wait = getattr(args, "fleet_wait", None)
    workers = getattr(args, "workers", None)
    if (
        run_dir is None
        and max_retries is None
        and task_timeout is None
        and not fail_fast
        and fleet is None
        and workers is None
    ):
        return None
    from repro.runtime import SupervisorConfig

    config = SupervisorConfig(
        max_retries=2 if max_retries is None else max_retries,
        task_timeout=task_timeout,
        fail_fast=fail_fast,
        run_dir=run_dir,
        resume=resume is not None,
        salvage=bool(getattr(args, "resume_salvage", False)),
        fleet=fleet,
        workers=1 if workers is None else workers,
        verbose=True,
    )
    if lease_timeout is not None:
        config.lease_timeout_s = lease_timeout
    if fleet_wait is not None:
        config.fleet_wait_s = fleet_wait
    return config


def apply_common_args(config: ExperimentConfig, args) -> ExperimentConfig:
    """Fold the shared supervision flags into a config."""
    supervision = supervision_from_args(args)
    if supervision is not None:
        config.options["supervision"] = supervision
    return config


def outcome_degraded(outcome) -> bool:
    """True when a sweep outcome's result is flagged degraded.

    A degraded result came from a fallback/pruned solve or carries
    recorded physics-contract violations (see docs/CONTRACTS.md); its
    numbers are best-effort, not converged ground truth.  Extractors
    call this so the flag rides along with the extracted value even
    when extraction happens in a worker process.
    """
    result = getattr(outcome, "result", None)
    return bool(result is not None and getattr(result, "degraded", False))


def degraded_notes(count: int) -> List[str]:
    """The CLI warning lines for ``count`` degraded sweep points."""
    if not count:
        return []
    return [
        f"warning: {count} degraded/unconverged point(s) — values there are "
        "best-effort, not converged ground truth (see docs/CONTRACTS.md)"
    ]


def resolve_engine(config: ExperimentConfig):
    """The engine an experiment should run on, honouring supervision.

    Precedence: an explicit ``options["engine"]`` wins (wrapped in a
    supervisor when ``options["supervision"]`` is also set); otherwise a
    fresh engine is built — supervised when requested, plain otherwise.
    """
    from repro.runtime import RunSupervisor, SweepEngine

    engine = config.option("engine")
    supervision = config.option("supervision")
    if isinstance(engine, RunSupervisor):
        return engine
    if supervision is not None:
        return RunSupervisor(engine=engine or SweepEngine(), config=supervision)
    return engine or SweepEngine()
