"""``repro worker``: join a distributed sweep fleet.

The worker dials a coordinator started by any sweep subcommand running
with ``--fleet HOST:PORT``, leases content-fingerprinted topology tasks,
solves them with the same worker loop the supervisor's local workers
run, and streams results (plus trace spans) back.  It exits cleanly
when the coordinator reports the run complete; see docs/DISTRIBUTED.md
for the protocol and failure semantics.
"""

from __future__ import annotations

from typing import Optional

from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    typed_float,
)

__all__ = ["WorkerExperiment"]


class WorkerExperiment(Experiment):
    name = "worker"
    description = "Join a sweep fleet: lease topology tasks from a coordinator"

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "connect", type=str, metavar="HOST:PORT",
            help="coordinator address (the sweep's --fleet HOST:PORT; with "
            "port 0 the bound port is in the run dir's fleet.json)",
        )
        parser.add_argument(
            "--worker-id", type=str, default=None, metavar="ID",
            help="stable worker identity (default: hostname-pid); reuse it "
            "to keep accounting across reconnects",
        )
        parser.add_argument(
            "--patience",
            type=typed_float("--patience", minimum=0.0, exclusive=True),
            default=30.0, metavar="SECONDS",
            help="how long to keep redialing an unreachable coordinator "
            "before giving up (default 30)",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["connect"] = args.connect
        config.options["worker_id"] = getattr(args, "worker_id", None)
        config.options["patience"] = getattr(args, "patience", 30.0)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.runtime.fleet import run_worker

        config = config or ExperimentConfig()
        summary = run_worker(
            str(config.option("connect") or ""),
            worker_id=config.option("worker_id"),
            patience_s=float(config.option("patience", 30.0)),
        )
        table = (
            f"worker {summary['worker']}: {summary['tasks_done']} task(s) "
            f"done, {summary['failures']} failure(s), "
            f"{summary['reconnects']} reconnect(s) "
            f"(run {summary.get('run_fingerprint') or 'unknown'})"
        )
        return ExperimentResult(name=self.name, table=table, data=summary)
