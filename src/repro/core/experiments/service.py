"""``repro serve`` / ``repro query`` / ``repro cache``: the service CLI.

``serve`` runs the resilient query front-end of
:mod:`repro.service.server` until SIGINT/SIGTERM (clean drain); several
``serve`` processes sharing one ``--cache-dir`` form an HA replica set,
``--workers N``/``--task-timeout`` lease cache misses to local worker
processes forked once per replica, and ``--fleet HOST:PORT`` lets
``repro worker`` processes lease them too.  ``query`` is the matching
one-shot client: it builds a :class:`~repro.runtime.PDNSpec` from
flags, submits it with replica failover (and ``--retries``
shed-retries), and renders the response envelope — including typed
shed/deadline/degraded outcomes — as a one-line table.  ``cache`` inspects and maintains a cache
directory offline (``stats | verify | invalidate``).  See
docs/SERVICE.md for the wire protocol and HA semantics.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    add_grid_argument,
    add_layers_argument,
    typed_float,
    typed_int,
)
from repro.errors import ReproError

__all__ = ["ServeExperiment", "QueryExperiment", "CacheExperiment"]


def _activities_list(flag: str) -> Callable[[str], List[float]]:
    """Comma-separated float-list converter (one-line errors, exit 2)."""

    def convert(text: str) -> List[float]:
        values = []
        for part in text.split(","):
            try:
                values.append(float(part))
            except (TypeError, ValueError):
                raise ReproError(
                    f"{flag} expects comma-separated numbers, got {part!r}"
                ) from None
        if not values:
            raise ReproError(f"{flag} needs at least one value")
        return values

    convert.__name__ = "floats"
    return convert


def _add_deadline_argument(parser, help_text: str) -> None:
    """The shared ``--deadline`` flag: strictly positive, finite.

    Reuses the same typed-converter path as ``--task-timeout``, so
    ``--deadline 0``, negatives and NaN all fail as one-line
    :class:`~repro.errors.ReproError` diagnostics (exit 2) on both
    ``repro serve`` and ``repro query``.
    """
    parser.add_argument(
        "--deadline",
        type=typed_float("--deadline", minimum=0.0, exclusive=True),
        default=None, metavar="SECONDS",
        help=help_text,
    )


class ServeExperiment(Experiment):
    name = "serve"
    description = (
        "Run the resilient exploration service (fingerprint cache, "
        "admission control, circuit breaker)"
    )

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "--bind", type=str, default="127.0.0.1:0", metavar="HOST:PORT",
            help="listen address (default 127.0.0.1:0; port 0 picks a free "
            "port, published in the cache dir's service.json)",
        )
        parser.add_argument(
            "--cache-dir", type=str, default="service-cache", metavar="DIR",
            help="persistent result-cache directory (default service-cache)",
        )
        parser.add_argument(
            "--cache-max-mb",
            type=typed_float("--cache-max-mb", minimum=0.0, exclusive=True),
            default=None, metavar="MB",
            help="LRU size cap for the cache directory (default: unbounded)",
        )
        parser.add_argument(
            "--cache-ttl",
            type=typed_float("--cache-ttl", minimum=0.0, exclusive=True),
            default=None, metavar="SECONDS",
            help="entry freshness window; expired entries serve only as "
            "breaker-open degraded answers (default: never stale)",
        )
        parser.add_argument(
            "--max-queue", type=typed_int("--max-queue", minimum=1),
            default=64, metavar="N",
            help="admission queue bound; a full queue sheds queries with a "
            "typed 429-style response (default 64)",
        )
        _add_deadline_argument(
            parser,
            "default per-query deadline when a request sets none "
            "(default: unbounded)",
        )
        parser.add_argument(
            "--breaker-threshold",
            type=typed_int("--breaker-threshold", minimum=1),
            default=5, metavar="K",
            help="consecutive solve failures that open the circuit breaker "
            "(default 5)",
        )
        parser.add_argument(
            "--breaker-cooldown",
            type=typed_float("--breaker-cooldown", minimum=0.0, exclusive=True),
            default=10.0, metavar="SECONDS",
            help="open-state cooldown before a half-open probe (default 10)",
        )
        parser.add_argument(
            "--coarse-grid",
            type=typed_int("--coarse-grid", minimum=2),
            default=6, metavar="NODES",
            help="grid resolution of breaker-open degraded answers "
            "(default 6)",
        )
        parser.add_argument(
            "--slo-latency",
            type=typed_float("--slo-latency", minimum=0.0, exclusive=True),
            default=None, metavar="SECONDS",
            help="per-query latency objective: slower (or non-200) "
            "answers burn SLO error budget in the metrics endpoint "
            "(default: SLO tracking off)",
        )
        parser.add_argument(
            "--flight-recorder",
            type=typed_int("--flight-recorder", minimum=0),
            default=256, metavar="N",
            help="ring buffer of recent query events, dumped atomically "
            "on any 5xx and at shutdown (default 256; 0 disables)",
        )
        parser.add_argument(
            "--replica-id", type=str, default=None, metavar="NAME",
            help="stable replica name in discovery, metrics and trace "
            "files (default replica-<pid>)",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        # A replica answers queries; it runs no sweep to journal.
        if args.run_dir or args.resume or args.resume_salvage:
            raise ReproError(
                "serve takes no --run-dir, --resume or --resume-salvage"
            )
        # Only leased misses are retried: without workers or a fleet none is.
        leases = (args.workers or 1) > 1 or args.task_timeout or args.fleet
        if (args.max_retries is not None or args.fail_fast) and not leases:
            raise ReproError(
                "serve takes --max-retries or --fail-fast only with "
                "--workers N>1, --task-timeout or --fleet"
            )
        config = ExperimentConfig()
        for key in (
            "bind", "cache_dir", "cache_max_mb", "cache_ttl", "max_queue",
            "deadline", "breaker_threshold", "breaker_cooldown",
            "coarse_grid", "slo_latency", "flight_recorder",
            "replica_id",
        ):
            config.options[key] = getattr(args, key)
        # The shared fan-out flags configure the replica's one fleet.
        for key in ("workers", "task_timeout", "fleet", "lease_timeout",
                    "fleet_wait"):
            if getattr(args, key) is not None:
                config.options[key] = getattr(args, key)
        max_retries = 2 if args.max_retries is None else args.max_retries
        config.options["max_attempts"] = 1 if args.fail_fast else max_retries + 1
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        import asyncio
        import signal

        from repro.service.server import ExplorationService, ServiceConfig

        config = config or ExperimentConfig()
        service_config = ServiceConfig(
            bind=str(config.option("bind", "127.0.0.1:0")),
            cache_dir=str(config.option("cache_dir", "service-cache")),
            cache_max_mb=config.option("cache_max_mb"),
            cache_ttl_s=config.option("cache_ttl"),
            max_queue=int(config.option("max_queue", 64)),
            default_deadline_s=config.option("deadline"),
            breaker_threshold=int(config.option("breaker_threshold", 5)),
            breaker_cooldown_s=float(config.option("breaker_cooldown", 10.0)),
            coarse_grid=int(config.option("coarse_grid", 6)),
            workers=int(config.option("workers", 1)),
            task_timeout_s=config.option("task_timeout"),
            max_attempts=int(config.option("max_attempts", 3)),
            fleet=config.option("fleet"),
            lease_timeout_s=float(config.option("lease_timeout", 60.0)),
            fleet_wait_s=float(config.option("fleet_wait", 10.0)),
            slo_latency_s=config.option("slo_latency"),
            flight_recorder=int(config.option("flight_recorder", 256)),
            replica_id=config.option("replica_id"),
        )
        service = ExplorationService(config=service_config)

        async def _serve() -> None:
            loop = asyncio.get_running_loop()
            address = await service.start()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(
                        sig,
                        lambda: loop.create_task(service.shutdown(drain=True)),
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # platform without loop signal handlers
            fleet_note = (
                f", fleet on {service.fleet_address}"
                if service.fleet_address else ""
            )
            print(
                f"exploration service listening on {address} as "
                f"{service.replica_id} (cache {service_config.cache_dir}, "
                f"epoch {service.epoch}{fleet_note}; "
                "Ctrl-C drains and stops)",
                flush=True,
            )
            await service.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass  # signal handler already drained; belt and braces
        counters = service.counters()
        table = (
            f"service stopped after {counters['uptime_s']:.1f}s: "
            f"{counters['requests'].get('query', 0)} query(ies), "
            f"{counters['cache']['hits']} cache hit(s), "
            f"{counters['admission']['shed']} shed, "
            f"breaker {counters['breaker']['state']}"
        )
        return ExperimentResult(name=self.name, table=table, data=counters)


class QueryExperiment(Experiment):
    name = "query"
    description = "Submit one design-point query to a running service"

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "--connect", type=str, default=None, metavar="HOST:PORT",
            help="service address (default: discover from the cache dir's "
            "service.json)",
        )
        parser.add_argument(
            "--cache-dir", type=str, default="service-cache", metavar="DIR",
            help="server cache directory used for address discovery "
            "(default service-cache)",
        )
        parser.add_argument(
            "--arrangement", type=str, default="regular",
            choices=["regular", "voltage-stacked"],
            help="PDN arrangement to query (default regular)",
        )
        add_layers_argument(parser, default=8)
        add_grid_argument(parser, default=20)
        parser.add_argument(
            "--topology", type=str, default="Few",
            help="TSV topology name (default Few)",
        )
        parser.add_argument(
            "--pad-fraction",
            type=typed_float("--pad-fraction", minimum=0.0, exclusive=True),
            default=0.25, metavar="FRACTION",
            help="power-pad fraction (default 0.25)",
        )
        parser.add_argument(
            "--converters", type=typed_int("--converters", minimum=0),
            default=0, metavar="N",
            help="SC converters per core (voltage-stacked only)",
        )
        parser.add_argument(
            "--vdd-pads", type=typed_int("--vdd-pads", minimum=0),
            default=0, metavar="N",
            help="V-S through-via pad override (0 = by pad fraction)",
        )
        parser.add_argument(
            "--activities", type=_activities_list("--activities"),
            default=None, metavar="A1,A2,...",
            help="per-layer activity factors (comma separated; default: "
            "the balanced workload)",
        )
        _add_deadline_argument(
            parser, "per-query deadline budget (default: the server's)"
        )
        parser.add_argument(
            "--client-timeout",
            type=typed_float("--client-timeout", minimum=0.0, exclusive=True),
            default=120.0, metavar="SECONDS",
            help="socket timeout waiting for the response (default 120)",
        )
        parser.add_argument(
            "--retries", type=typed_int("--retries", minimum=0),
            default=0, metavar="N",
            help="retry typed 429/503 sheds up to N times, honouring the "
            "server's retry_after_s hint and never sleeping past "
            "--deadline (default 0)",
        )
        probe = parser.add_mutually_exclusive_group()
        probe.add_argument(
            "--health", action="store_true",
            help="probe liveness instead of querying",
        )
        probe.add_argument(
            "--ready", action="store_true",
            help="probe readiness instead of querying",
        )
        probe.add_argument(
            "--service-metrics", action="store_true",
            help="dump the service counters instead of querying",
        )
        probe.add_argument(
            "--stop", action="store_true",
            help="ask the service to drain and shut down",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        for key in (
            "connect", "cache_dir", "arrangement", "topology",
            "pad_fraction", "converters", "vdd_pads", "activities",
            "deadline", "client_timeout", "retries", "health", "ready",
            "service_metrics", "stop",
        ):
            config.options[key] = getattr(args, key)
        return config

    # ------------------------------------------------------------------
    def _spec(self, config: ExperimentConfig):
        from repro.runtime.spec import PDNSpec

        try:
            return PDNSpec(
                arrangement=str(config.option("arrangement", "regular")),
                n_layers=config.n_layers,
                topology=str(config.option("topology", "Few")),
                power_pad_fraction=float(config.option("pad_fraction", 0.25)),
                vdd_pads_per_core=int(config.option("vdd_pads", 0)),
                grid_nodes=config.grid_nodes,
                converters_per_core=int(config.option("converters", 0)),
            )
        except ValueError as exc:
            raise ReproError(f"invalid query spec: {exc}") from None

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.service.client import (
            connect_any,
            discover_addresses,
            robust_query,
        )

        config = config or ExperimentConfig()
        timeout_s = float(config.option("client_timeout", 120.0))
        connect = config.option("connect")
        if connect:
            path, addresses = None, [str(connect)]
        else:
            path, addresses = discover_addresses(
                config.option("cache_dir", "service-cache")
            )
        display = (
            addresses[0]
            if len(addresses) == 1
            else f"{len(addresses)} replica(s) {addresses}"
        )
        if (
            config.option("health")
            or config.option("ready")
            or config.option("service_metrics")
            or config.option("stop")
        ):
            with connect_any(addresses, timeout_s=timeout_s, path=path) as client:
                if config.option("health"):
                    response = client.health()
                elif config.option("ready"):
                    response = client.ready()
                elif config.option("service_metrics"):
                    response = client.metrics()
                    response.pop("prometheus", None)  # table stays readable
                else:
                    response = client.shutdown(drain=True)
                display = client.address
        else:
            response = robust_query(
                self._spec(config),
                addresses=addresses,
                activities=config.option("activities"),
                deadline_s=config.option("deadline"),
                retries=int(config.option("retries", 0)),
                client_timeout_s=timeout_s,
                discovery_path=path,
            )
        return self._render(response, display)

    def _render(self, response: dict, address: str) -> ExperimentResult:
        kind = response.get("kind")
        if kind == "error":
            # Typed error envelope -> typed one-line CLI failure (exit 2),
            # keeping shed/deadline/unavailable distinguishable by text.
            raise ReproError(
                f"service at {address} answered {response.get('code')} "
                f"{response.get('status')}: {response.get('error_type')}: "
                f"{response.get('error')}"
            )
        notes: List[str] = []
        if kind == "result":
            result = response.get("result", {})
            flags = []
            if response.get("cached"):
                flags.append("cached")
            if response.get("coalesced"):
                flags.append("coalesced")
            if response.get("degraded"):
                flags.append(f"degraded:{response.get('degraded_mode')}")
                notes.append(
                    "warning: degraded answer "
                    f"({response.get('degraded_mode')}) — the solve backend "
                    "is unhealthy; values are best-effort"
                )
            table = (
                f"query {response.get('fingerprint')} "
                f"[{' '.join(flags) or 'solved'}]: "
                f"max IR drop {result.get('max_ir_drop_v', float('nan')):.6g} V "
                f"({100 * result.get('max_ir_drop_fraction', float('nan')):.3g}% "
                f"of rail), efficiency "
                f"{100 * result.get('efficiency', float('nan')):.4g}%"
            )
        else:
            table = f"{kind}: {json.dumps(response, sort_keys=True)}"
        return ExperimentResult(
            name=self.name, table=table, data=response, notes=notes
        )


class CacheExperiment(Experiment):
    name = "cache"
    description = (
        "Inspect or maintain a service result cache "
        "(stats | verify | invalidate)"
    )

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "action", type=str, choices=("stats", "verify", "invalidate"),
            help="stats: directory summary with per-epoch histogram; "
            "verify: integrity-check every entry, evicting corrupt ones; "
            "invalidate: remove entries by code epoch (--epoch)",
        )
        parser.add_argument(
            "--cache-dir", type=str, default="service-cache", metavar="DIR",
            help="cache directory to operate on (default service-cache)",
        )
        parser.add_argument(
            "--epoch", type=str, default=None, metavar="TOKEN",
            help="for invalidate: the epoch generation to remove, or "
            "'stale' for every entry not at the current code epoch",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["action"] = args.action
        config.options["cache_dir"] = args.cache_dir
        config.options["epoch"] = getattr(args, "epoch", None)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        import pathlib

        from repro.service.cache import ResultCache

        config = config or ExperimentConfig()
        action = str(config.option("action", "stats"))
        directory = pathlib.Path(
            str(config.option("cache_dir", "service-cache"))
        )
        if not directory.is_dir():
            raise ReproError(
                f"no cache directory at {directory}; pass the --cache-dir a "
                "server was started with"
            )
        cache = ResultCache(directory).open()
        if action == "stats":
            data = cache.stats()
            epochs = ", ".join(
                f"{epoch}:{count}"
                for epoch, count in sorted(data["by_epoch"].items())
            )
            table = (
                f"cache {data['directory']}: {data['entries']} entry(ies), "
                f"{data['size_bytes']} bytes, current epoch {data['epoch']} "
                f"(by epoch: {epochs or 'empty'})"
            )
        elif action == "verify":
            data = cache.verify()
            data["corrupt"] = cache.corrupt
            table = (
                f"cache verify: {data['checked']} checked, {data['ok']} ok, "
                f"{data['evicted']} evicted ({cache.corrupt} corrupt), "
                f"current epoch {data['epoch']}"
            )
        else:  # invalidate
            token = config.option("epoch")
            if not token:
                raise ReproError(
                    "cache invalidate needs --epoch TOKEN (a generation to "
                    "remove) or --epoch stale (everything not at the "
                    "current code epoch)"
                )
            target = None if str(token) == "stale" else str(token)
            removed = cache.invalidate(epoch=target)
            data = {
                "removed": removed,
                "epoch": target or "stale",
                "current_epoch": cache.epoch,
            }
            table = (
                f"cache invalidate: removed {removed} entry(ies) "
                f"({'not at current epoch ' + cache.epoch if target is None else 'epoch ' + target})"
            )
        return ExperimentResult(name=self.name, table=table, data=data)
