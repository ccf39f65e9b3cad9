"""``repro dash``: one live view over every replica in the fleet.

Scrapes each replica named by the shared cache directory's
``service.json`` (the same discovery file ``repro query`` fails over
with), folds the per-replica metric registries into one fleet-wide
registry (:mod:`repro.service.dash`), and renders a single table:
a row per replica plus merged totals, outcome counts, and latency
quantiles computed from the *combined* histogram buckets.

One-shot by default; ``--watch SECONDS`` re-scrapes on an interval
until interrupted.  ``--out`` additionally writes the merged registry
as a Prometheus textfile, so one node_exporter textfile collector can
publish fleet-wide series without per-replica scrape configs.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    typed_float,
)

__all__ = ["DashExperiment"]


class DashExperiment(Experiment):
    name = "dash"
    description = "Fleet-wide service dashboard: merged replica telemetry"

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "--cache-dir", type=str, default="service-cache", metavar="DIR",
            help="cache directory whose service.json names the replicas "
            "(default service-cache)",
        )
        parser.add_argument(
            "--watch", type=typed_float("--watch", minimum=0.1),
            default=None, metavar="SECONDS",
            help="re-scrape and re-render every SECONDS until interrupted",
        )
        parser.add_argument(
            "--out", type=str, default=None, metavar="PATH",
            help="also write the merged fleet registry as a Prometheus "
            "textfile to PATH (refreshed each watch tick)",
        )
        parser.add_argument(
            "--timeout", type=typed_float("--timeout", minimum=0.1),
            default=5.0, metavar="SECONDS",
            help="per-replica scrape timeout (default 5)",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        for key in ("cache_dir", "watch", "out", "timeout"):
            config.options[key] = getattr(args, key, None)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.obs.export import write_prometheus
        from repro.service.dash import (
            fleet_summary,
            merge_scrapes,
            render_dashboard,
            scrape_fleet,
        )

        config = config or ExperimentConfig()
        cache_dir = str(config.option("cache_dir", "service-cache"))
        timeout_s = float(config.option("timeout", 5.0) or 5.0)
        watch = config.option("watch")
        out = config.option("out")

        notes = []
        ticks = 0
        while True:
            scrapes = scrape_fleet(cache_dir, timeout_s=timeout_s)
            merged = merge_scrapes(scrapes)
            table = render_dashboard(scrapes, merged)
            if out:
                write_prometheus(merged, out)
            ticks += 1
            if not watch:
                break
            # Watch mode renders every tick itself (the final table is
            # still returned for the CLI's normal printing on exit).
            print(table, flush=True)
            print(f"-- refreshing every {watch}s (Ctrl-C to stop) --\n")
            try:
                time.sleep(float(watch))
            except KeyboardInterrupt:
                notes.append(f"watch stopped after {ticks} scrapes")
                break

        if out:
            notes.append(f"wrote merged Prometheus textfile {out}")
        unreachable = [s.address for s in scrapes if not s.ok]
        if unreachable:
            notes.append(
                "unreachable replicas: " + ", ".join(unreachable)
            )
        summary = fleet_summary(merged)
        return ExperimentResult(
            name=self.name,
            table=table,
            data={
                "replicas": [
                    {
                        "address": s.address,
                        "ok": s.ok,
                        "error": s.error,
                        "replica_id": s.replica_id,
                        "counters": s.counters,
                    }
                    for s in scrapes
                ],
                "fleet": json.loads(json.dumps(summary)),
                "scrapes": ticks,
            },
            raw=merged,
            notes=notes,
        )
