"""``repro trace``: profile a finished run from its flushed trace.

Loads the ``trace-<fingerprint>.jsonl`` a traced run wrote (see
docs/OBSERVABILITY.md), reassembles the span tree across process
boundaries, and prints the profiling report: a flamegraph-style
self/total-time table, the top-N slowest topology groups, and
retry / escalation-ladder / contract-violation attribution.

A directory holding *several* traces is stitched into one view: a
distributed service query scatters its spans across files — the client
flushes ``trace-<trace_id>.jsonl``, each replica its
``trace-<replica>.jsonl``, fleet workers their own — all sharing one
trace id.  Spans are deduplicated by id (a span adopted over a remote
anchor can be flushed by more than one process) and the client→replica
TCP hops are labelled in the report.  ``--run FINGERPRINT`` still
narrows to a single run's trace.

When the trace lives next to a ``BENCH_*.json`` (same run directory),
the report also cross-checks the span-derived stage totals against the
BENCH ``stage_totals`` — by construction they are the same measurements,
so any drift beyond rounding indicates a broken trace.

``--chrome`` additionally converts the trace to Chrome ``trace_event``
JSON (load it at ``chrome://tracing`` or https://ui.perfetto.dev), and
``--prometheus`` renders the span-derived metrics as a Prometheus
textfile.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro.core.experiments.base import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    typed_int,
)
from repro.errors import TraceDataError

__all__ = [
    "TraceExperiment",
    "find_trace_files",
    "bench_stage_totals",
    "stitch_traces",
    "count_tcp_hops",
]


def find_trace_files(path: Path) -> List[Path]:
    """All trace files reachable from ``path`` (file, run dir, or tree)."""
    if path.is_file():
        return [path]
    if path.is_dir():
        direct = sorted(path.glob("trace-*.jsonl"))
        if direct:
            return direct
        return sorted(path.glob("**/trace-*.jsonl"))
    return []


def stitch_traces(paths: List[Path]):
    """Merge several trace files into one deduplicated span list.

    Returns ``(spans, report)`` where ``report`` is one human line per
    file (span count, duplicates dropped, or why it was skipped).
    First occurrence of a span id wins; torn files are skipped with a
    note rather than failing the stitch — a post-mortem must render
    whatever survived.
    """
    from repro.obs.export import load_trace

    spans, seen, report = [], set(), []
    for path in paths:
        try:
            loaded = load_trace(path)
        except TraceDataError as exc:
            report.append(f"{path.name}: skipped ({exc})")
            continue
        fresh = [span for span in loaded if span.span_id not in seen]
        seen.update(span.span_id for span in fresh)
        spans.extend(fresh)
        duplicates = len(loaded) - len(fresh)
        line = f"{path.name}: {len(fresh)} spans"
        if duplicates:
            line += f" ({duplicates} duplicate span ids dropped)"
        report.append(line)
    return spans, report


def count_tcp_hops(spans) -> int:
    """Client→replica wire crossings in a stitched service trace.

    A hop is a span whose parent is a ``service.client`` span from a
    *different process* — the replica-side ``service.request`` anchored
    under the client's hop span via the request's trace envelope.
    """
    clients = {
        span.span_id: span for span in spans if span.name == "service.client"
    }
    return sum(
        1
        for span in spans
        if span.parent_id in clients
        and span.pid != clients[span.parent_id].pid
    )


def bench_stage_totals(trace_file: Path, run_fingerprint: Optional[str]):
    """Find a sibling BENCH json for this run and return its stage totals.

    Searches the trace file's directory for ``BENCH_*.json`` whose
    ``run_fingerprint`` matches (schema >= 4); falls back to any single
    BENCH file when the fingerprint is absent.  Returns ``None`` when no
    match exists — the comparison is best-effort sugar, not required.
    """
    candidates = sorted(trace_file.parent.glob("BENCH_*.json"))
    unmatched = None
    for candidate in candidates:
        try:
            payload = json.loads(candidate.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        totals = payload.get("totals")
        if not isinstance(totals, dict):
            continue
        stage_totals = {
            stage: float(totals.get(f"{stage}_s", 0.0) or 0.0)
            for stage in ("build", "factorize", "solve", "post", "contracts")
        }
        fingerprint = payload.get("run_fingerprint")
        if run_fingerprint and fingerprint == run_fingerprint:
            return candidate.name, stage_totals
        if unmatched is None:
            unmatched = (candidate.name, stage_totals)
    if run_fingerprint is None:
        return unmatched
    return None


class TraceExperiment(Experiment):
    name = "trace"
    description = "Profile a traced run: span tree, slow groups, attribution"

    @classmethod
    def configure_parser(cls, parser) -> None:
        parser.add_argument(
            "path", type=str,
            help="a trace-<fp>.jsonl file, or a directory containing one "
            "(a --run-dir, or wherever REPRO_TRACE_DIR pointed)",
        )
        parser.add_argument(
            "--run", type=str, default=None, metavar="FINGERPRINT",
            help="select one run when the directory holds several traces",
        )
        parser.add_argument(
            "--top", type=typed_int("--top", minimum=1), default=10,
            metavar="N", help="slowest topology groups to show (default 10)",
        )
        parser.add_argument(
            "--chrome", type=str, default=None, metavar="PATH",
            help="also write a Chrome trace_event JSON to PATH",
        )
        parser.add_argument(
            "--prometheus", type=str, default=None, metavar="PATH",
            help="also write span-derived metrics as a Prometheus textfile",
        )

    @classmethod
    def config_from_args(cls, args) -> ExperimentConfig:
        config = super().config_from_args(args)
        config.options["path"] = args.path
        config.options["run"] = getattr(args, "run", None)
        config.options["top"] = getattr(args, "top", 10)
        config.options["chrome"] = getattr(args, "chrome", None)
        config.options["prometheus"] = getattr(args, "prometheus", None)
        return config

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        from repro.obs.export import (
            load_trace,
            load_trace_header,
            write_chrome_trace,
            write_prometheus,
        )
        from repro.obs.profile import (
            STAGE_SPANS,
            render_profile,
            stage_totals_from_spans,
        )

        config = config or ExperimentConfig()
        path = Path(config.option("path") or ".")
        wanted = config.option("run")
        traces = find_trace_files(path)
        if wanted:
            traces = [t for t in traces if wanted in t.name]
        if not traces:
            raise TraceDataError(
                f"no trace-*.jsonl found under {path} "
                "(run with --trace or REPRO_TRACE=1 first)",
                path=str(path),
            )
        trace_file = traces[0]
        stitch_report: List[str] = []
        if len(traces) > 1:
            # Several traces: a distributed service run (client +
            # replicas + fleet workers), or just many runs in one dir.
            # Stitch them into one deduplicated tree; --run narrows.
            spans, stitch_report = stitch_traces(traces)
            run_fp = None
        else:
            # load_trace raises a typed TraceDataError on torn files;
            # the CLI renders it as a one-line diagnostic, no traceback.
            spans = load_trace(trace_file)
            header = load_trace_header(trace_file) or {}
            run_fp = header.get("run_fingerprint")
        if not spans:
            raise TraceDataError(
                f"trace {trace_file} holds no spans (empty or header-only "
                "file — did the traced run crash before its flush?)",
                path=str(trace_file),
            )

        notes: List[str] = []
        table = render_profile(
            spans, top=config.option("top", 10), run_fingerprint=run_fp
        )
        span_totals = stage_totals_from_spans(spans)

        tcp_hops = count_tcp_hops(spans)
        if stitch_report:
            lines = ["", f"-- stitched {len(traces)} trace files --"]
            lines += [f"  {line}" for line in stitch_report]
            if tcp_hops:
                lines.append(
                    f"  tcp hops: {tcp_hops} "
                    "(service.client -> service.request across processes)"
                )
            table += "\n" + "\n".join(lines)

        bench = bench_stage_totals(trace_file, run_fp)
        comparison = None
        if bench is not None:
            bench_name, bench_totals = bench
            lines = [
                "",
                f"-- stage totals vs {bench_name} --",
                f"{'stage':<12} {'spans_s':>12} {'bench_s':>12} {'delta':>8}",
            ]
            comparison = {}
            for stage in STAGE_SPANS:
                from_spans = span_totals.get(stage, 0.0)
                from_bench = float(bench_totals.get(stage, 0.0) or 0.0)
                scale = max(from_bench, 1e-12)
                delta = abs(from_spans - from_bench) / scale
                comparison[stage] = {
                    "spans_s": from_spans,
                    "bench_s": from_bench,
                    "relative_delta": delta,
                }
                lines.append(
                    f"{stage:<12} {from_spans:>12.6f} {from_bench:>12.6f} "
                    f"{delta:>7.2%}"
                )
            table += "\n" + "\n".join(lines)

        chrome = config.option("chrome")
        if chrome:
            write_chrome_trace(spans, Path(chrome), run_fingerprint=run_fp)
            notes.append(f"wrote Chrome trace {chrome} (open in ui.perfetto.dev)")
        prometheus = config.option("prometheus")
        if prometheus:
            write_prometheus(self._registry_from_spans(spans), Path(prometheus))
            notes.append(f"wrote Prometheus textfile {prometheus}")

        return ExperimentResult(
            name=self.name,
            table=table,
            data={
                "trace": str(trace_file),
                "run_fingerprint": run_fp,
                "n_spans": len(spans),
                "stage_totals": span_totals,
                "bench_comparison": comparison,
                "stitched": [str(t) for t in traces] if stitch_report else None,
                "tcp_hops": tcp_hops,
            },
            raw=spans,
            notes=notes,
        )

    @staticmethod
    def _registry_from_spans(spans):
        """Rebuild a metrics registry from a flushed trace.

        The offline view mirrors what the live run's registry held:
        stage time histograms, escalation-rung counters, and contract
        timing — enough for a scrape-friendly summary of a past run.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stage = registry.histogram("stage", "Stage wall time")
        rungs = registry.counter(
            "escalations_total", "Solver escalation-ladder rungs"
        )
        contracts = registry.histogram("contracts", "Contract-check wall time")
        errors = registry.counter("error_spans_total", "Spans that raised")
        for span in spans:
            if span.name in ("build", "factorize", "solve", "post", "contracts"):
                stage.observe(span.duration_s, stage=span.name)
            if span.name == "rung" and span.status == "ok":
                rungs.inc(
                    int(span.attributes.get("count", 1)),
                    rung=str(span.attributes.get("rung", "?")),
                )
            if span.name == "contracts":
                contracts.observe(span.duration_s)
            if span.status == "error":
                errors.inc()
        return registry
