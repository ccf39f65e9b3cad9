"""Service observability e2e: tracing, typed telemetry, dash, recorder.

Boots real services (background thread, ephemeral port) and exercises
the full wire path: trace-context propagation over the query envelope,
the typed metrics surface (histograms + SLO counters, wire form,
fleet-wide merge), the ``repro dash`` aggregation helpers, the flight
recorder's post-mortem dumps, and multi-file trace stitching.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import flush_spans, load_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, get_tracer
from repro.runtime import PDNSpec
from repro.service import ServiceClient, ServiceConfig, serve_in_background
from repro.service.dash import (
    ReplicaScrape,
    fleet_summary,
    merge_scrapes,
    render_dashboard,
    scrape_fleet,
)

from tests.conftest import TEST_GRID


def _spec(n_layers: int = 2, grid: int = TEST_GRID) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=grid)


def _config(tmp_path, **overrides) -> ServiceConfig:
    settings = dict(
        bind="127.0.0.1:0",
        cache_dir=str(tmp_path / "svc-cache"),
        bench_name=None,
        # Keep the periodic flusher out of the way: tests drain the
        # process-global tracer themselves (client and "server" share
        # one process here, unlike production).
        trace_flush_s=3600.0,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


@pytest.fixture
def serve(tmp_path):
    handles = []

    def _serve(solve_fn=None, **overrides):
        handle = serve_in_background(
            config=_config(tmp_path, **overrides), solve_fn=solve_fn
        )
        handles.append(handle)
        return handle

    yield _serve
    for handle in handles:
        handle.stop(drain=False)


@pytest.fixture
def tracer():
    t = get_tracer()
    t.drain()
    t.enable()
    yield t
    t.drain()
    t.disable()
    t.set_trace_id(None)


def _stub_solver(spec, activities, deadline):
    return {"efficiency": 0.9, "max_ir_drop_v": 0.01, "grid": spec.grid_nodes}


def _failing_solver(spec, activities, deadline):
    raise RuntimeError("injected backend failure")


# ----------------------------------------------------------------------
# trace-context propagation over the wire
# ----------------------------------------------------------------------

class TestTracePropagation:
    def test_query_yields_one_connected_tree(self, serve, tracer):
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            response = client.query(_spec())
        assert response["status"] == "ok"
        spans = tracer.drain()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, span)
        hop = by_name["service.client"]
        request = by_name["service.request"]
        # The replica anchored its request span under the client's hop
        # span, sharing the client-minted trace id: one tree, two sides
        # of the TCP connection.
        assert request.parent_id == hop.span_id
        assert hop.trace_id is not None
        assert request.trace_id == hop.trace_id
        assert hop.attributes["transport"] == "tcp"
        # The solve path hangs off the request: cache probe, queue
        # wait, then the backend solve, all under the same trace.
        ids = {s.span_id for s in spans}
        for name in ("service.cache_probe", "service.queued", "service.solve"):
            span = by_name[name]
            assert span.trace_id == hop.trace_id, name
            assert span.parent_id in ids, name

    def test_tracing_off_sends_no_envelope_and_buffers_nothing(self, serve):
        tracer = get_tracer()
        assert not tracer.enabled
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            response = client.query(_spec())
        assert response["status"] == "ok"
        assert len(tracer) == 0

    def test_traced_and_untraced_answers_identical(self, serve, tracer):
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            traced = client.query(_spec())
            tracer.drain()
            tracer.disable()
            try:
                untraced = client.query(_spec())
            finally:
                tracer.enable()
        assert traced["result"] == untraced["result"]

    def test_shutdown_flushes_replica_trace(self, serve, tracer, monkeypatch):
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
        handle.stop(drain=True)
        import pathlib

        cache_dir = handle.service.config.cache_dir
        path = (
            pathlib.Path(cache_dir)
            / f"trace-{handle.service.replica_id}.jsonl"
        )
        assert path.exists()
        spans = load_trace(path)
        assert any(s.name == "service.request" for s in spans)


# ----------------------------------------------------------------------
# typed telemetry: histograms, SLO, wire form
# ----------------------------------------------------------------------

class TestServiceTelemetry:
    def test_metrics_series_round_trips_histograms(self, serve):
        handle = serve(solve_fn=_stub_solver, slo_latency_s=30.0)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
            client.query(_spec())
            metrics = client.metrics()
        assert "service_query_latency_seconds_bucket" in metrics["prometheus"]
        registry = MetricsRegistry.from_wire(metrics["series"])
        latency = registry.histogram("service_query_latency")
        assert latency.total_count() == 2
        outcomes = latency.count_by_label("outcome")
        assert outcomes.get("miss") == 1 and outcomes.get("hit") == 1
        stage = registry.histogram("service_stage_latency")
        assert stage.count_by_label("stage").get("cache", 0) >= 2

    def test_latency_and_slo_in_counters_view(self, serve):
        handle = serve(solve_fn=_stub_solver, slo_latency_s=30.0)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
            counters = client.metrics()["counters"]
        latency = counters["latency"]
        assert latency["count"] == 1
        assert latency["by_outcome"] == {"miss": 1}
        assert latency["p95_s"] is not None
        slo = counters["slo"]
        assert slo["objective_s"] == 30.0
        assert slo["ok"] == 1 and slo["breached"] == 0
        assert slo["budget_burn"] == 0.0

    def test_latency_histograms_sum_their_spans(self, serve, tracer):
        """A span is its stage's one clock: each latency histogram sums
        exactly the durations of the spans that time it."""
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            assert not client.query(_spec())["cached"]  # a miss
            assert client.query(_spec())["cached"]  # a first-sight hit
        spans = tracer.drain()

        def span_sum(name):
            durations = [s.duration_s for s in spans if s.name == name]
            assert durations, name
            return sum(durations)

        stage = handle.service.metrics.get("service_stage_latency")
        query = handle.service.metrics.get("service_query_latency")
        assert stage.sum(stage="solve") == span_sum("service.solve")
        assert stage.sum(stage="cache") == span_sum("service.cache_probe")
        assert query.total_sum() == span_sum("service.request")

    def test_flights_claims_counter_exported(self, serve):
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
            text = client.metrics()["prometheus"]
        assert 'repro_service_replica_total{event="claims"} 1' in text


# ----------------------------------------------------------------------
# fleet-wide aggregation (repro dash)
# ----------------------------------------------------------------------

class TestDashAggregation:
    def test_two_replicas_merge_to_fleet_totals(self, serve, tmp_path):
        first = serve(solve_fn=_stub_solver, replica_id="dash-a")
        second = serve(solve_fn=_stub_solver, replica_id="dash-b")
        with ServiceClient(first.address) as client:
            client.query(_spec())
            client.query(_spec())
        with ServiceClient(second.address) as client:
            client.query(_spec(n_layers=4))
        cache_dir = tmp_path / "svc-cache"
        scrapes = scrape_fleet(cache_dir)
        assert len(scrapes) == 2 and all(s.ok for s in scrapes)
        merged = merge_scrapes(scrapes)
        summary = fleet_summary(merged)
        # Fleet totals are the exact per-replica sums.
        per_replica = sum(
            s.counters["requests"].get("query", 0) for s in scrapes
        )
        assert summary["queries"] == per_replica == 3
        assert summary["latency_count"] == 3
        assert summary["outcomes"] == {"miss": 2, "hit": 1}
        table = render_dashboard(scrapes, merged)
        assert "fleet: 2/2 replicas" in table
        assert "queries=3" in table
        for scrape in scrapes:
            assert scrape.replica_id in table

    def test_dead_replica_is_a_row_not_an_error(self, tmp_path):
        directory = tmp_path / "dead"
        directory.mkdir()
        (directory / "service.json").write_text(
            json.dumps(
                {"replicas": [{"id": "r1", "address": "127.0.0.1:1"}]}
            )
        )
        scrapes = scrape_fleet(directory, timeout_s=0.5)
        assert len(scrapes) == 1 and not scrapes[0].ok
        assert scrapes[0].error
        table = render_dashboard(scrapes, merge_scrapes(scrapes))
        assert "(unreachable)" in table
        assert "fleet: 0/1 replicas" in table


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def _dump_path(self, handle):
        import pathlib

        service = handle.service
        return (
            pathlib.Path(service.config.cache_dir)
            / f"flight-recorder-{service.replica_id}.json"
        )

    def test_dumps_on_shutdown(self, serve):
        handle = serve(solve_fn=_stub_solver)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
        handle.stop(drain=True)
        payload = json.loads(self._dump_path(handle).read_text())
        assert payload["reason"] == "shutdown"
        assert payload["replica"] == handle.service.replica_id
        (event,) = payload["events"]
        assert event["outcome"] == "miss" and event["code"] == 200

    def test_dumps_immediately_on_server_error(self, serve):
        handle = serve(solve_fn=_failing_solver)
        with ServiceClient(handle.address) as client:
            response = client.query(_spec())
        assert response["code"] == 500
        payload = json.loads(self._dump_path(handle).read_text())
        assert payload["reason"] == "status-500"
        assert payload["events"][-1]["outcome"] == "error"

    def test_recorder_disabled_writes_nothing(self, serve):
        handle = serve(solve_fn=_stub_solver, flight_recorder=0)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
        handle.stop(drain=True)
        assert not self._dump_path(handle).exists()


# ----------------------------------------------------------------------
# multi-file trace stitching (repro trace)
# ----------------------------------------------------------------------

class TestStitching:
    def _span(self, name, span_id, parent=None, pid=1, trace="t1"):
        return Span(
            name=name,
            span_id=span_id,
            parent_id=parent,
            trace_id=trace,
            start_s=0.0,
            duration_s=0.001,
            pid=pid,
            tid=1,
        )

    def test_stitch_dedupes_and_counts_tcp_hops(self, tmp_path):
        from repro.core.experiments.traceview import (
            count_tcp_hops,
            stitch_traces,
        )

        client_spans = [
            self._span("experiment", "e1", pid=1),
            self._span("service.client", "c1", parent="e1", pid=1),
        ]
        # The replica flushed its own spans plus an adopted duplicate
        # of the client hop (remote-anchor adoption can double-write).
        replica_spans = [
            self._span("service.client", "c1", parent="e1", pid=1),
            self._span("service.request", "r1", parent="c1", pid=2),
            self._span("service.solve", "s1", parent="r1", pid=2),
        ]
        a = flush_spans(client_spans, "clientfp", trace_dir=tmp_path)
        b = flush_spans(replica_spans, "replicafp", trace_dir=tmp_path)
        spans, report = stitch_traces([a, b])
        assert len(spans) == 4  # c1 deduplicated
        assert len({s.span_id for s in spans}) == 4
        assert any("duplicate" in line for line in report)
        # One wire crossing: r1 (pid 2) under the client hop (pid 1).
        assert count_tcp_hops(spans) == 1

    def test_trace_experiment_stitches_directory(self, tmp_path):
        from repro.core.experiments.base import ExperimentConfig
        from repro.core.experiments.traceview import TraceExperiment

        flush_spans(
            [self._span("service.client", "c1", pid=1)],
            "clientfp",
            trace_dir=tmp_path,
        )
        flush_spans(
            [
                self._span("service.request", "r1", parent="c1", pid=2),
                self._span("solve", "s1", parent="r1", pid=2),
            ],
            "replicafp",
            trace_dir=tmp_path,
        )
        config = ExperimentConfig()
        config.options["path"] = str(tmp_path)
        chrome = tmp_path / "chrome.json"
        config.options["chrome"] = str(chrome)
        result = TraceExperiment().run(config)
        assert result.data["n_spans"] == 3
        assert result.data["tcp_hops"] == 1
        assert len(result.data["stitched"]) == 2
        assert "stitched 2 trace files" in result.table
        assert "tcp hops: 1" in result.table
        # --chrome covers stitched service traces too.
        events = json.loads(chrome.read_text())["traceEvents"]
        assert len(events) >= 3
