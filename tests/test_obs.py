"""Unit tests for the repro.obs tracing/metrics/logging layer."""

import json
import logging
import time

import pytest

from repro.obs.export import (
    chrome_trace_events,
    flush_spans,
    load_trace,
    load_trace_header,
    trace_path,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.logs import JsonLineFormatter, configure_logging, get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    aggregate_by_name,
    attribution,
    build_tree,
    render_profile,
    slowest_groups,
    stage_totals_from_spans,
)
from repro.obs.trace import (
    Span,
    activate_worker_context,
    get_tracer,
)


@pytest.fixture
def tracer():
    """The global tracer, enabled and guaranteed clean afterwards."""
    t = get_tracer()
    t.drain()
    t.enable()
    yield t
    t.drain()
    t.disable()
    t.set_trace_id(None)


class TestTracer:
    def test_disabled_span_times_its_block_and_records_nothing(self):
        t = get_tracer()
        assert not t.enabled
        with t.span("anything") as s:
            s.set(ignored=1)
            time.sleep(0.005)
        assert s.duration_s >= 0.005  # the one clock, traced or not
        assert s.span_id is None
        assert len(t) == 0
        assert t.record("x", 1.0) is None
        assert t.worker_context() is None

    def test_nesting_and_parent_ids(self, tracer):
        with tracer.span("outer"):
            outer_id = tracer.current_span_id()
            with tracer.span("inner"):
                assert tracer.current_span_id() != outer_id
        spans = tracer.drain()
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].duration_s <= by_name["outer"].duration_s

    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.drain()
        assert span.status == "error"
        assert span.attributes["error"] == "ValueError"

    def test_record_preserves_caller_duration(self, tracer):
        span = tracer.record("contracts", 0.125, rung="lu")
        assert span.duration_s == 0.125
        assert tracer.drain()[0].attributes == {"rung": "lu"}

    def test_worker_context_round_trip(self, tracer):
        tracer.set_trace_id("fp1234")
        with tracer.span("parent"):
            ctx = tracer.worker_context()
            parent_id = tracer.current_span_id()
        assert ctx == {
            "enabled": True,
            "trace_id": "fp1234",
            "parent_id": parent_id,
            "attrs": {},
        }
        # Simulate the worker side: activation clears inherited state and
        # re-parents new spans under the coordinator's live span.
        assert activate_worker_context(ctx)
        with tracer.span("child"):
            pass
        child = [s for s in tracer.drain() if s.name == "child"][0]
        assert child.parent_id == parent_id
        assert child.trace_id == "fp1234"

    def test_activate_none_is_noop(self):
        assert not activate_worker_context(None)
        assert not get_tracer().enabled

    def test_span_json_round_trip(self, tracer):
        import dataclasses

        with tracer.span("s", key="a/b", n=3):
            pass
        (span,) = tracer.drain()
        clone = Span.from_json(json.loads(json.dumps(span.to_json())))
        # to_json rounds the wall-clock anchor to 6 decimals (µs).
        assert clone == dataclasses.replace(span, start_s=round(span.start_s, 6))


class TestMetrics:
    def test_counter(self):
        c = Counter("points_total", "points")
        c.inc()
        c.inc(3, mode="serial")
        assert c.value() == 1
        assert c.value(mode="serial") == 3
        assert c.total() == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_and_histogram(self):
        g = Gauge("run", "run facts")
        g.set(4, field="workers")
        g.inc(0.5, field="wall_s")
        assert g.value(field="workers") == 4
        h = Histogram("stage", "stage seconds")
        h.observe(0.5, stage="build")
        h.observe(1.5, stage="build")
        h.observe(0.25, stage="solve")
        assert h.sum_by_label("stage") == {"build": 2.0, "solve": 0.25}
        assert h.count_by_label("stage") == {"build": 2, "solve": 1}
        assert h.total_sum() == 2.25
        assert h.total_count() == 3

    def test_registry_idempotent_and_typed(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x", "help")
        assert reg.counter("x") is c1
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert "x" in reg

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("points_total", "Points solved").inc(4, mode="serial")
        reg.histogram("stage", "Stage time").observe(0.5, stage="build")
        text = reg.to_prometheus()
        assert '# TYPE repro_points_total counter' in text
        assert 'repro_points_total{mode="serial"} 4' in text
        assert 'repro_stage_seconds_sum{stage="build"} 0.5' in text
        assert 'repro_stage_seconds_count{stage="build"} 1' in text


class TestHistogramBuckets:
    """Bucketed histograms: rendering, monotonicity, merge, quantiles."""

    BUCKETS = (0.1, 0.5, 1.0, 5.0)

    def _hist(self):
        h = Histogram("latency", "query wall time", buckets=self.BUCKETS)
        for value in (0.05, 0.3, 0.3, 0.7, 2.0):
            h.observe(value, outcome="miss")
        h.observe(0.01, outcome="hit")
        return h

    def test_bucket_rendering_labels_and_le(self):
        lines = self._hist().to_prometheus("repro_")
        text = "\n".join(lines)
        assert "# TYPE repro_latency_seconds histogram" in text
        # Every bucket line carries both the series labels and le=.
        assert 'repro_latency_seconds_bucket{outcome="miss",le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{outcome="miss",le="0.5"} 3' in text
        assert 'repro_latency_seconds_bucket{outcome="miss",le="1"} 4' in text
        assert 'repro_latency_seconds_bucket{outcome="miss",le="5"} 5' in text
        assert 'repro_latency_seconds_bucket{outcome="miss",le="+Inf"} 5' in text
        assert 'repro_latency_seconds_bucket{outcome="hit",le="0.1"} 1' in text
        assert 'repro_latency_seconds_count{outcome="miss"} 5' in text

    def test_bucket_counts_monotone_and_closed_by_inf(self):
        h = self._hist()
        for labels, series in h.series().items():
            cumulative = series.cumulative()
            assert all(
                a <= b for a, b in zip(cumulative, cumulative[1:])
            ), f"non-monotone buckets for {labels}: {cumulative}"
            # +Inf bucket == observation count: nothing falls off the end.
            assert cumulative[-1] == series.count

    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", "x", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", "x", buckets=(2.0, 1.0))

    def test_merge_adds_buckets_and_quantiles_follow(self):
        a = self._hist()
        b = self._hist()
        a.merge(b)
        assert a.total_count() == 12
        for _labels, series in a.series().items():
            assert series.cumulative()[-1] == series.count
        # Quantile interpolates the merged distribution, inside range.
        p50 = a.quantile(0.5)
        assert p50 is not None and 0.1 <= p50 <= 1.0
        assert a.quantile(0.0) is not None
        mismatched = Histogram("latency", "x", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            a.merge(mismatched)

    def test_wire_round_trip_preserves_rendering(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", "wall", buckets=self.BUCKETS)
        h.observe(0.3, outcome="miss")
        reg.counter("requests_total", "reqs").inc(2, kind="query")
        clone = MetricsRegistry.from_wire(reg.to_wire())
        assert clone.to_prometheus() == reg.to_prometheus()
        # Merging the clone doubles every count exactly.
        reg.merge(clone)
        assert reg.histogram("latency").total_count() == 2
        assert reg.counter("requests_total").total() == 4


class TestLogs:
    def test_json_line_formatter_includes_extras(self):
        record = logging.LogRecord(
            "repro.test", logging.WARNING, __file__, 1, "task quarantined", (), None
        )
        record.key = "stacked/4L"
        record.attempts = 3
        payload = json.loads(JsonLineFormatter().format(record))
        assert payload["level"] == "warning"
        assert payload["msg"] == "task quarantined"
        assert payload["key"] == "stacked/4L"
        assert payload["attempts"] == 3

    def test_configure_idempotent(self):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        configure_logging("info")
        configure_logging("debug")
        ours = [h for h in logger.handlers if getattr(h, "_repro_obs", False)]
        assert len(ours) == 1
        assert logger.level == logging.DEBUG
        # restore: drop our handler, keep whatever was there before
        logger.handlers = before
        logger.setLevel(logging.NOTSET)

    def test_get_logger_namespacing(self):
        logger = get_logger("repro.runtime.engine")
        assert logger.name == "repro.runtime.engine"
        assert get_logger("solver").name == "repro.solver"


def _make_spans(tracer):
    with tracer.span("sweep", run_fingerprint="fp", n_points=2):
        with tracer.span("group", key="k1", n_points=2):
            with tracer.span("build"):
                pass
            with tracer.span("factorize"):
                pass
            with tracer.span("solve"):
                tracer.record("rung", 0.01, rung="lu", count=2)
            tracer.record("contracts", 0.002, violations={"record": 1})
    return tracer.drain()


class TestExport:
    def test_flush_load_header_round_trip(self, tracer, tmp_path):
        tracer.set_trace_id("feedc0de")
        spans = _make_spans(tracer)
        path = flush_spans(spans, "feedc0de", trace_dir=tmp_path, trace_id="feedc0de")
        assert path == trace_path("feedc0de", tmp_path)
        loaded = load_trace(path)
        assert {s.span_id for s in loaded} == {s.span_id for s in spans}
        header = load_trace_header(path)
        assert header["run_fingerprint"] == "feedc0de"

    def test_reflush_dedupes_by_span_id(self, tracer, tmp_path):
        spans = _make_spans(tracer)
        flush_spans(spans, "fp", trace_dir=tmp_path)
        # Re-flushing an overlapping subset (a resume) must not duplicate.
        flush_spans(spans[:3], "fp", trace_dir=tmp_path)
        loaded = load_trace(trace_path("fp", tmp_path))
        assert len(loaded) == len(spans)
        assert len({s.span_id for s in loaded}) == len(spans)

    def test_flush_empty_returns_none(self, tmp_path):
        assert flush_spans([], "fp", trace_dir=tmp_path) is None

    def test_chrome_trace(self, tracer, tmp_path):
        spans = _make_spans(tracer)
        events = chrome_trace_events(spans)
        assert all(e["ph"] == "X" for e in events)
        assert {e["name"] for e in events} >= {"sweep", "group", "build"}
        out = tmp_path / "chrome.json"
        write_chrome_trace(spans, out, run_fingerprint="fp")
        doc = json.loads(out.read_text())
        assert doc["otherData"]["run_fingerprint"] == "fp"
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            assert key in doc["traceEvents"][0]
        assert min(e["ts"] for e in doc["traceEvents"]) < 1e6  # normalised

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x_total", "x").inc()
        out = write_prometheus(reg, tmp_path / "metrics.prom")
        assert "repro_x_total 1" in out.read_text()


class TestProfile:
    def test_tree_and_aggregation(self, tracer):
        spans = _make_spans(tracer)
        roots = build_tree(spans)
        assert len(roots) == 1 and roots[0].span.name == "sweep"
        names = [n.span.name for n in roots[0].walk()]
        assert names[0] == "sweep" and "rung" in names
        stats = {s.name: s for s in aggregate_by_name(spans)}
        assert stats["group"].count == 1
        # Self time excludes children.
        group_node = roots[0].children[0]
        assert group_node.self_s <= group_node.span.duration_s

    def test_stage_totals_and_attribution(self, tracer):
        spans = _make_spans(tracer)
        totals = stage_totals_from_spans(spans)
        assert totals["contracts"] == pytest.approx(0.002)
        assert totals["build"] > 0
        rollup = attribution(spans)
        assert rollup.escalations == {"lu": 2}  # count attr honoured
        assert rollup.contract_violations == {"record": 1}
        assert rollup.retries == 0

    def test_slowest_groups_and_retries(self, tracer):
        spans = _make_spans(tracer)  # first attempt
        with tracer.span("group", key="k1", n_points=2):
            pass  # retry of the same key
        spans += tracer.drain()
        (profile,) = slowest_groups(spans, top=5)
        assert profile.key == "k1"
        assert profile.retries == 1
        assert profile.escalations == {"lu": 2}

    def test_render_profile_mentions_everything(self, tracer):
        text = render_profile(_make_spans(tracer), run_fingerprint="fp")
        assert "time by span name" in text
        assert "stage totals from spans" in text
        assert "slowest topology groups" in text
        assert "lu: 2" in text
        assert "record: 1" in text
