"""The replica's lean request path: spliced hits, memoised fingerprints,
rate-limited recency, pre-bound metric children and tuple flight events.

Each test pins one piece of the fast path to what the general path
produced before it: the same response bytes, the same cache coherence
(peer rewrites, epochs, TTLs), the same metric series and the same
flight-recorder events.
"""

from __future__ import annotations

import json
import os
import socket
import time

import pytest

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.runtime import PDNSpec, SweepEngine, SweepPoint
from repro.service import (
    ResultCache,
    ServiceClient,
    ServiceConfig,
    query_fingerprint,
    serve_in_background,
)
from repro.service import cache as cache_module
from repro.service.server import SERVICE_PROTOCOL, _Hit, extract_summary

from tests.conftest import TEST_GRID


def _spec(n_layers: int = 2) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)


#: Floats whose shortest repr is long, a bool and a nested list: the
#: shapes a summary's canonical JSON must splice without drift.
_PAYLOAD = {
    "max_ir_drop_v": 0.1 + 0.2,
    "efficiency": 1.0 / 3.0,
    "load_power_w": 12.345678901234567,
    "degraded_solve": False,
    "layers": [1, 2.5, -0.0],
}


class _Solver:
    def __init__(self, payload=None):
        self.calls = 0
        self.payload = payload or _PAYLOAD

    def __call__(self, spec, activities, deadline):
        self.calls += 1
        return dict(self.payload)  # a None payload raises: a failed solve


@pytest.fixture
def serve(tmp_path):
    handles = []

    def _serve(solve_fn=None, **overrides):
        settings = dict(
            bind="127.0.0.1:0",
            cache_dir=str(tmp_path / "svc-cache"),
            bench_name=None,
        )
        settings.update(overrides)
        handle = serve_in_background(
            config=ServiceConfig(**settings), solve_fn=solve_fn
        )
        handles.append(handle)
        return handle

    yield _serve
    for handle in handles:
        handle.stop(drain=False)


class _RawLine:
    """A bare socket: the response line exactly as the server wrote it."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self._sock = socket.create_connection((host, int(port)), timeout=30)
        self._file = self._sock.makefile("rb")

    def ask(self, message) -> bytes:
        self._sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
        return self._file.readline()

    def close(self) -> None:
        self._file.close()
        self._sock.close()


def _old_encoding(response: dict) -> bytes:
    """How every response was written before hits were spliced."""
    return (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# spliced hit responses
# ----------------------------------------------------------------------

class TestHitBytes:
    @pytest.mark.parametrize(
        "request_id",
        [None, 7, "req-7", "ünïcode-id", {"b": [1, None], "a": True}, 2.5],
    )
    def test_wire_bytes_equal_the_old_encoding(self, serve, request_id):
        handle = serve(solve_fn=_Solver())
        message = {
            "kind": "query",
            "spec": _spec().to_dict(),
            "activities": [0.6, 1.0],
        }
        if request_id is not None:
            message["id"] = request_id
        raw = _RawLine(handle.address)
        try:
            miss = json.loads(raw.ask(message))
            line = raw.ask(message)
        finally:
            raw.close()
        hit = json.loads(line)
        assert miss["cached"] is False and hit["cached"] is True
        expected = {
            "kind": "result",
            "status": "ok",
            "code": 200,
            "fingerprint": query_fingerprint(_spec(), (0.6, 1.0), "lu"),
            "cached": True,
            "degraded": False,
            "solver": "lu",
            "result": _PAYLOAD,
            "protocol": SERVICE_PROTOCOL,
            # The one field that differs from run to run.
            "wall_s": hit["wall_s"],
        }
        if request_id is not None:
            expected["id"] = request_id
        assert line == _old_encoding(expected)

    def test_encode_matches_for_edge_walls(self):
        hit = _Hit("0123456789abcdef", "cholesky", b'{"v": 1.5}')
        for wall in (0.0, 1e-06, 0.000123, 12.5, 3600.000001):
            response = {
                "kind": "result",
                "status": "ok",
                "code": 200,
                "fingerprint": "0123456789abcdef",
                "cached": True,
                "degraded": False,
                "solver": "cholesky",
                "result": {"v": 1.5},
                "protocol": SERVICE_PROTOCOL,
                "wall_s": wall,
                "id": ["x", 1],
            }
            assert hit.encode(wall, {"id": ["x", 1]}) == _old_encoding(response)

    def test_extract_summary_equals_the_result_methods(self):
        outcome = SweepEngine().run(
            [SweepPoint(spec=_spec(2), layer_activities=(0.6, 1.0))]
        ).values[0]
        result = outcome.unwrap()
        summary = extract_summary(outcome)
        assert summary == {
            "max_ir_drop_v": result.max_ir_drop(),
            "max_ir_drop_fraction": result.max_ir_drop_fraction(),
            "efficiency": result.efficiency(),
            "load_power_w": result.load_power(),
            "source_power_w": result.source_power(),
            "degraded_solve": False,
        }


# ----------------------------------------------------------------------
# coherence between two hits
# ----------------------------------------------------------------------

class TestSecondHitSeesChanges:
    def _query(self, client):
        return client.query(_spec(), activities=[0.6, 1.0])

    def _fingerprint(self):
        return query_fingerprint(_spec(), (0.6, 1.0), "lu")

    def test_peer_atomic_rewrite(self, serve, tmp_path):
        solver = _Solver()
        handle = serve(solve_fn=solver, epoch="e1")
        with ServiceClient(handle.address) as client:
            self._query(client)
            assert self._query(client)["result"] == _PAYLOAD
            peer = ResultCache(tmp_path / "svc-cache", epoch="e1").open()
            peer.put(self._fingerprint(), {"v": "rewritten by a peer"})
            second = self._query(client)
        assert second["cached"] is True
        assert second["result"] == {"v": "rewritten by a peer"}
        assert solver.calls == 1

    def test_epoch_bump(self, serve, tmp_path):
        solver = _Solver()
        handle = serve(solve_fn=solver, epoch="e1")
        with ServiceClient(handle.address) as client:
            self._query(client)
            assert self._query(client)["cached"] is True
            # A replica running newer code rewrites the entry.
            peer = ResultCache(tmp_path / "svc-cache", epoch="e2").open()
            peer.put(self._fingerprint(), {"v": "from epoch e2"})
            second = self._query(client)
        assert second["cached"] is False
        assert second["result"] == _PAYLOAD
        assert solver.calls == 2
        assert handle.service.cache.epoch_misses == 1

    def test_ttl_expiry(self, serve):
        solver = _Solver()
        handle = serve(solve_fn=solver, cache_ttl_s=0.3)
        with ServiceClient(handle.address) as client:
            self._query(client)
            assert self._query(client)["cached"] is True
            time.sleep(0.45)
            second = self._query(client)
        assert second["cached"] is False
        assert solver.calls == 2


# ----------------------------------------------------------------------
# recency: one utime per entry per interval
# ----------------------------------------------------------------------

@pytest.fixture
def utimes(monkeypatch):
    calls = []
    original = os.utime

    def counting(path, *args, **kwargs):
        calls.append(os.fspath(path))
        return original(path, *args, **kwargs)

    monkeypatch.setattr(cache_module.os, "utime", counting)
    return calls


class TestRecencyInterval:
    def test_hits_after_a_write_do_not_touch_the_file(self, tmp_path, utimes):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("k1", {"v": 1})
        for _ in range(50):
            assert cache.get("k1") is not None
        assert utimes == []
        assert cache.hits == 50

    def test_at_most_one_utime_per_interval(self, tmp_path, utimes):
        cache = ResultCache(tmp_path / "c").open()
        path = cache.put("k1", {"v": 1})
        stale_ns = time.time_ns() - 10 * 10**9
        os.utime(path, ns=(stale_ns, stale_ns))
        utimes.clear()  # that one was ours
        for _ in range(50):
            assert cache.get("k1") is not None
        assert utimes == [str(path)]
        assert path.stat().st_mtime_ns > stale_ns

    def test_next_interval_bumps_again(self, tmp_path, utimes, monkeypatch):
        monkeypatch.setattr(cache_module, "RECENCY_INTERVAL_S", 0.05)
        cache = ResultCache(tmp_path / "c").open()
        path = cache.put("k1", {"v": 1})
        for _ in range(20):
            cache.get("k1")
        assert utimes == []
        time.sleep(0.08)
        for _ in range(20):
            cache.get("k1")
        assert utimes == [str(path)]

    def test_in_memory_recency_follows_every_hit(self, tmp_path, utimes):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("k1", {"v": 1})
        before = cache._index["k1"].used_at
        time.sleep(0.01)
        cache.get("k1")
        assert cache._index["k1"].used_at > before
        assert utimes == []

    def test_service_hits_share_the_interval(self, serve, utimes):
        handle = serve(solve_fn=_Solver())
        with ServiceClient(handle.address) as client:
            for _ in range(30):
                client.query(_spec())
        assert handle.service.cache.hits == 29
        assert len(utimes) <= 1


# ----------------------------------------------------------------------
# fingerprint memo
# ----------------------------------------------------------------------

class TestFingerprintMemo:
    """The line memo: raw plain query line (and solver) -> fingerprint."""

    @staticmethod
    def _lines(handle, messages):
        raw = _RawLine(handle.address)
        try:
            for message in messages:
                raw.ask(message)
        finally:
            raw.close()
        return handle.service._lines

    def test_memo_equals_query_fingerprint(self, serve):
        handle = serve(solve_fn=_Solver())
        spec = _spec(3)
        messages = [
            {"kind": "query", "spec": spec.to_dict()},
            {"kind": "query", "spec": spec.to_dict(), "activities": [1.0, 0.5, 1.0]},
        ]
        memo = self._lines(handle, messages + messages)
        assert sorted(memo.values()) == sorted(
            query_fingerprint(spec, activities, "lu")
            for activities in (None, (1.0, 0.5, 1.0))
        )
        assert handle.service.cache.hits == 2

    def test_equal_values_of_other_types_keep_their_fingerprints(self, serve):
        # 0, 0.0 and False compare equal, but fingerprint apart.
        handle = serve(solve_fn=_Solver())
        variants = [
            PDNSpec(grid_nodes=TEST_GRID, vdd_pads_per_core=value)
            for value in (0, 0.0, False)
        ]
        spec = _spec()
        activity_variants = ((0.0, 1.0), (-0.0, 1.0))
        messages = [{"kind": "query", "spec": v.to_dict()} for v in variants] + [
            {"kind": "query", "spec": spec.to_dict(), "activities": list(a)}
            for a in activity_variants
        ]
        memo = self._lines(handle, messages + messages)
        expected = [query_fingerprint(v, None, "lu") for v in variants] + [
            query_fingerprint(spec, a, "lu") for a in activity_variants
        ]
        assert len(set(expected)) == 5
        assert list(memo.values()) == expected

    def test_memo_stays_bounded_by_the_cache(self, serve, monkeypatch):
        from repro.service import server

        monkeypatch.setattr(server, "_FINGERPRINT_MEMO_FLOOR", 4)
        solver = _Solver()
        handle = serve(solve_fn=solver, breaker_threshold=1000)

        def queries(first, last):
            return [
                {"kind": "query", "spec": _spec().to_dict(), "activities": [float(i), 1.0]}
                for i in range(first, last)
            ]

        # Validated but never cached: the memo holds the floor.
        solver.payload = None  # the solver raises: nothing is cached
        assert len(self._lines(handle, queries(0, 20))) == 4
        # Six answers cached: the memo grows with the cache (a line is
        # memoised before its own answer is cached, so asking all six
        # again settles it at six).
        solver.payload = _PAYLOAD
        assert len(self._lines(handle, queries(20, 26) * 2)) == 6
        assert len(handle.service.cache) == 6

    def test_first_sights_past_the_floor_are_all_memoised(self, serve, monkeypatch):
        from repro.service import server

        monkeypatch.setattr(server, "_FINGERPRINT_MEMO_FLOOR", 4)
        handle = serve(solve_fn=_Solver())
        messages = [
            {"kind": "query", "spec": _spec().to_dict(), "activities": [float(i), 1.0]}
            for i in range(8)
        ]
        # Each miss's own answer counts toward the bound it is memoised
        # under, so no line is evicted while the cache still holds it.
        assert len(self._lines(handle, messages)) == 8
        full_path = []
        respond = handle.service._respond

        async def counting(raw, peer):
            full_path.append(raw)
            return await respond(raw, peer)

        monkeypatch.setattr(handle.service, "_respond", counting)
        self._lines(handle, messages)
        assert full_path == []


# ----------------------------------------------------------------------
# pre-bound metric children
# ----------------------------------------------------------------------

#: (metric, labels, value) events: a mixed stream of what the service
#: records, including a label set that is bound but never used.
_EVENTS = [
    ("requests", {"kind": "query"}, 1),
    ("requests", {"kind": "health"}, 1),
    ("latency", {"outcome": "miss"}, 0.02),
    ("latency", {"outcome": "hit"}, 0.0001),
    ("requests", {"kind": "query"}, 1),
    ("latency", {"outcome": "hit"}, 0.00012),
    ("latency", {"outcome": "hit"}, 7.5),
    ("requests", {"kind": "query"}, 2),
    ("latency", {"outcome": "error"}, 0.0003),
]


def _registry(bound: bool) -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "requests, by kind")
    latency = registry.histogram(
        "latency", "latency, by outcome", buckets=LATENCY_BUCKETS
    )
    metrics = {"requests": requests, "latency": latency}
    children = {}
    if bound:
        for name, labels, _ in _EVENTS:
            children[(name, tuple(sorted(labels.items())))] = (
                metrics[name].labels(**labels)
            )
        registry.counter("requests_total").labels(kind="never")
    for name, labels, value in _EVENTS:
        if bound:
            child = children[(name, tuple(sorted(labels.items())))]
            if name == "requests":
                child.inc(value)
            else:
                child.observe(value)
        elif name == "requests":
            requests.inc(value, **labels)
        else:
            latency.observe(value, **labels)
    return registry


class TestBoundMetricChildren:
    def test_series_equal_the_unbound_path(self):
        old, new = _registry(bound=False), _registry(bound=True)
        assert new.to_prometheus() == old.to_prometheus()
        assert new.to_wire() == old.to_wire()

    def test_unused_child_adds_no_series(self):
        bound, plain = MetricsRegistry(), MetricsRegistry()
        bound.counter("c", "").labels(kind="never")
        bound.histogram("h", "", buckets=(1.0,)).labels(stage="never")
        plain.counter("c", "")
        plain.histogram("h", "", buckets=(1.0,))
        assert bound.to_wire() == plain.to_wire()
        assert bound.to_prometheus() == plain.to_prometheus()

    def test_bound_counter_refuses_to_decrease(self):
        child = MetricsRegistry().counter("c").labels(kind="x")
        with pytest.raises(ValueError, match="cannot decrease"):
            child.inc(-1)

    def test_service_series_after_a_mixed_stream(self, serve):
        handle = serve(solve_fn=_Solver(), slo_latency_s=60.0)
        with ServiceClient(handle.address) as client:
            client.query(_spec(2))  # miss
            for _ in range(3):
                client.query(_spec(2))  # hits
            client.request({"kind": "query", "spec": {"bogus": 1}})  # 400
            client.health()
            series = client.metrics()["series"]
        registry = MetricsRegistry.from_wire(series)
        requests = registry.get("service_requests_total")
        assert requests.value(kind="query") == 5
        assert requests.value(kind="health") == 1
        responses = registry.get("service_responses_total")
        assert responses.value(status="ok") == 4
        assert responses.value(status="bad-request") == 1
        latency = registry.get("service_query_latency")
        assert latency.count(outcome="hit") == 3
        assert latency.count(outcome="miss") == 1
        assert latency.count(outcome="error") == 1
        stages = registry.get("service_stage_latency")
        assert stages.count(stage="cache") == 4
        slo = registry.get("service_slo_total")
        assert slo.value(result="ok") == 4
        assert slo.value(result="breached") == 1
        text = MetricsRegistry.from_wire(series).to_prometheus()
        assert 'repro_service_query_latency_seconds_count{outcome="hit"} 3' in (
            text
        )


# ----------------------------------------------------------------------
# flight recorder events
# ----------------------------------------------------------------------

class TestFlightEvents:
    def test_hit_event_dumps_in_the_old_shape(self, serve, tmp_path):
        handle = serve(solve_fn=_Solver())
        with ServiceClient(handle.address) as client:
            client.query(_spec())
            client.request(
                {
                    "kind": "query",
                    "spec": _spec().to_dict(),
                    "trace": {"id": "t-1", "parent": "p-1"},
                }
            )
        handle.stop(drain=True)
        dump = tmp_path / "svc-cache" / (
            f"flight-recorder-{handle.service.replica_id}.json"
        )
        miss, hit = json.loads(dump.read_text())["events"]
        assert set(hit) == {
            "t", "fingerprint", "status", "code", "outcome", "wall_s",
            "cached", "degraded", "coalesced", "peer", "trace",
        }
        assert hit["outcome"] == "hit" and miss["outcome"] == "miss"
        assert hit["status"] == "ok" and hit["code"] == 200
        assert hit["cached"] is True and miss["cached"] is False
        assert hit["degraded"] is False and hit["coalesced"] is False
        assert hit["trace"] == "t-1" and miss["trace"] is None
        assert hit["fingerprint"] == miss["fingerprint"]
        assert isinstance(hit["peer"], str) and hit["peer"].startswith("(")
        assert hit["t"] == round(hit["t"], 6)
        assert hit["wall_s"] == round(hit["wall_s"], 6)
