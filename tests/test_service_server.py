"""Service e2e: stampede, shed, breaker degradation, deadlines, identity.

Each test boots a real :class:`~repro.service.ExplorationService` on a
background thread (ephemeral port) and talks to it over TCP with
:class:`~repro.service.ServiceClient` — the full wire path, not method
calls.  Solve backends are injected stubs except for the bit-identity
test, which runs the real engine.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime import PDNSpec
from repro.service import (
    ServiceClient,
    ServiceConfig,
    serve_in_background,
)

from tests.conftest import TEST_GRID


def _spec(n_layers: int = 2, grid: int = TEST_GRID) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=grid)


def _config(tmp_path, **overrides) -> ServiceConfig:
    settings = dict(
        bind="127.0.0.1:0",
        cache_dir=str(tmp_path / "svc-cache"),
        bench_name=None,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


@pytest.fixture
def serve(tmp_path):
    """Factory fixture: boot a service, guarantee teardown."""
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


class _CountingSolver:
    """A stub backend: counts calls, optionally slow or failing."""

    def __init__(self, delay_s: float = 0.0, payload=None):
        self.delay_s = delay_s
        self.payload = payload or {"efficiency": 0.9, "max_ir_drop_v": 0.01}
        self.calls = 0
        self.fail = False
        self.fail_above_grid = None
        self._lock = threading.Lock()

    def __call__(self, spec, activities, deadline):
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("injected backend failure")
        if (
            self.fail_above_grid is not None
            and spec.grid_nodes > self.fail_above_grid
        ):
            raise RuntimeError("injected fine-grid failure")
        return dict(self.payload, grid=spec.grid_nodes)


# ----------------------------------------------------------------------
# caching + single-flight
# ----------------------------------------------------------------------

class TestCachingAndCoalescing:
    def test_repeat_query_is_a_cache_hit(self, serve):
        solver = _CountingSolver()
        handle = serve(solve_fn=solver)
        with ServiceClient(handle.address) as client:
            first = client.query(_spec())
            second = client.query(_spec())
            metrics = client.metrics()
        assert first["status"] == "ok" and not first["cached"]
        assert second["cached"] and second["result"] == first["result"]
        assert solver.calls == 1
        counters = metrics["counters"]
        assert counters["cache"]["hits"] == 1
        assert counters["cache"]["misses"] == 1
        assert "service_cache_total" in metrics["prometheus"]

    def test_cache_survives_server_restart(self, serve, tmp_path):
        solver = _CountingSolver()
        handle = serve(solve_fn=solver)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
        handle.stop(drain=True)
        handle2 = serve(solve_fn=solver)
        with ServiceClient(handle2.address) as client:
            again = client.query(_spec())
        assert again["cached"]
        assert solver.calls == 1

    def test_stampede_coalesces_to_one_solve(self, serve):
        """32 concurrent identical queries -> exactly 1 backend solve."""
        solver = _CountingSolver(delay_s=0.3)
        handle = serve(solve_fn=solver)

        def one_query(_):
            with ServiceClient(handle.address) as client:
                return client.query(_spec(), deadline_s=30.0)

        with ThreadPoolExecutor(max_workers=32) as pool:
            responses = list(pool.map(one_query, range(32)))

        assert all(r["status"] == "ok" for r in responses)
        assert solver.calls == 1
        assert sum(bool(r.get("coalesced")) for r in responses) >= 1
        # Everyone got the same numbers.
        results = {tuple(sorted(r["result"].items())) for r in responses}
        assert len(results) == 1

    def test_distinct_specs_are_distinct_solves(self, serve):
        solver = _CountingSolver()
        handle = serve(solve_fn=solver)
        with ServiceClient(handle.address) as client:
            client.query(_spec(2))
            client.query(_spec(3))
        assert solver.calls == 2


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------

class TestLoadShedding:
    def test_overflow_sheds_typed_and_server_stays_live(self, serve):
        solver = _CountingSolver(delay_s=0.5)
        handle = serve(solve_fn=solver, max_queue=1)

        def one_query(n_layers):
            with ServiceClient(handle.address) as client:
                return client.query(_spec(n_layers), deadline_s=30.0)

        # Distinct specs so nothing coalesces: 1 solving + 1 queued
        # + N shed.
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(one_query, range(2, 10)))

        shed = [r for r in responses if r["status"] == "overloaded"]
        served = [r for r in responses if r["status"] == "ok"]
        assert shed, "expected at least one typed shed"
        for response in shed:
            assert response["code"] == 429
            assert response["error_type"] == "ServiceOverloadError"
            assert response["retry_after_s"] > 0
        assert served, "server must keep answering under overload"
        # The server is still healthy afterwards.
        with ServiceClient(handle.address) as client:
            assert client.health()["status"] == "ok"
            follow_up = client.query(_spec(20))
            assert follow_up["status"] == "ok"
            counters = client.metrics()["counters"]
        assert counters["admission"]["shed"] == len(shed)


# ----------------------------------------------------------------------
# circuit breaker + degradation
# ----------------------------------------------------------------------

class TestBreakerDegradation:
    def test_failures_open_breaker_then_coarse_grid_degrades(self, serve):
        solver = _CountingSolver()
        solver.fail_above_grid = 6  # coarse solves succeed, fine ones fail
        handle = serve(
            solve_fn=solver,
            breaker_threshold=2,
            breaker_cooldown_s=60.0,
            coarse_grid=6,
        )
        with ServiceClient(handle.address) as client:
            # Two failing solves (distinct specs dodge the single-flight
            # and cache paths) open the breaker...
            for n_layers in (2, 3):
                response = client.query(_spec(n_layers, grid=12))
                assert response["status"] == "solve-error"
                assert response["code"] == 500
            assert client.health()["breaker"] == "open"
            # ...after which queries come back DEGRADED, not failed:
            response = client.query(_spec(4, grid=12))
            assert response["status"] == "ok"
            assert response["degraded"] is True
            assert response["degraded_mode"] == "coarse-grid"
            assert response["result"]["grid"] == 6
            # Readiness says degraded-only; liveness stays ok.
            assert client.health()["status"] == "ok"
            assert "breaker open" in " ".join(client.ready()["reasons"])

    def test_breaker_open_serves_stale_cache(self, serve):
        solver = _CountingSolver()
        handle = serve(
            solve_fn=solver,
            breaker_threshold=1,
            breaker_cooldown_s=60.0,
            cache_ttl_s=0.05,
            coarse_grid=2,  # coarse re-solve impossible at TEST_GRID=2
        )
        spec = _spec(2, grid=2)
        with ServiceClient(handle.address) as client:
            fresh = client.query(spec)
            assert fresh["status"] == "ok"
            time.sleep(0.08)  # entry is now TTL-stale
            solver.fail = True
            opened = client.query(_spec(3, grid=2))  # opens the breaker
            assert opened["status"] == "solve-error"
            stale = client.query(spec)
        assert stale["status"] == "ok"
        assert stale["degraded"] is True
        assert stale["degraded_mode"] == "stale-cache"
        assert stale["stale"] is True
        assert stale["result"] == fresh["result"]

    def test_breaker_open_without_fallback_is_typed_503(self, serve):
        solver = _CountingSolver()
        solver.fail = True
        handle = serve(
            solve_fn=solver,
            breaker_threshold=1,
            breaker_cooldown_s=60.0,
        )
        with ServiceClient(handle.address) as client:
            client.query(_spec(2))  # opens the breaker
            response = client.query(_spec(3))
        assert response["status"] == "unavailable"
        assert response["code"] == 503
        assert response["error_type"] == "CircuitOpenError"
        assert response["retry_after_s"] > 0

    def test_half_open_probe_closes_breaker_on_recovery(self, serve):
        solver = _CountingSolver()
        solver.fail = True
        handle = serve(
            solve_fn=solver,
            breaker_threshold=1,
            breaker_cooldown_s=0.15,
        )
        with ServiceClient(handle.address) as client:
            client.query(_spec(2))
            assert client.health()["breaker"] == "open"
            solver.fail = False  # backend recovers
            time.sleep(0.2)  # cooldown elapses -> half-open
            probe = client.query(_spec(3))
            assert probe["status"] == "ok" and not probe.get("degraded")
            assert client.health()["breaker"] == "closed"
            counters = client.metrics()["counters"]
        transitions = counters["breaker"]["transitions"]
        assert transitions["open"] == 1
        assert transitions["half-open"] == 1
        assert transitions["closed"] == 1


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------

class TestDeadlines:
    def test_deadline_exceeded_mid_solve_is_typed_504(self, serve):
        solver = _CountingSolver(delay_s=0.6)
        handle = serve(solve_fn=solver)
        with ServiceClient(handle.address) as client:
            late = client.query(_spec(), deadline_s=0.15)
            assert late["status"] == "deadline"
            assert late["code"] == 504
            assert late["error_type"] == "DeadlineExceededError"
            # The server is alive and the orphaned solve still completes
            # and populates the cache: the retry is a hit.
            assert client.health()["status"] == "ok"
            for _ in range(50):
                retry = client.query(_spec(), deadline_s=5.0)
                if retry.get("cached"):
                    break
                time.sleep(0.05)
            assert retry["status"] == "ok" and retry["cached"]
        assert solver.calls == 1

    def test_deadline_spent_in_queue_is_typed_504(self, serve):
        solver = _CountingSolver(delay_s=0.4)
        handle = serve(solve_fn=solver, max_queue=4)

        def one_query(n_layers, deadline_s):
            with ServiceClient(handle.address) as client:
                return client.query(_spec(n_layers), deadline_s=deadline_s)

        with ThreadPoolExecutor(max_workers=3) as pool:
            blocker = pool.submit(one_query, 2, 30.0)
            time.sleep(0.05)  # the blocker is now solving
            starved = pool.submit(one_query, 3, 0.1).result()
            assert blocker.result()["status"] == "ok"
        assert starved["status"] == "deadline"
        assert starved["code"] == 504
        # The starved query never reached the backend.
        assert solver.calls == 1

    def test_server_default_deadline_applies(self, serve):
        solver = _CountingSolver(delay_s=0.5)
        handle = serve(solve_fn=solver, default_deadline_s=0.1)
        with ServiceClient(handle.address) as client:
            response = client.query(_spec())
        assert response["status"] == "deadline"


# ----------------------------------------------------------------------
# numerical identity with the direct engine path
# ----------------------------------------------------------------------

class TestBitIdentity:
    def test_service_answers_match_direct_engine_run(self, serve):
        """Served results == SweepEngine results, to the last bit."""
        from repro.runtime import SweepEngine, SweepPoint
        from repro.service.server import extract_summary

        spec = _spec(2)
        activities = (0.6, 1.0)
        direct = SweepEngine().run(
            [SweepPoint(spec=spec, layer_activities=activities)],
            extract=extract_summary,
        ).values[0]

        handle = serve()  # real engine-backed executor
        with ServiceClient(handle.address, timeout_s=300.0) as client:
            solved = client.query(spec, activities=list(activities))
            cached = client.query(spec, activities=list(activities))
        assert solved["status"] == "ok" and not solved["cached"]
        assert cached["cached"]
        for key, direct_value in direct.items():
            if isinstance(direct_value, float):
                assert solved["result"][key] == pytest.approx(
                    direct_value, abs=1e-12, rel=0
                ), key
                assert cached["result"][key] == solved["result"][key], key
            else:
                assert solved["result"][key] == direct_value, key


# ----------------------------------------------------------------------
# protocol robustness + shutdown
# ----------------------------------------------------------------------

class TestProtocol:
    def test_malformed_requests_get_typed_400s(self, serve):
        handle = serve(solve_fn=_CountingSolver())
        with ServiceClient(handle.address) as client:
            garbage = client.request({"kind": "query", "spec": {"bogus": 1}})
            assert garbage["code"] == 400
            assert garbage["error_type"] == "ServiceProtocolError"
            unknown = client.request({"kind": "dance"})
            assert unknown["code"] == 400
            mismatch = client.request(
                {
                    "kind": "query",
                    "spec": _spec(4).to_dict(),
                    "activities": [1.0],
                }
            )
            assert mismatch["code"] == 400
            assert "4 layer(s)" in mismatch["error"]
            # The connection survived all three.
            assert client.health()["status"] == "ok"

    def test_non_object_and_non_utf8_lines_get_typed_400s(self, serve):
        handle = serve(solve_fn=_CountingSolver())
        host, port = handle.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            stream = sock.makefile("rb")
            replies = []
            for line in (b"[1, 2]", b"\xff", b'{"kind": "health"}'):
                sock.sendall(line + b"\n")
                replies.append(json.loads(stream.readline()))
        assert [reply["code"] for reply in replies] == [400, 400, 200]
        assert {reply.get("error_type") for reply in replies[:2]} == {
            "ServiceProtocolError"
        }
        assert replies[0]["error"] == "request must be a JSON object"
        assert replies[1]["error"] == "request is not UTF-8"

    def test_request_id_echo(self, serve):
        handle = serve(solve_fn=_CountingSolver())
        with ServiceClient(handle.address) as client:
            response = client.query(_spec(), request_id="req-7")
        assert response["id"] == "req-7"

    def test_clean_shutdown_drains_inflight_queries(self, serve):
        solver = _CountingSolver(delay_s=0.4)
        handle = serve(solve_fn=solver)

        def slow_query():
            with ServiceClient(handle.address) as client:
                return client.query(_spec(), deadline_s=30.0)

        with ThreadPoolExecutor(max_workers=1) as pool:
            inflight = pool.submit(slow_query)
            time.sleep(0.1)  # the query is now solving
            with ServiceClient(handle.address) as client:
                assert client.shutdown(drain=True)["status"] == "draining"
            # The in-flight query still gets its real answer.
            response = inflight.result(timeout=10.0)
        assert response["status"] == "ok"
        assert solver.calls == 1
        handle.thread.join(timeout=10.0)
        assert not handle.thread.is_alive()

    def test_draining_server_rejects_new_queries(self, serve):
        solver = _CountingSolver(delay_s=0.5)
        handle = serve(solve_fn=solver)

        def slow_query():
            with ServiceClient(handle.address) as client:
                return client.query(_spec(2), deadline_s=30.0)

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(slow_query)
            time.sleep(0.1)
            with ServiceClient(handle.address) as client:
                client.shutdown(drain=True)
                rejected = client.query(_spec(3))
        assert rejected["status"] == "unavailable"
        assert rejected["code"] == 503


class TestStopReleasesTheReplica:
    def test_stopped_replica_frees_its_factorisations_without_gc(self, tmp_path):
        """After ``stop()`` the service and its engine's factorisations die
        by reference counting: no reference cycle keeps them for a full
        collection (a V-S factorisation is tens of MB at real grids)."""
        gc.collect()
        gc.disable()
        try:
            handle = serve_in_background(config=_config(tmp_path))
            spec = PDNSpec.stacked(2, converters_per_core=2, grid_nodes=TEST_GRID)
            with ServiceClient(handle.address) as client:
                assert client.query(spec)["status"] == "ok"
            service = weakref.ref(handle.service)
            (entry,) = handle.service._executor.engine._cache.values()
            factorization = weakref.ref(entry.pdn.assembled().factorization)
            del entry
            assert factorization() is not None
            handle.stop()
            assert not handle.thread.is_alive()
            del handle
            assert service() is None
            assert factorization() is None
        finally:
            gc.enable()
