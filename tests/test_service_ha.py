"""HA tier e2e: shared-cache replicas, epoch coherence, failover, fleet.

The chaos-shaped proofs the HA design rests on live here:

* a SIGKILLed replica loses no queries (clients fail over mid-burst and
  the shared cache shows zero torn entries afterwards),
* bumping the code epoch forces a re-solve while the old entry stays
  reachable only through the degraded stale path, and
* an injected truncated cache entry is evicted and counted, never
  served.

Replicas here are real :class:`~repro.service.ExplorationService`
instances — in-process on background threads for speed, plus one real
``repro serve`` *subprocess* for the SIGKILL test (a thread cannot be
killed; crash-safety of the flock flight claims needs a real process
death).
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import FleetTransportError, ServiceUnavailableError
from repro.runtime import PDNSpec, SweepEngine, SweepPoint
from repro.runtime.fleet import ServiceFleet, run_worker
from repro.service import (
    ResultCache,
    ServiceClient,
    ServiceConfig,
    extract_summary,
    query_fingerprint,
    robust_query,
    serve_in_background,
)
from repro.service.replica import (
    ReplicaFlights,
    deregister_replica,
    live_replicas,
    register_replica,
)

from tests.conftest import TEST_GRID

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _spec(n_layers: int = 2, grid: int = TEST_GRID) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=grid)


class _CountingSolver:
    """Stub backend shared by several replicas: counts calls, can stall."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec, activities, deadline):
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return {"efficiency": 0.9, "grid": spec.grid_nodes}


@pytest.fixture
def serve(tmp_path):
    """Factory: boot replicas onto ONE shared cache dir; teardown all."""
    handles = []
    cache_dir = tmp_path / "shared-cache"

    def _serve(solve_fn=None, **overrides):
        settings = dict(
            bind="127.0.0.1:0", cache_dir=str(cache_dir), bench_name=None
        )
        settings.update(overrides)
        handle = serve_in_background(
            config=ServiceConfig(**settings), solve_fn=solve_fn
        )
        handles.append(handle)
        return handle

    _serve.cache_dir = cache_dir
    yield _serve
    for handle in handles:
        handle.stop(drain=False)


# ----------------------------------------------------------------------
# replicas sharing one cache directory
# ----------------------------------------------------------------------

class TestReplicaCacheSharing:
    def test_peer_write_is_visible_across_replicas(self, serve):
        """Replica B serves replica A's answer from the shared cache."""
        solver_a, solver_b = _CountingSolver(), _CountingSolver()
        a = serve(solve_fn=solver_a, replica_id="replica-a")
        b = serve(solve_fn=solver_b, replica_id="replica-b")
        with ServiceClient(a.address) as client:
            first = client.query(_spec())
        with ServiceClient(b.address) as client:
            second = client.query(_spec())
        assert first["status"] == "ok" and not first["cached"]
        assert second["status"] == "ok" and second["cached"]
        assert second["result"] == first["result"]
        assert solver_a.calls == 1 and solver_b.calls == 0

    def test_cross_replica_single_flight(self, serve):
        """The same miss on two replicas at once -> exactly one solve."""
        solver = _CountingSolver(delay_s=0.5)
        a = serve(solve_fn=solver, replica_id="replica-a")
        b = serve(solve_fn=solver, replica_id="replica-b")
        spec, results = _spec(), []
        lock = threading.Lock()

        def query(address):
            with ServiceClient(address, timeout_s=30.0) as client:
                response = client.query(spec, deadline_s=30.0)
            with lock:
                results.append(response)

        threads = [
            threading.Thread(target=query, args=(h.address,)) for h in (a, b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 2
        assert all(r["status"] == "ok" for r in results)
        assert results[0]["result"] == results[1]["result"]
        assert solver.calls == 1
        waits = (
            a.service.replica_waits + b.service.replica_waits
        )
        hits = a.service.replica_hits + b.service.replica_hits
        # The follower either waited out the peer's flight or arrived
        # after the cache write (plain cached hit) — both are one solve.
        assert waits == hits

    def test_flight_claims_are_exclusive_and_crash_swept(self, tmp_path):
        flights_a = ReplicaFlights(tmp_path).open()
        flights_b = ReplicaFlights(tmp_path).open()
        claim = flights_a.try_claim("fp1")
        assert claim is not None
        # Held by A: B is refused (advisory flock across open fds).
        assert flights_b.try_claim("fp1") is None
        assert flights_b.busy == 1
        claim.release()
        assert not claim.path.exists()
        follow_up = flights_b.try_claim("fp1")
        assert follow_up is not None
        follow_up.release()
        # A leftover lock file with no live holder is swept on open.
        litter = tmp_path / "flights" / "flight-dead.lock"
        litter.write_text("{}")
        ReplicaFlights(tmp_path).open()
        assert not litter.exists()


# ----------------------------------------------------------------------
# version-aware cache coherence
# ----------------------------------------------------------------------

class TestEpochCoherence:
    def test_epoch_bump_forces_resolve_and_keeps_stale_path(self, serve):
        solver = _CountingSolver()
        first = serve(solve_fn=solver, epoch="epoch-aaa")
        with ServiceClient(first.address) as client:
            assert client.query(_spec())["status"] == "ok"
        assert solver.calls == 1
        first.stop(drain=True)

        # A new-epoch cache sees the old entry ONLY via the stale path.
        cache = ResultCache(serve.cache_dir, epoch="epoch-bbb").open()
        fingerprint = query_fingerprint(_spec())
        assert cache.get(fingerprint) is None
        assert cache.epoch_misses == 1
        stale = cache.get(fingerprint, allow_stale=True)
        assert stale is not None and stale.stale
        assert stale.stale_reason == "epoch"
        assert stale.epoch == "epoch-aaa"

        # A new-epoch replica re-solves and re-stamps the entry.
        second = serve(solve_fn=solver, epoch="epoch-bbb")
        with ServiceClient(second.address) as client:
            bumped = client.query(_spec())
            again = client.query(_spec())
            metrics = client.metrics()
        assert bumped["status"] == "ok" and not bumped["cached"]
        assert again["cached"]
        assert solver.calls == 2
        counters = metrics["counters"]
        assert counters["epoch"] == "epoch-bbb"
        assert counters["cache"]["epoch_misses"] == 1

    def test_invalidate_removes_one_generation(self, tmp_path):
        old = ResultCache(tmp_path / "c", epoch="epoch-old").open()
        old.put("fp-old", {"v": 1})
        new = ResultCache(tmp_path / "c", epoch="epoch-new").open()
        new.put("fp-new", {"v": 2})
        removed = new.invalidate(epoch="epoch-old")
        assert removed == 1
        assert new.get("fp-new") is not None
        assert new.get("fp-old", allow_stale=True) is None

    def test_truncated_entry_is_evicted_and_counted(self, serve):
        """An injected torn entry re-solves; it is never served."""
        solver = _CountingSolver()
        handle = serve(solve_fn=solver)
        with ServiceClient(handle.address) as client:
            client.query(_spec())
        fingerprint = query_fingerprint(_spec())
        path = serve.cache_dir / f"result-{fingerprint}.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with ServiceClient(handle.address) as client:
            response = client.query(_spec())
            metrics = client.metrics()
        assert response["status"] == "ok" and not response["cached"]
        assert solver.calls == 2
        assert metrics["counters"]["cache"]["corrupt"] == 1

    def test_peer_put_under_another_epoch_is_an_epoch_miss(self, tmp_path):
        """A peer's atomic rename (new inode) voids the kept record."""
        mine = ResultCache(tmp_path / "c", epoch="epoch-aaa").open()
        mine.put("fp1", {"v": 1})
        assert mine.get("fp1") is not None
        peer = ResultCache(tmp_path / "c", epoch="epoch-bbb").open()
        peer.put("fp1", {"v": 2})
        assert mine.get("fp1") is None
        assert mine.epoch_misses == 1 and mine.corrupt == 0
        stale = mine.get("fp1", allow_stale=True)
        assert stale.epoch == "epoch-bbb" and stale.payload == {"v": 2}

    def test_entry_vanished_under_a_peer_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        """A peer's invalidate is not corruption: no warning, no count."""
        from repro.service import cache as cache_module

        warnings = []
        monkeypatch.setattr(
            cache_module._log, "warning", lambda *a, **k: warnings.append(a)
        )
        peer = ResultCache(tmp_path / "c", epoch="epoch-aaa").open()
        peer.put("fp1", {"v": 1})
        mine = ResultCache(tmp_path / "c", epoch="epoch-aaa").open()
        assert mine.get("fp1") is not None
        assert peer.invalidate(epoch="epoch-aaa") == 1
        assert mine.get("fp1") is None
        assert mine.corrupt == 0 and mine.misses == 1
        assert len(mine) == 0
        assert warnings == []

    def test_checksum_mismatch_is_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "c").open()
        cache.put("fp1", {"v": 1})
        path = tmp_path / "c" / "result-fp1.json"
        record = json.loads(path.read_text())
        record["payload"]["v"] = 999  # bit-flip; checksum now wrong
        path.write_text(json.dumps(record))
        assert cache.get("fp1") is None
        assert cache.corrupt == 1
        assert not path.exists()


# ----------------------------------------------------------------------
# replica registry + discovery + failover
# ----------------------------------------------------------------------

def _dead_pid() -> int:
    """The pid of a process that has already exited and been reaped."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestReplicaRegistry:
    def test_register_merge_and_deregister(self, tmp_path):
        register_replica(tmp_path, "r1", "127.0.0.1:1001", epoch="e1")
        replicas = register_replica(tmp_path, "r2", "127.0.0.1:1002")
        assert [r["id"] for r in replicas] == ["r1", "r2"]
        assert [r["id"] for r in live_replicas(tmp_path)] == ["r1", "r2"]
        # Head fields keep the pre-HA single-address layout working.
        record = json.loads((tmp_path / "service.json").read_text())
        assert record["address"] == "127.0.0.1:1001"
        deregister_replica(tmp_path, "r1")
        assert [r["id"] for r in live_replicas(tmp_path)] == ["r2"]
        deregister_replica(tmp_path, "r2")
        # Last replica out removes the file: no stale discovery left.
        assert not (tmp_path / "service.json").exists()

    def test_dead_pid_is_pruned_on_next_register(self, tmp_path):
        (tmp_path / "service.json").write_text(
            json.dumps(
                {
                    "address": "127.0.0.1:1001",
                    "replicas": [
                        {
                            "id": "crashed",
                            "address": "127.0.0.1:1001",
                            "pid": _dead_pid(),
                        }
                    ],
                }
            )
        )
        replicas = register_replica(tmp_path, "live", "127.0.0.1:1002")
        assert [r["id"] for r in replicas] == ["live"]


class TestDiscoveryAndFailover:
    def test_missing_discovery_is_typed(self, tmp_path):
        with pytest.raises(ServiceUnavailableError) as exc_info:
            robust_query(_spec(), cache_dir=tmp_path / "nowhere")
        assert "service.json" in str(exc_info.value)

    def test_stale_discovery_cli_is_one_line_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["query", "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "service.json" in err
        assert "Traceback" not in err

    def test_dead_address_cli_names_the_stale_file(self, tmp_path, capsys):
        from repro.cli import main

        dead = _reserved_dead_address()
        (tmp_path / "service.json").write_text(
            json.dumps({"address": dead, "pid": _dead_pid()})
        )
        code = main(
            ["query", "--cache-dir", str(tmp_path), "--grid", str(TEST_GRID)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stale discovery file" in err
        assert "Traceback" not in err

    def test_robust_query_fails_over_a_dead_replica(self, serve):
        solver = _CountingSolver()
        handle = serve(solve_fn=solver)
        response = robust_query(
            _spec(),
            addresses=[_reserved_dead_address(), handle.address],
            deadline_s=30.0,
        )
        assert response["status"] == "ok"
        assert solver.calls == 1


def _reserved_dead_address() -> str:
    """An address that refuses connections (bound, closed, not reused)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


# ----------------------------------------------------------------------
# shed-aware retries
# ----------------------------------------------------------------------

class _ScriptedReplica:
    """A fake replica answering each query from a canned response list."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = 0
        self._server = socket.socket()
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(8)
        self.address = "127.0.0.1:{}".format(self._server.getsockname()[1])
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with conn:
                reader = conn.makefile("r", encoding="utf-8")
                line = reader.readline()
                if not line:
                    continue
                self.requests += 1
                index = min(self.requests - 1, len(self.responses) - 1)
                conn.sendall(
                    (json.dumps(self.responses[index]) + "\n").encode()
                )

    def close(self):
        self._server.close()


def _shed(retry_after_s: float) -> dict:
    return {
        "kind": "error",
        "status": "overloaded",
        "code": 429,
        "error_type": "ServiceOverloadError",
        "error": "scripted shed",
        "retry_after_s": retry_after_s,
    }


_OK = {"kind": "result", "status": "ok", "code": 200, "result": {"v": 1.0}}


class TestRetries:
    def test_retries_honor_the_server_hint(self):
        replica = _ScriptedReplica([_shed(0.3), _OK])
        try:
            t0 = time.monotonic()
            response = robust_query(_spec(), [replica.address], retries=2)
            elapsed = time.monotonic() - t0
        finally:
            replica.close()
        assert response["status"] == "ok"
        assert replica.requests == 2
        assert elapsed >= 0.3  # the hint was honoured, not ignored

    def test_no_retries_returns_the_shed(self):
        replica = _ScriptedReplica([_shed(0.2)])
        try:
            response = robust_query(_spec(), [replica.address], retries=0)
        finally:
            replica.close()
        assert response["code"] == 429
        assert replica.requests == 1

    def test_backoff_never_sleeps_past_the_deadline(self):
        """A 30s hint against a 0.6s deadline: clamped, never overshot."""
        replica = _ScriptedReplica([_shed(30.0)])
        try:
            t0 = time.monotonic()
            response = robust_query(
                _spec(), [replica.address], deadline_s=0.6, retries=5
            )
            elapsed = time.monotonic() - t0
        finally:
            replica.close()
        assert response["code"] == 429  # surfaced, not raised
        assert elapsed < 3.0  # nowhere near the 30s hint


# ----------------------------------------------------------------------
# fleet-backed misses
# ----------------------------------------------------------------------

class TestServiceFleet:
    def test_fleet_answer_is_bit_identical_to_the_engine(self):
        fleet = ServiceFleet(
            "127.0.0.1:0", extract=extract_summary, wait_s=20.0
        )
        address = fleet.start()
        worker = threading.Thread(
            target=run_worker,
            args=(address,),
            kwargs={"worker_id": "w1", "patience_s": 10.0},
            daemon=True,
        )
        worker.start()
        try:
            spec = _spec()
            value = fleet.solve(spec, timeout_s=120.0)
        finally:
            fleet.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()  # close() released it cleanly
        direct = (
            SweepEngine()
            .run([SweepPoint(spec=spec)], extract=extract_summary)
            .values[0]
        )
        assert set(value) == set(direct)
        for key, expected in direct.items():
            assert value[key] == pytest.approx(expected, abs=1e-12)
        assert fleet.counters()["tasks_done"] == 1

    def test_no_worker_starves_to_transport_error(self):
        fleet = ServiceFleet(
            "127.0.0.1:0", extract=extract_summary, wait_s=0.2
        )
        fleet.start()
        try:
            with pytest.raises(FleetTransportError, match="no fleet worker"):
                fleet.solve(_spec(), timeout_s=30.0)
        finally:
            fleet.close()

    def test_serve_fleet_miss_fans_out_to_a_worker(self, serve):
        handle = serve(fleet="127.0.0.1:0", fleet_wait_s=5.0)
        fleet_address = handle.service.fleet_address
        assert fleet_address is not None
        worker = threading.Thread(
            target=run_worker,
            args=(fleet_address,),
            kwargs={"worker_id": "w1", "patience_s": 10.0},
            daemon=True,
        )
        worker.start()
        deadline = time.monotonic() + 10.0
        while (
            handle.service.fleet.workers_connected() == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert handle.service.fleet.workers_connected() == 1
        spec = _spec()
        with ServiceClient(handle.address, timeout_s=120.0) as client:
            response = client.query(spec, deadline_s=120.0)
            metrics = client.metrics()
        assert response["status"] == "ok"
        fleet_counters = metrics["counters"]["fleet"]
        assert fleet_counters["tasks_done"] == 1
        assert fleet_counters["fallbacks"] == 0
        direct = (
            SweepEngine()
            .run([SweepPoint(spec=spec)], extract=extract_summary)
            .values[0]
        )
        for key, expected in direct.items():
            assert response["result"][key] == pytest.approx(
                expected, abs=1e-12
            )
        handle.stop(drain=True)
        worker.join(timeout=10.0)
        assert not worker.is_alive()

    def test_serve_fleet_without_workers_degrades_to_local(self, serve):
        solver = _CountingSolver()
        handle = serve(
            solve_fn=solver, fleet="127.0.0.1:0", fleet_wait_s=0.1
        )
        with ServiceClient(handle.address) as client:
            response = client.query(_spec())
            metrics = client.metrics()
        assert response["status"] == "ok"
        assert solver.calls == 1  # answered locally, not hung on the fleet
        assert metrics["counters"]["fleet"]["workers"] == 0


# ----------------------------------------------------------------------
# chaos: SIGKILL a real replica mid-burst
# ----------------------------------------------------------------------

class TestReplicaKillChaos:
    def test_sigkill_mid_burst_loses_no_queries(self, tmp_path):
        """Kill replica A (a real process) mid-burst: every query still
        answered via replica B, and the shared cache has zero torn
        entries afterwards."""
        cache_dir = tmp_path / "shared-cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--bind",
                "127.0.0.1:0",
                "--cache-dir",
                str(cache_dir),
            ],
            env=env,
            cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        handle = None
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if any(
                    r.get("pid") == proc.pid
                    for r in live_replicas(cache_dir)
                ):
                    break
                assert proc.poll() is None, "replica A died during startup"
                time.sleep(0.1)
            else:
                pytest.fail("replica A never registered")
            handle = serve_in_background(
                config=ServiceConfig(
                    bind="127.0.0.1:0",
                    cache_dir=str(cache_dir),
                    bench_name=None,
                    replica_id="replica-b",
                )
            )
            answered = 0
            for index, layers in enumerate((2, 3, 4, 5)):
                response = robust_query(
                    _spec(layers),
                    cache_dir=cache_dir,
                    deadline_s=120.0,
                    client_timeout_s=60.0,
                )
                assert response["status"] == "ok", response
                answered += 1
                if index == 1:
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.wait(timeout=10.0)
            assert answered == 4
            report = ResultCache(cache_dir).open().verify()
            assert report["evicted"] == 0, "torn cache entries after kill"
            assert report["ok"] == report["checked"] > 0
        finally:
            if handle is not None:
                handle.stop(drain=False)
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
