#!/usr/bin/env python
"""End-to-end robustness proof for the exploration service.

Boots a real ``repro serve`` subprocess (two local solver workers,
forked once for the replica's life) and drives it through the failure
modes the service claims to survive:

1. **Mixed burst** — concurrent duplicate queries (must coalesce to one
   solve and then hit the cache), novel specs (each solved once) and one
   poisoned spec (NaN activities -> a *typed* solve-error response, not
   a hung or dead server).  Cache hit/miss counts are asserted through
   the metrics endpoint, not inferred from timing.
2. **Worker kill** — once a solver child holds the lease of a heavy
   query, *every* child of the server is SIGKILLed; the query must still
   come back answered (the replica respawns its workers and retries the
   lease, or the breaker serves a degraded answer), the server must stay
   healthy, and its child count must return to ``--workers``.
3. **Clean shutdown** — a drain-shutdown is requested while a query is
   in flight; the in-flight query must receive its full answer and the
   server process must exit 0.

Exit status 0 = all three proofs hold.

Then, as a measurement and not a gate, it times cached hits on an
in-process replica against two in-process newline-JSON echoes of the
same response over the same client, one on asyncio streams and one on
an ``asyncio.Protocol``, and writes the three p50s to
``<work_dir>/hit-latency.json``.

Usage::

    python scripts/service_check.py [work_dir] [--grid N] [--burst N]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GRID_NODES = 16
#: The server's local solver workers (``--workers``).
WORKERS = 2
KILL_GRID_NODES = 30
BURST_DUPLICATES = 6
NOVEL_LAYERS = (2, 3, 4)
DUPLICATE_LAYERS = 5
#: Hit-latency measurement: a V-S point (the cached summary's shape),
#: timed in alternating rounds of hits and echoes.
FLOOR_GRID_NODES = 6
FLOOR_ROUNDS = 4
FLOOR_QUERIES = 500


def log(message: str) -> None:
    print(f"[service-check] {message}", flush=True)


def fail(message: str) -> "None":
    print(f"[service-check] FAIL: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def spec_payload(n_layers: int, grid_nodes: int = GRID_NODES) -> dict:
    return {
        "arrangement": "regular",
        "n_layers": n_layers,
        "grid_nodes": grid_nodes,
    }


def start_server(work: pathlib.Path) -> subprocess.Popen:
    """Launch ``repro serve`` with local solver workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--bind", "127.0.0.1:0",
            "--cache-dir", str(work / "cache"),
            "--max-queue", "32",
            "--breaker-threshold", "3",
            "--breaker-cooldown", "5",
            # Local solver workers (SIGKILL-able children) + retry.
            "--workers", str(WORKERS),
            "--task-timeout", "120",
            "--max-retries", "2",
        ],
        env=env,
        stdout=(work / "server.log").open("w"),
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
    )
    return process


def wait_for_address(work: pathlib.Path, timeout_s: float = 30.0) -> str:
    discovery = work / "cache" / "service.json"
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if discovery.exists():
            try:
                return json.loads(discovery.read_text())["address"]
            except (json.JSONDecodeError, KeyError):
                pass  # torn read during atomic publish; retry
        time.sleep(0.1)
    fail(f"server never published {discovery}")


def one_query(address: str, spec: dict, activities=None, deadline_s=None):
    from repro.service.client import ServiceClient

    with ServiceClient(address, timeout_s=300.0) as client:
        return client.query(spec, activities=activities, deadline_s=deadline_s)


# ----------------------------------------------------------------------
# Proof 1: mixed burst
# ----------------------------------------------------------------------

def check_mixed_burst(address: str, burst: int) -> None:
    from repro.service.client import ServiceClient

    duplicate = spec_payload(DUPLICATE_LAYERS)
    poisoned_activities = [float("nan")] * DUPLICATE_LAYERS

    jobs = []
    with ThreadPoolExecutor(max_workers=burst + len(NOVEL_LAYERS) + 1) as pool:
        for _ in range(burst):
            jobs.append(("duplicate", pool.submit(one_query, address, duplicate)))
        for n_layers in NOVEL_LAYERS:
            jobs.append(
                ("novel", pool.submit(one_query, address, spec_payload(n_layers)))
            )
        jobs.append(
            (
                "poisoned",
                pool.submit(
                    one_query, address, dict(duplicate), poisoned_activities
                ),
            )
        )
        outcomes = [(label, job.result()) for label, job in jobs]

    duplicates = [r for label, r in outcomes if label == "duplicate"]
    novel = [r for label, r in outcomes if label == "novel"]
    poisoned = next(r for label, r in outcomes if label == "poisoned")

    if not all(r.get("status") == "ok" for r in duplicates):
        fail(f"duplicate queries failed: {duplicates}")
    if len({r["fingerprint"] for r in duplicates}) != 1:
        fail("duplicate queries got different fingerprints")
    shared = sum(
        bool(r.get("cached") or r.get("coalesced")) for r in duplicates
    )
    if shared < burst - 1:
        fail(
            f"expected >= {burst - 1} coalesced/cached duplicates, got {shared}"
        )
    if not all(r.get("status") == "ok" for r in novel):
        fail(f"novel queries failed: {novel}")
    if poisoned.get("status") != "solve-error" or poisoned.get("code") != 500:
        fail(f"poisoned spec should be a typed solve-error, got {poisoned}")
    log(
        f"burst ok: {burst} duplicates -> {shared} shared, "
        f"{len(novel)} novel solved, poisoned -> "
        f"{poisoned['error_type']} (typed 500)"
    )

    # A repeat after the burst must be a disk-cache hit, and the metrics
    # endpoint must agree about the hit/miss accounting.
    repeat = one_query(address, duplicate)
    if not repeat.get("cached"):
        fail(f"post-burst repeat was not a cache hit: {repeat}")
    with ServiceClient(address) as client:
        counters = client.metrics()["counters"]
    cache = counters["cache"]
    # Misses: the duplicate leader + each novel spec + poisoned + the
    # retried repeats of any coalesced-but-late queries (>= 5 for sure).
    expected_misses = 1 + len(NOVEL_LAYERS) + 1
    if cache["hits"] < 1:
        fail(f"metrics report no cache hits after a repeat: {cache}")
    if cache["misses"] < expected_misses:
        fail(f"expected >= {expected_misses} misses, metrics say {cache}")
    if counters["solves"].get("ok", 0) < 1 + len(NOVEL_LAYERS):
        fail(f"solve counter too low: {counters['solves']}")
    if counters["solves"].get("error", 0) < 1:
        fail(f"poisoned solve not counted: {counters['solves']}")
    log(
        f"metrics ok: hits={cache['hits']} misses={cache['misses']} "
        f"solves={counters['solves']}"
    )


# ----------------------------------------------------------------------
# Proof 2: SIGKILL every solver child mid-request
# ----------------------------------------------------------------------

def _child_pids(parent_pid: int) -> list:
    """PIDs whose direct parent is ``parent_pid`` (via /proc)."""
    children = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == parent_pid:
            children.append(int(entry.name))
    return children


def _leased(address: str) -> int:
    """Misses the server's fleet holds out on its workers right now."""
    from repro.service.client import ServiceClient

    with ServiceClient(address) as client:
        return client.metrics()["counters"]["fleet"]["leased"]


def wait_for_workers(server: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """The server must have exactly ``WORKERS`` children, within a while."""
    deadline = time.monotonic() + timeout_s
    while len(_child_pids(server.pid)) != WORKERS:
        if time.monotonic() > deadline:
            fail(
                f"server has {len(_child_pids(server.pid))} child "
                f"process(es), expected {WORKERS}"
            )
        time.sleep(0.1)


def check_worker_kill(address: str, server: subprocess.Popen) -> None:
    from repro.service.client import ServiceClient

    # A heavy novel spec keeps a solver child busy long enough to kill.
    heavy = spec_payload(6, grid_nodes=KILL_GRID_NODES)
    with ThreadPoolExecutor(max_workers=1) as pool:
        inflight = pool.submit(one_query, address, heavy)
        # The workers idle before the request too: wait until one holds
        # the heavy query's lease, then KILL every child of the server.
        killed = []
        deadline = time.monotonic() + 60.0
        while not killed and time.monotonic() < deadline:
            if inflight.done():
                break  # solve finished before its lease was seen
            if _leased(address):
                for pid in _child_pids(server.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                        killed.append(pid)
                    except (ProcessLookupError, PermissionError):
                        continue
            time.sleep(0.02)
        response = inflight.result(timeout=300.0)

    if not killed:
        log(
            "warning: no leased solve observed to kill "
            "(solve finished first); answer path still verified"
        )
    else:
        log(f"SIGKILLed every solver child {killed} mid-request")
    status = response.get("status")
    if not (status == "ok" or response.get("degraded")):
        fail(
            f"query after worker kill was neither answered nor degraded: "
            f"{response}"
        )
    with ServiceClient(address) as client:
        health = client.health()
    if health.get("status") != "ok":
        fail(f"server unhealthy after worker kill: {health}")
    if server.poll() is not None:
        fail("server process died after worker kill")
    wait_for_workers(server)
    log(
        f"worker-kill ok: query answered (status={status}, "
        f"degraded={bool(response.get('degraded'))}), server healthy, "
        f"{WORKERS} workers again"
    )


# ----------------------------------------------------------------------
# Proof 3: clean shutdown drains in-flight work
# ----------------------------------------------------------------------

def check_clean_shutdown(address: str, server: subprocess.Popen) -> None:
    from repro.service.client import ServiceClient

    heavy = spec_payload(7, grid_nodes=KILL_GRID_NODES)
    with ThreadPoolExecutor(max_workers=1) as pool:
        inflight = pool.submit(one_query, address, heavy)
        time.sleep(0.5)  # let it reach a solver child
        with ServiceClient(address) as client:
            ack = client.shutdown(drain=True)
        if ack.get("status") != "draining":
            fail(f"shutdown not acknowledged as draining: {ack}")
        response = inflight.result(timeout=300.0)

    if response.get("status") != "ok":
        fail(f"in-flight query lost during drain shutdown: {response}")
    try:
        code = server.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        server.kill()
        fail("server did not exit after drain shutdown")
    if code != 0:
        fail(f"server exited {code} after drain shutdown")
    log("clean-shutdown ok: in-flight query answered, server exited 0")


# ----------------------------------------------------------------------
# Measurement: hit p50 next to the asyncio echo floor
# ----------------------------------------------------------------------

class _EchoProtocol(asyncio.Protocol):
    """The protocol echo: parse each complete line in the read callback
    and answer it there."""

    def __init__(self, encoded: bytes):
        self._encoded = encoded
        self._buffer = b""

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        *lines, self._buffer = (self._buffer + data).split(b"\n")
        for line in lines:
            json.loads(line)
            self._transport.write(self._encoded)


def _echo_server(response: dict, protocol: bool = False):
    """A newline-JSON echo on its own thread: parse each request line
    and answer ``response``, encoded like the replica's envelopes, over
    asyncio streams or (``protocol``) an ``asyncio.Protocol``.  Returns
    (address, stop)."""
    box = {}
    ready = threading.Event()
    encoded = (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            json.loads(line)
            writer.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            await writer.drain()
        writer.close()

    async def serve():
        if protocol:
            server = await asyncio.get_running_loop().create_server(
                lambda: _EchoProtocol(encoded), "127.0.0.1", 0
            )
        else:
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        box["address"] = f"{host}:{port}"
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        ready.set()
        await box["stop"].wait()
        server.close()
        await server.wait_closed()

    thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
    thread.start()
    ready.wait(timeout=30.0)

    def stop():
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=10.0)

    return box["address"], stop


def _latencies(client, spec, activities, n: int) -> list:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        client.query(spec, activities=activities)
        out.append(time.perf_counter() - t0)
    return out


def measure_hit_floor(work: pathlib.Path) -> dict:
    """Cached-hit p50 vs the echo floor, measured in this process."""
    from repro.runtime import PDNSpec
    from repro.service import ServiceConfig, serve_in_background
    from repro.service.client import ServiceClient

    spec = PDNSpec.stacked(
        4, converters_per_core=2, grid_nodes=FLOOR_GRID_NODES
    )
    activities = [1.0, 0.8, 1.0, 0.8]
    replica = serve_in_background(
        ServiceConfig(
            cache_dir=str(work / "hit-floor-cache"), bench_name=None
        )
    )
    hits, echoes, protocol_echoes = [], [], []
    try:
        with ServiceClient(replica.address, timeout_s=300.0) as client:
            client.query(spec, activities=activities)
            response = client.query(spec, activities=activities)
            if not response.get("cached"):
                fail(f"hit-floor query was not a cache hit: {response}")
            echo_address, stop_echo = _echo_server(response)
            protocol_address, stop_protocol = _echo_server(
                response, protocol=True
            )
            try:
                with ServiceClient(echo_address) as echo, ServiceClient(
                    protocol_address
                ) as protocol_echo:
                    for _ in range(FLOOR_ROUNDS):
                        hits += _latencies(
                            client, spec, activities, FLOOR_QUERIES
                        )
                        echoes += _latencies(
                            echo, spec, activities, FLOOR_QUERIES
                        )
                        protocol_echoes += _latencies(
                            protocol_echo, spec, activities, FLOOR_QUERIES
                        )
            finally:
                stop_echo()
                stop_protocol()
    finally:
        replica.stop()
    hit_ms = statistics.median(hits) * 1e3
    echo_ms = statistics.median(echoes) * 1e3
    protocol_ms = statistics.median(protocol_echoes) * 1e3
    record = {
        "hit_p50_ms": round(hit_ms, 4),
        "echo_p50_ms": round(echo_ms, 4),
        "protocol_echo_p50_ms": round(protocol_ms, 4),
        "ratio": round(hit_ms / echo_ms, 3),
        "protocol_ratio": round(hit_ms / protocol_ms, 3),
        "samples": len(hits),
        "response_bytes": len(json.dumps(response, sort_keys=True)) + 1,
    }
    (work / "hit-latency.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    log(
        f"hit p50 {hit_ms:.3f} ms vs echo floors: streams {echo_ms:.3f} ms "
        f"(x{record['ratio']:.2f}), protocol {protocol_ms:.3f} ms "
        f"(x{record['protocol_ratio']:.2f}); {len(hits)} samples each, "
        "not a gate"
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "work_dir", nargs="?", default=None,
        help="working directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--burst", type=int, default=BURST_DUPLICATES,
        help=f"duplicate queries in the burst (default {BURST_DUPLICATES})",
    )
    args = parser.parse_args(argv)

    work = pathlib.Path(
        args.work_dir or tempfile.mkdtemp(prefix="service-check-")
    )
    work.mkdir(parents=True, exist_ok=True)
    log(f"work dir: {work}")

    server = start_server(work)
    try:
        address = wait_for_address(work)
        log(f"server up at {address} (pid {server.pid})")
        wait_for_workers(server)
        check_mixed_burst(address, args.burst)
        check_worker_kill(address, server)
        check_clean_shutdown(address, server)
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
    bench = work / "cache" / "BENCH_service.json"
    if not bench.exists():
        fail("server did not write BENCH_service.json at shutdown")
    payload = json.loads(bench.read_text())
    log(
        f"BENCH ok (schema {payload['schema']}): "
        f"{payload['service']['requests'].get('query', 0)} queries served"
    )
    log("all service proofs hold")
    measure_hit_floor(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
