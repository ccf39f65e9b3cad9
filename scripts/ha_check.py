#!/usr/bin/env python
"""High-availability proof for the replicated exploration service.

Boots TWO real ``repro serve`` replica processes onto one shared cache
directory — replica A with a small fleet (one attached ``repro worker``
solving its misses), replica B plain — and drives the failure modes the
HA tier claims to survive:

1. **Kill mid-burst** — a query burst runs against the replicated
   service (addresses discovered from the shared ``service.json``);
   replica A is SIGKILLed partway through.  Every query must still be
   answered (clients fail over to replica B), and the shared cache must
   hold **zero torn entries** afterwards (``repro cache verify`` and an
   in-process sweep both agree).
2. **Bit identity** — every burst answer is re-derived with a direct
   in-process :class:`~repro.runtime.SweepEngine` run and compared
   field-by-field to 1e-12: replication, failover, fleet fan-out and
   the cache must never change the numbers.
3. **Epoch bump** — a third replica starts under a different code
   epoch (``REPRO_EPOCH`` override); a previously-cached query must
   re-solve (fresh answer, not served from the old generation), with
   the old entries reachable only through the degraded stale path.
4. **Torn entry** — one cache entry is answered from the cache (so the
   surviving replica holds its verified record in memory), then
   truncated on disk by this process; the next query of it must be
   re-solved and the corruption *counted* in the service metrics
   (``cache.corrupt``), never served from the kept copy.

Exit status 0 = all proofs hold.

Usage::

    python scripts/ha_check.py [work_dir] [--grid N]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GRID_NODES = 12
BURST_LAYERS = (2, 3, 4, 5)
KILL_AFTER = 2  # queries answered before replica A is SIGKILLed
BUMPED_EPOCH = "ha-check-epoch-2"
TOLERANCE = 1e-12


def log(message: str) -> None:
    print(f"[ha-check] {message}", flush=True)


def fail(message: str) -> None:
    print(f"[ha-check] FAIL: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def _env(epoch: str = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if epoch:
        env["REPRO_EPOCH"] = epoch
    return env


def start_replica(
    work: pathlib.Path,
    name: str,
    fleet: bool = False,
    epoch: str = None,
) -> subprocess.Popen:
    command = [
        sys.executable, "-m", "repro", "serve",
        "--bind", "127.0.0.1:0",
        "--cache-dir", str(work / "cache"),
        "--max-queue", "32",
    ]
    if fleet:
        command += ["--fleet", "127.0.0.1:0", "--fleet-wait", "5"]
    return subprocess.Popen(
        command,
        env=_env(epoch),
        stdout=(work / f"{name}.log").open("w"),
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
    )


def start_worker(work: pathlib.Path, fleet_address: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            fleet_address,
            "--worker-id", "ha-check-w1",
            "--patience", "10",
        ],
        env=_env(),
        stdout=(work / "worker.log").open("w"),
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
    )


def wait_for_replicas(
    work: pathlib.Path, pids: list, timeout_s: float = 60.0
) -> list:
    """Block until every pid in ``pids`` is registered; returns replicas."""
    from repro.service.replica import live_replicas

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        replicas = live_replicas(work / "cache")
        if set(pids) <= {r.get("pid") for r in replicas}:
            return replicas
        time.sleep(0.1)
    fail(f"replicas {pids} never all registered in service.json")


def spec_payload(n_layers: int, grid_nodes: int = GRID_NODES) -> dict:
    return {
        "arrangement": "regular",
        "n_layers": n_layers,
        "grid_nodes": grid_nodes,
    }


# ----------------------------------------------------------------------
# Proof 1 + 2: kill a replica mid-burst; answers survive, bit-identical
# ----------------------------------------------------------------------

def check_kill_burst(work: pathlib.Path, replica_a: subprocess.Popen) -> dict:
    from repro.service.client import robust_query

    answers = {}
    for index, n_layers in enumerate(BURST_LAYERS):
        response = robust_query(
            spec_payload(n_layers),
            cache_dir=work / "cache",
            deadline_s=300.0,
            client_timeout_s=120.0,
            retries=2,
        )
        if response.get("status") != "ok":
            fail(f"burst query ({n_layers} layers) not answered: {response}")
        answers[n_layers] = response
        if index + 1 == KILL_AFTER:
            os.kill(replica_a.pid, signal.SIGKILL)
            replica_a.wait(timeout=10.0)
            log(f"SIGKILLed replica A (pid {replica_a.pid}) mid-burst")
    log(f"burst ok: {len(answers)}/{len(BURST_LAYERS)} queries answered "
        "across the kill")
    return answers


def check_bit_identity(answers: dict) -> None:
    from repro.runtime import SweepEngine, SweepPoint
    from repro.runtime.spec import PDNSpec
    from repro.service import extract_summary

    engine = SweepEngine()
    for n_layers, response in sorted(answers.items()):
        spec = PDNSpec.regular(n_layers, grid_nodes=GRID_NODES)
        direct = engine.run(
            [SweepPoint(spec=spec)], extract=extract_summary
        ).values[0]
        served = response["result"]
        if set(served) != set(direct):
            fail(
                f"{n_layers}-layer answer keys drifted: "
                f"{sorted(served)} vs {sorted(direct)}"
            )
        for key, expected in direct.items():
            got = served[key]
            if isinstance(expected, float):
                if abs(got - expected) > TOLERANCE:
                    fail(
                        f"{n_layers}-layer {key} drifted: served {got!r} "
                        f"vs direct {expected!r} (> {TOLERANCE})"
                    )
            elif got != expected:
                fail(f"{n_layers}-layer {key}: {got!r} != {expected!r}")
    log(f"bit-identity ok: {len(answers)} answers match direct "
        f"SweepEngine runs to {TOLERANCE}")


def check_cache_integrity(work: pathlib.Path) -> None:
    from repro.service.cache import ResultCache

    # The CLI path first (what an operator runs), then the same sweep
    # in-process so the numbers are assertable.
    code = subprocess.run(
        [
            sys.executable, "-m", "repro", "cache", "verify",
            "--cache-dir", str(work / "cache"),
        ],
        env=_env(),
        cwd=str(REPO_ROOT),
    ).returncode
    if code != 0:
        fail(f"'repro cache verify' exited {code}")
    report = ResultCache(work / "cache").open().verify()
    if report["evicted"] != 0:
        fail(f"torn cache entries after the kill: {report}")
    if report["ok"] != report["checked"] or report["checked"] == 0:
        fail(f"cache verify mismatch: {report}")
    log(
        f"cache integrity ok: {report['ok']}/{report['checked']} entries "
        f"clean, zero torn (epochs: {report['by_epoch']})"
    )


# ----------------------------------------------------------------------
# Proof 3: an epoch bump forces a re-solve
# ----------------------------------------------------------------------

def check_epoch_bump(
    work: pathlib.Path, replica_b: subprocess.Popen
) -> subprocess.Popen:
    from repro.service.client import robust_query

    # Rolling upgrade: retire the old-epoch replica, then start one
    # under a bumped epoch.  (While B lived it could legitimately keep
    # serving its own generation's entries as fresh.)
    replica_b.terminate()
    replica_b.wait(timeout=10.0)
    replica_c = start_replica(work, "replica-c", epoch=BUMPED_EPOCH)
    wait_for_replicas(work, [replica_c.pid])
    response = robust_query(
        spec_payload(BURST_LAYERS[0]),
        cache_dir=work / "cache",
        deadline_s=300.0,
        client_timeout_s=120.0,
    )
    if response.get("status") != "ok":
        fail(f"post-bump query not answered: {response}")
    if response.get("cached"):
        fail(
            "epoch bump did not force a re-solve: the old generation's "
            f"entry was served fresh: {response}"
        )
    log("epoch bump ok: cached query re-solved under the new epoch")
    return replica_c


# ----------------------------------------------------------------------
# Proof 4: a truncated entry is evicted and counted, never served
# ----------------------------------------------------------------------

def check_torn_entry(work: pathlib.Path) -> None:
    from repro.service.client import ServiceClient, robust_query

    fingerprint = None
    probe = robust_query(
        spec_payload(BURST_LAYERS[1]),
        cache_dir=work / "cache",
        deadline_s=300.0,
        client_timeout_s=120.0,
    )
    fingerprint = probe.get("fingerprint")
    # A cache hit first: the replica now serves this entry from the
    # record it verified, so the truncation below is a cross-process
    # change it must notice on its own.
    hit = robust_query(
        spec_payload(BURST_LAYERS[1]),
        cache_dir=work / "cache",
        deadline_s=300.0,
        client_timeout_s=120.0,
    )
    if hit.get("status") != "ok" or not hit.get("cached"):
        fail(f"repeat query was not a cache hit: {hit}")
    path = work / "cache" / f"result-{fingerprint}.json"
    if not path.exists():
        fail(f"no cache entry at {path} to truncate")
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    response = robust_query(
        spec_payload(BURST_LAYERS[1]),
        cache_dir=work / "cache",
        deadline_s=300.0,
        client_timeout_s=120.0,
    )
    if response.get("status") != "ok" or response.get("cached"):
        fail(f"torn entry was not transparently re-solved: {response}")
    from repro.service.replica import live_replicas

    address = live_replicas(work / "cache")[0]["address"]
    with ServiceClient(address) as client:
        corrupt = client.metrics()["counters"]["cache"]["corrupt"]
    if corrupt < 1:
        fail(f"torn entry was not counted as corrupt: {corrupt}")
    log(f"torn-entry ok: re-solved and counted (corrupt={corrupt})")


def main(argv=None) -> int:
    global GRID_NODES
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "work_dir", nargs="?", default=None,
        help="working directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--grid", type=int, default=GRID_NODES,
        help=f"query grid resolution (default {GRID_NODES})",
    )
    args = parser.parse_args(argv)
    GRID_NODES = args.grid

    work = pathlib.Path(args.work_dir or tempfile.mkdtemp(prefix="ha-check-"))
    work.mkdir(parents=True, exist_ok=True)
    log(f"work dir: {work}")

    replica_a = start_replica(work, "replica-a", fleet=True)
    replica_b = start_replica(work, "replica-b")
    worker = None
    replica_c = None
    try:
        replicas = wait_for_replicas(work, [replica_a.pid, replica_b.pid])
        log(f"{len(replicas)} replicas registered: "
            + ", ".join(f"{r['id']}@{r['address']}" for r in replicas))
        fleet_address = next(
            (r.get("fleet") for r in replicas if r.get("fleet")), None
        )
        if fleet_address is None:
            fail("replica A did not publish its fleet address")
        worker = start_worker(work, fleet_address)
        log(f"fleet worker attached to {fleet_address}")

        answers = check_kill_burst(work, replica_a)
        check_bit_identity(answers)
        check_cache_integrity(work)
        replica_c = check_epoch_bump(work, replica_b)
        check_torn_entry(work)
    finally:
        for process in (worker, replica_a, replica_b, replica_c):
            if process is not None and process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    process.kill()
    log("all HA proofs hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
