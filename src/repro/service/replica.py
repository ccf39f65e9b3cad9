"""Multi-replica coordination over one shared cache directory.

Several ``repro serve`` processes can point at the same ``--cache-dir``
and behave as one highly-available service.  Two mechanisms, both built
on POSIX advisory ``flock`` (and therefore **crash-safe by
construction**: the kernel releases a process's locks the instant it
dies, SIGKILL included — a replica dying mid-solve can never leave a
fingerprint locked):

**Flight claims** (:class:`ReplicaFlights`) extend single-flight
coalescing *across replicas*.  Before solving a miss, a replica tries to
claim ``flights/flight-<fp>.lock``; the winner solves and writes the
cache entry, losers poll the shared cache for the winner's answer under
their own deadlines, re-attempting the claim so a crashed winner's
followers promote themselves instead of waiting forever.  N replicas
seeing the same miss still produce one solve.

**Replica registry** (:func:`register_replica` and friends) generalises
the ``service.json`` discovery file to a list: every replica merges
itself in under an exclusive registry lock (read-modify-write races
between replicas would otherwise lose registrations), prunes entries
whose pid is dead, and removes itself on clean shutdown.  Clients
(:func:`repro.service.client.robust_query`) try the addresses in order
— registration order is start order, so the longest-lived replica is
preferred — and a SIGKILLed replica's leftover entry is skipped by
liveness probing, never trusted.

The top-level ``address``/``pid`` fields are kept pointing at the first
live replica so pre-HA readers of ``service.json`` keep working.

On platforms without ``fcntl`` every claim trivially succeeds — the
degradation is "replicas may duplicate a solve", never a wrong answer
(cache writes are atomic and idempotent by fingerprint).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple, Union

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.obs.logs import get_logger
from repro.runtime.journal import atomic_write_text

__all__ = [
    "SERVICE_FILE",
    "FLIGHTS_DIR",
    "FlightClaim",
    "ReplicaFlights",
    "register_replica",
    "deregister_replica",
    "load_discovery",
    "live_replicas",
]

_log = get_logger(__name__)

#: Discovery file written into the cache directory (like fleet.json):
#: names the bound address(es) so ``repro query`` finds port-0 servers.
SERVICE_FILE = "service.json"

#: Subdirectory of the cache dir holding per-fingerprint flight locks.
FLIGHTS_DIR = "flights"

_REGISTRY_LOCK = "service.lock"


def _pid_alive(pid: Optional[int]) -> bool:
    """Best-effort liveness: signal 0 probes without touching the pid."""
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError):
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


# ----------------------------------------------------------------------
# Cross-replica flight claims
# ----------------------------------------------------------------------

class FlightClaim:
    """Exclusive right to solve one fingerprint, held via ``flock``.

    Released explicitly on completion (:meth:`release`) or implicitly —
    and instantly — by the kernel when the holding process dies.
    """

    def __init__(self, fingerprint: str, path: pathlib.Path, fd: int):
        self.fingerprint = fingerprint
        self.path = path
        self._fd = fd
        self._released = False

    def release(self) -> None:
        """Unlink the lock file, then drop the flock (close the fd)."""
        if self._released:
            return
        self._released = True
        try:
            self.path.unlink()
        except OSError:
            pass
        if self._fd >= 0:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "FlightClaim":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ReplicaFlights:
    """Per-fingerprint claim table shared by every replica on a cache.

    Claims live as ``flights/flight-<fp>.lock`` files; holding the
    ``flock`` *is* the claim (the file's existence is not — leftover
    unlocked files from a crashed replica are claimable and swept).
    """

    def __init__(self, directory: Union[str, pathlib.Path]):
        self.directory = pathlib.Path(directory) / FLIGHTS_DIR
        #: Claims granted (this replica led the flight).
        self.claims = 0
        #: Claim attempts refused (a peer replica holds the flight).
        self.busy = 0

    def open(self) -> "ReplicaFlights":
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sweep()
        return self

    def _path(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"flight-{fingerprint}.lock"

    def try_claim(self, fingerprint: str) -> Optional[FlightClaim]:
        """Claim one fingerprint; None when a live peer already has it.

        Crash-safety subtlety: a finished holder unlinks its lock file
        before closing the fd, so after winning the flock we re-check
        that the path still names the inode we locked — otherwise we
        hold a lock on a deleted file while a third replica owns the
        fresh one, and we must retry.

        The lock file stays empty: the flock is the whole claim, and a
        file holding data costs a block free when its release unlinks
        it (0.1-0.3 ms per miss on ext4).
        """
        path = self._path(fingerprint)
        if fcntl is None:  # pragma: no cover - non-POSIX degradation
            self.claims += 1
            return FlightClaim(fingerprint, path, -1)
        for _ in range(5):
            try:
                fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
            except OSError:
                return None
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                self.busy += 1
                return None
            try:
                if os.fstat(fd).st_ino == os.stat(path).st_ino:
                    self.claims += 1
                    return FlightClaim(fingerprint, path, fd)
            except OSError:
                pass  # path vanished between lock and stat: retry
            os.close(fd)
        return None

    def sweep(self) -> int:
        """Remove unheld leftover lock files (crashed replicas' litter).

        A file whose flock is free has no live holder; claiming and
        releasing it unlinks it.  Held files are left alone.
        """
        removed = 0
        for path in sorted(self.directory.glob("flight-*.lock")):
            fingerprint = path.name[len("flight-"):-len(".lock")]
            claim = self.try_claim(fingerprint)
            if claim is not None:
                claim.release()
                removed += 1
        # The sweep's own claims are bookkeeping noise, not flights.
        self.claims = 0
        self.busy = 0
        if removed:
            _log.info(
                "swept stale flight locks",
                extra={"directory": str(self.directory), "removed": removed},
            )
        return removed

    def counters(self) -> Dict[str, int]:
        return {"claims": self.claims, "busy": self.busy}


# ----------------------------------------------------------------------
# Replica registry (service.json)
# ----------------------------------------------------------------------

@contextmanager
def _registry_lock(directory: pathlib.Path):
    """Serialize service.json read-modify-write across replicas."""
    if fcntl is None:  # pragma: no cover - non-POSIX degradation
        yield
        return
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory / _REGISTRY_LOCK, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # drops the flock


def load_discovery(
    directory: Union[str, pathlib.Path]
) -> Tuple[pathlib.Path, Optional[Dict[str, Any]]]:
    """Read ``service.json`` raw; (path, None) when absent/unparsable."""
    path = pathlib.Path(directory) / SERVICE_FILE
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return path, None
    if not isinstance(record, dict):
        return path, None
    return path, record


def _replica_list(record: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The replicas of a discovery record (legacy single-entry upgraded)."""
    if not record:
        return []
    replicas = record.get("replicas")
    if isinstance(replicas, list):
        return [r for r in replicas if isinstance(r, dict)]
    if record.get("address"):  # pre-HA single-server layout
        return [
            {
                "id": f"legacy-{record.get('pid', 0)}",
                "address": record["address"],
                "pid": record.get("pid"),
            }
        ]
    return []


def _write_registry(
    directory: pathlib.Path,
    replicas: List[Dict[str, Any]],
    protocol: Optional[int],
) -> None:
    head = replicas[0] if replicas else {}
    record: Dict[str, Any] = {
        # Back-compat head fields: the first live replica.
        "address": head.get("address"),
        "pid": head.get("pid"),
        "epoch": head.get("epoch"),
        "replicas": replicas,
    }
    if protocol is not None:
        record["protocol"] = protocol
    path = directory / SERVICE_FILE
    if not replicas:
        try:
            path.unlink()
        except OSError:
            pass
        return
    atomic_write_text(
        path,
        json.dumps(record, sort_keys=True) + "\n",
        durable=False,
        tmp_token=str(os.getpid()),
    )


def register_replica(
    directory: Union[str, pathlib.Path],
    replica_id: str,
    address: str,
    epoch: Optional[str] = None,
    fleet: Optional[str] = None,
    protocol: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Merge this replica into the shared discovery file.

    Dead peers (pid no longer alive) are pruned on the way — a crashed
    replica's entry disappears the next time any replica registers.
    Returns the resulting replica list.
    """
    directory = pathlib.Path(directory)
    entry: Dict[str, Any] = {
        "id": replica_id,
        "address": address,
        "pid": os.getpid(),
        "epoch": epoch,
        "started": time.time(),
    }
    if fleet:
        entry["fleet"] = fleet
    with _registry_lock(directory):
        _, record = load_discovery(directory)
        replicas = [
            r
            for r in _replica_list(record)
            if r.get("id") != replica_id and _pid_alive(r.get("pid"))
        ]
        replicas.append(entry)
        _write_registry(directory, replicas, protocol)
    _log.info(
        "replica registered",
        extra={
            "replica": replica_id,
            "address": address,
            "peers": len(replicas) - 1,
        },
    )
    return replicas


def deregister_replica(
    directory: Union[str, pathlib.Path], replica_id: str
) -> None:
    """Remove this replica on clean shutdown (prunes dead peers too).

    The file itself is removed when the last replica leaves — a clean
    full shutdown leaves no stale discovery behind.
    """
    directory = pathlib.Path(directory)
    with _registry_lock(directory):
        path, record = load_discovery(directory)
        if record is None:
            return
        protocol = record.get("protocol")
        replicas = [
            r
            for r in _replica_list(record)
            if r.get("id") != replica_id and _pid_alive(r.get("pid"))
        ]
        _write_registry(directory, replicas, protocol)


def live_replicas(
    directory: Union[str, pathlib.Path]
) -> List[Dict[str, Any]]:
    """The discovery file's replicas whose pids are alive, in order.

    Read-only (no lock, no rewrite): callers probing for an address must
    still expect a listed replica to be unreachable — pid liveness is a
    cheap local filter, not a health check across hosts.
    """
    _, record = load_discovery(directory)
    return [r for r in _replica_list(record) if _pid_alive(r.get("pid"))]
