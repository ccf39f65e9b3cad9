"""Distributed sweep fleet: a socket coordinator and its workers.

The fleet shards the *same* content-fingerprinted topology tasks the
:class:`repro.runtime.supervisor.RunSupervisor` journals across worker
processes — on this host or any other — over a deliberately small
newline-delimited-JSON TCP protocol:

==============  =====================================================
worker sends    coordinator replies
==============  =====================================================
``hello``       ``welcome`` (run fingerprint, heartbeat period)
``request``     ``lease`` (a task), ``idle`` (retry later), or
                ``done`` (run over / worker quarantined — exit)
``result``      *nothing* (fire-and-forget)
``failure``     *nothing*
``heartbeat``   *nothing*
``goodbye``     *nothing* (clean-shutdown marker)
==============  =====================================================

Only ``hello`` and ``request`` have replies; everything else is
fire-and-forget.  That asymmetry is what makes the fleet *at-least-once*
by construction: a dropped ``result`` simply lets the lease expire and
the task is re-leased, a duplicated (or late, post-expiry) ``result`` is
swallowed by the supervisor's fingerprint-keyed idempotent commit, and
the write-ahead journal records each task exactly once.  Delivery
faults therefore cost wall time, never correctness — the chaos harness
(:mod:`repro.runtime.chaos`, ``scripts/chaos_fleet_check.py``) asserts
results stay bit-identical to a serial run under SIGKILL, freezes and
message loss.

The coordinator embeds in the supervisor's run (``--fleet HOST:PORT``):
:func:`execute_fleet` leases tasks while workers are attached and
returns whatever it could not finish, so the supervisor's in-process
paths (and thus every CLI subcommand) degrade transparently when no
worker ever connects, every worker dies, or the transport cannot even
bind.  Failure accounting flows into the *same* retry/backoff/
quarantine core as local execution — a worker death or an expired lease
charges the task one attempt, exactly like a crashed pool worker.

See docs/DISTRIBUTED.md for the lease lifecycle and failure matrix.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    FleetTransportError,
    ReproError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.obs.logs import get_logger
from repro.obs.trace import activate_worker_context, get_tracer
from repro.runtime.chaos import ChaosMonkey, ChaosPlan
from repro.runtime.engine import SweepPoint, _run_group_remote
from repro.runtime.journal import (
    atomic_write_text,
    decode_payload,
    encode_payload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.runtime.supervisor import RunSupervisor, _RunState, _Task

__all__ = [
    "PROTOCOL_VERSION",
    "FleetCoordinator",
    "ServiceFleet",
    "execute_fleet",
    "parse_address",
    "run_worker",
]

_log = get_logger(__name__)

#: Bumped on any wire-format change; hello/welcome carry it and a
#: mismatched worker is refused instead of mis-parsed.
#: v2 appended the coordinator's solver-backend name to the lease
#: payload tuple, so workers factorise with the coordinator's choice.
PROTOCOL_VERSION = 2

#: Name of the discovery file a coordinator writes into its run dir.
FLEET_FILE = "fleet.json"


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------

def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (or bare ``"port"``, meaning loopback)."""
    text = (address or "").strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    elif not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except (TypeError, ValueError):
        raise FleetTransportError(
            f"--fleet expects HOST:PORT, got {address!r}", address=address
        ) from None
    if not 0 <= port <= 65535:
        raise FleetTransportError(
            f"--fleet port must be 0..65535, got {port}", address=address
        )
    return host, port


def _send(
    sock: socket.socket,
    message: Dict[str, Any],
    lock: Optional[threading.Lock] = None,
    copies: int = 1,
) -> None:
    """Ship ``copies`` framed copies of one message (0 = chaos drop)."""
    if copies <= 0:
        return
    data = (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")
    if lock is None:
        for _ in range(copies):
            sock.sendall(data)
        return
    with lock:
        for _ in range(copies):
            sock.sendall(data)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

@dataclass
class _WorkerInfo:
    """Registry entry for one connected (or once-connected) worker."""

    id: str
    address: str
    conn: socket.socket
    last_seen: float
    #: active | quarantined | dead | gone (clean goodbye)
    status: str = "active"
    tasks_done: int = 0
    failures: int = 0

    def leasable(self) -> bool:
        return self.status == "active"

    def accounting(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "address": self.address,
            "tasks_done": self.tasks_done,
            "failures": self.failures,
            "shutdown": {
                "gone": "clean",
                "dead": "died",
                "quarantined": "quarantined",
            }.get(self.status, "attached"),
        }


@dataclass
class _Lease:
    """One task currently out on a worker, with its reassignment deadline."""

    task: "_Task"
    worker_id: str
    deadline: float


class FleetCoordinator:
    """Leases a supervised run's tasks to ``repro worker`` processes.

    All protocol handling runs in per-connection threads; every piece of
    shared state (lease table, worker registry, the supervisor's run
    state and journal) is mutated under one re-entrant lock.  Exceptions
    escaping the commit/retry core in a handler thread — ``fail_fast``
    aborts, journal I/O errors — are stashed and re-raised from
    :meth:`poll` on the supervisor's own thread.
    """

    def __init__(
        self,
        supervisor: "RunSupervisor",
        tasks: List["_Task"],
        state: "_RunState",
    ):
        self.supervisor = supervisor
        self.state = state
        self.config = supervisor.config
        self._tasks: Dict[str, "_Task"] = {t.fingerprint: t for t in tasks}
        self._order = [t.fingerprint for t in tasks]
        self._queue: List["_Task"] = list(tasks)
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, _WorkerInfo] = {}
        #: Fingerprints whose previous lease expired or whose holder
        #: died; their next grant counts as a reassignment.
        self._lost: set = set()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._ever_connected = False
        self._last_activity = time.monotonic()
        self._trace_ctx = get_tracer().worker_context()
        self._run_fp = state.metrics.run_fingerprint

    # ------------------------------------------------------------------
    # Transport lifecycle
    # ------------------------------------------------------------------
    def start(self) -> str:
        """Bind, listen and start accepting; returns ``host:port`` bound."""
        host, port = parse_address(self.config.fleet or "")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
            server.listen(16)
        except OSError as exc:
            server.close()
            raise FleetTransportError(
                f"cannot bind fleet coordinator on {host}:{port}: {exc}",
                address=f"{host}:{port}",
            ) from None
        server.settimeout(0.25)
        self._server = server
        bound = f"{server.getsockname()[0]}:{server.getsockname()[1]}"
        self._last_activity = time.monotonic()
        accept = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        _log.info(
            "fleet coordinator listening",
            extra={"address": bound, "run_fingerprint": self._run_fp},
        )
        return bound

    def write_discovery(self, bound: str) -> None:
        """Drop ``fleet.json`` into the run dir so workers find the port."""
        if self.config.run_dir is None:
            return
        path = os.path.join(self.config.run_dir, FLEET_FILE)
        atomic_write_text(
            path,
            json.dumps(
                {
                    "address": bound,
                    "run_fingerprint": self._run_fp,
                    "protocol": PROTOCOL_VERSION,
                },
                sort_keys=True,
            )
            + "\n",
            durable=False,
        )

    def close(self) -> None:
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                name=f"fleet-conn-{peer[1]}",
                daemon=True,
            )
            handler.start()
            self._threads.append(handler)

    def _serve_connection(self, conn: socket.socket, peer: str) -> None:
        worker: Optional[_WorkerInfo] = None
        reader = conn.makefile("r", encoding="utf-8")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    _log.warning(
                        "fleet: unparsable message, closing connection",
                        extra={"peer": peer},
                    )
                    break
                try:
                    worker, keep = self._dispatch(conn, peer, worker, message)
                except OSError:
                    # Reply could not be sent: the worker is dying, not
                    # the run.  Drop the connection; the finally-block
                    # death handling requeues any leases it held.
                    break
                except Exception as exc:
                    # fail-fast aborts and commit-core errors land here;
                    # surface them on the supervisor's thread via poll().
                    with self._lock:
                        if self._error is None:
                            self._error = exc
                    self._stop.set()
                    break
                if not keep:
                    break
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:
                pass
            if worker is not None:
                with self._lock:
                    if worker.status == "active" and not self._stop.is_set():
                        self._declare_dead(worker, "connection lost")

    def _dispatch(
        self,
        conn: socket.socket,
        peer: str,
        worker: Optional[_WorkerInfo],
        message: Dict[str, Any],
    ) -> Tuple[Optional[_WorkerInfo], bool]:
        """Handle one message; returns (worker, keep_connection)."""
        kind = message.get("kind")
        with self._lock:
            self._last_activity = time.monotonic()
            if kind == "hello":
                if message.get("protocol") != PROTOCOL_VERSION:
                    _send(conn, {
                        "kind": "refused",
                        "reason": (
                            f"protocol {message.get('protocol')!r} != "
                            f"{PROTOCOL_VERSION}"
                        ),
                    })
                    return None, False
                worker_id = str(message.get("worker") or peer)
                existing = self._workers.get(worker_id)
                if existing is not None:
                    # A reconnecting worker keeps its accounting (and a
                    # quarantined one stays quarantined).
                    existing.conn = conn
                    existing.address = peer
                    existing.last_seen = time.monotonic()
                    if existing.status in ("dead", "gone"):
                        existing.status = "active"
                    worker = existing
                else:
                    worker = _WorkerInfo(
                        id=worker_id,
                        address=peer,
                        conn=conn,
                        last_seen=time.monotonic(),
                    )
                    self._workers[worker_id] = worker
                self._ever_connected = True
                _send(conn, {
                    "kind": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "run_fingerprint": self._run_fp,
                    "heartbeat_s": self.config.heartbeat_s,
                })
                _log.info(
                    "fleet: worker joined",
                    extra={"worker": worker_id, "peer": peer},
                )
                return worker, True
            if worker is None:
                # Anything before hello is a protocol violation.
                return None, False
            worker.last_seen = time.monotonic()
            if kind == "heartbeat":
                return worker, True
            if kind == "request":
                reply = self._grant(worker)
                if reply.get("kind") == "done" and worker.status == "active":
                    # The closing handshake is ours, not a death: mark
                    # the worker released before the connection drops.
                    worker.status = "gone"
                _send(conn, reply)
                return worker, reply.get("kind") != "done"
            if kind == "result":
                self._on_result(worker, message)
                return worker, True
            if kind == "failure":
                self._on_failure(worker, message)
                return worker, True
            if kind == "goodbye":
                worker.status = "gone"
                self._release_worker_leases(worker, "worker shut down")
                _log.info(
                    "fleet: worker left cleanly", extra={"worker": worker.id}
                )
                return worker, False
        return worker, True

    # ------------------------------------------------------------------
    # Lease management (all callers hold the lock)
    # ------------------------------------------------------------------
    def _drain_retries(self) -> None:
        """Pull backoff-stamped retries the shared core queued for us."""
        while self.state.queue:
            task = self.state.queue.pop(0)
            if task.fingerprint in self._tasks:
                self._queue.append(task)

    def _grant(self, worker: _WorkerInfo) -> Dict[str, Any]:
        if self._stop.is_set() or self._error is not None:
            return {"kind": "done"}
        if not worker.leasable():
            return {"kind": "done"}
        self._drain_retries()
        now = time.monotonic()
        self._queue = [
            t for t in self._queue if not self.state.committed(t)
        ]
        ready = [t for t in self._queue if t.ready_at <= now]
        if not ready:
            if not self._queue and not self._leases and self._complete():
                return {"kind": "done"}
            wait = 0.25
            if self._queue:
                wait = max(
                    0.05, min(t.ready_at for t in self._queue) - now
                )
            return {"kind": "idle", "wait_s": round(min(wait, 1.0), 3)}
        task = ready[0]
        self._queue.remove(task)
        if task.fingerprint in self._lost:
            self._lost.discard(task.fingerprint)
            self.state.metrics.reassignments += 1
        task.attempts += 1
        task.started_at = now
        self.state.record(task).status = "running"
        self._leases[task.fingerprint] = _Lease(
            task=task,
            worker_id=worker.id,
            deadline=now + self.config.lease_timeout_s,
        )
        plan = task.members[0][1].fault_plan
        payload = encode_payload((
            task.key[0],
            plan,
            tuple(point for _, point in task.members),
            task.key[2],
            self.state.extract,
            task.label,
            self._trace_ctx,
            task.key[3] if len(task.key) > 3 else None,
        ))
        _log.info(
            "fleet: leased task",
            extra={
                "task": task.fingerprint,
                "key": task.label,
                "worker": worker.id,
                "attempt": task.attempts,
            },
        )
        return {
            "kind": "lease",
            "task": task.fingerprint,
            "label": task.label,
            "attempt": task.attempts,
            "lease_timeout_s": self.config.lease_timeout_s,
            "payload": payload,
        }

    def _on_result(self, worker: _WorkerInfo, message: Dict[str, Any]) -> None:
        fingerprint = str(message.get("task"))
        task = self._tasks.get(fingerprint)
        if task is None:
            return
        lease = self._leases.get(fingerprint)
        if lease is not None and lease.worker_id == worker.id:
            del self._leases[fingerprint]
        if self.state.committed(task):
            # Duplicate delivery (chaos dup, or a thawed worker racing
            # its replacement): the first commit won, drop this one.
            _log.info(
                "fleet: dropped duplicate result",
                extra={"task": fingerprint, "worker": worker.id},
            )
            return
        task.wall_s += float(message.get("wall_s", 0.0) or 0.0)
        try:
            values, group_metrics, spans = decode_payload(
                message.get("payload") or ""
            )
        except Exception as exc:
            task.last_error = WorkerLostError(
                f"worker {worker.id} returned an unreadable payload for "
                f"task {task.label}: {exc}",
                worker=worker.id,
                task=fingerprint,
            )
            worker.failures += 1
            self._maybe_quarantine_worker(worker)
            self.supervisor._handle_failure(task, self.state)
            return
        group_metrics.executed = "fleet"
        get_tracer().adopt(spans)
        if self.supervisor._commit(task, values, group_metrics, self.state):
            worker.tasks_done += 1
            if self.state.metrics.mode == "serial":
                self.state.metrics.mode = "fleet"

    def _on_failure(self, worker: _WorkerInfo, message: Dict[str, Any]) -> None:
        fingerprint = str(message.get("task"))
        task = self._tasks.get(fingerprint)
        if task is None:
            return
        lease = self._leases.get(fingerprint)
        if lease is not None and lease.worker_id == worker.id:
            del self._leases[fingerprint]
        if self.state.committed(task):
            return
        task.wall_s += float(message.get("wall_s", 0.0) or 0.0)
        task.last_error = ReproError(
            f"{message.get('error_type', 'Error')}: "
            f"{message.get('error', 'worker-side failure')}"
        )
        worker.failures += 1
        self._maybe_quarantine_worker(worker)
        self.supervisor._handle_failure(task, self.state)

    def _maybe_quarantine_worker(self, worker: _WorkerInfo) -> None:
        if (
            worker.status == "active"
            and worker.failures >= self.config.worker_max_failures
        ):
            worker.status = "quarantined"
            _log.warning(
                "fleet: worker quarantined",
                extra={"worker": worker.id, "failures": worker.failures},
            )

    def _release_worker_leases(
        self, worker: _WorkerInfo, reason: str, charge: bool = False
    ) -> None:
        """Requeue every lease the worker holds (optionally as failures)."""
        held = [
            lease for lease in self._leases.values()
            if lease.worker_id == worker.id
        ]
        for lease in held:
            task = lease.task
            del self._leases[task.fingerprint]
            if self.state.committed(task):
                continue
            self._lost.add(task.fingerprint)
            if charge:
                task.last_error = WorkerLostError(
                    f"worker {worker.id} lost while running task "
                    f"{task.label}: {reason}",
                    worker=worker.id,
                    task=task.fingerprint,
                )
                worker.failures += 1
                self._maybe_quarantine_worker(worker)
                self.supervisor._handle_failure(task, self.state)
            else:
                # Clean shutdown mid-lease: requeue without an attempt
                # charge, mirroring innocent pool-sibling requeues.
                task.attempts -= 1
                task.ready_at = 0.0
                self.state.record(task).status = "pending"
                self._queue.append(task)

    def _declare_dead(self, worker: _WorkerInfo, reason: str) -> None:
        worker.status = "dead"
        self.state.metrics.worker_deaths += 1
        _log.warning(
            "fleet: worker died",
            extra={"worker": worker.id, "reason": reason},
        )
        try:
            worker.conn.close()
        except OSError:
            pass
        self._release_worker_leases(worker, reason, charge=True)

    def _expire_leases(self, now: float) -> None:
        expired = [
            lease for lease in self._leases.values() if now > lease.deadline
        ]
        for lease in expired:
            task = lease.task
            del self._leases[task.fingerprint]
            self.state.metrics.leases_expired += 1
            holder = self._workers.get(lease.worker_id)
            _log.warning(
                "fleet: lease expired",
                extra={
                    "task": task.fingerprint,
                    "key": task.label,
                    "worker": lease.worker_id,
                },
            )
            if self.state.committed(task):
                continue
            self._lost.add(task.fingerprint)
            task.last_error = TaskTimeoutError(
                f"lease on task {task.label} ({task.fingerprint}) held by "
                f"worker {lease.worker_id} exceeded its "
                f"{self.config.lease_timeout_s:g}s deadline",
                task=task.fingerprint,
                timeout_s=self.config.lease_timeout_s,
            )
            if holder is not None:
                holder.failures += 1
                self._maybe_quarantine_worker(holder)
            self.supervisor._handle_failure(task, self.state)

    def _scan_heartbeats(self, now: float) -> None:
        grace = self.config.heartbeat_s * self.config.heartbeat_grace
        for worker in list(self._workers.values()):
            if worker.status != "active":
                continue
            if now - worker.last_seen > grace:
                self._declare_dead(
                    worker,
                    f"no heartbeat for {now - worker.last_seen:.1f}s",
                )

    def _complete(self) -> bool:
        return all(
            self.state.records[fp].status in ("done", "resumed", "quarantined")
            for fp in self._order
        )

    def _leasable_workers(self) -> int:
        return sum(1 for w in self._workers.values() if w.leasable())

    # ------------------------------------------------------------------
    def poll(self) -> List["_Task"]:
        """Drive the run to completion or fall back; supervisor thread.

        Returns the tasks the fleet could not finish (empty on full
        completion) for the supervisor's in-process execution paths.
        """
        while True:
            with self._lock:
                if self._error is not None:
                    error = self._error
                    raise error
                now = time.monotonic()
                self._expire_leases(now)
                self._scan_heartbeats(now)
                self._drain_retries()
                if self._complete():
                    return []
                if not self._leases and self._leasable_workers() == 0:
                    # Nobody to lease to and nothing in flight: give the
                    # fleet a grace window (first worker still starting,
                    # or a reconnect after a death), then degrade to the
                    # in-process paths with whatever is left.
                    if now - self._last_activity > self.config.fleet_wait_s:
                        return self._leftovers()
            time.sleep(self.config.poll_interval_s)

    def _leftovers(self) -> List["_Task"]:
        leftovers: List["_Task"] = []
        for fingerprint in self._order:
            record = self.state.records[fingerprint]
            if record.status in ("done", "resumed", "quarantined"):
                continue
            record.status = "pending"
            leftovers.append(self._tasks[fingerprint])
        if leftovers:
            _log.warning(
                "fleet: degrading to in-process execution",
                extra={
                    "leftover_tasks": len(leftovers),
                    "ever_connected": self._ever_connected,
                },
            )
        return leftovers

    def linger(self, timeout_s: float = 3.0) -> None:
        """Give attached workers a beat to pick up their ``done`` reply.

        Without this, closing right after the last commit races the
        workers' request loops: they would observe a dropped connection
        (and exit through their reconnect/patience path) instead of the
        clean shutdown handshake.  Costs nothing when no worker is
        attached.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if not any(
                    w.status == "active" for w in self._workers.values()
                ):
                    return
            time.sleep(self.config.poll_interval_s)

    def accounting(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [w.accounting() for w in self._workers.values()]


def execute_fleet(
    supervisor: "RunSupervisor",
    tasks: List["_Task"],
    state: "_RunState",
) -> List["_Task"]:
    """Run ``tasks`` on the fleet; return what must run in-process.

    Every degradation path funnels here: unleasable work (no extractor,
    or an unpicklable one), a transport that cannot bind, zero workers
    within the grace window, or a mid-run loss of every worker.  The
    caller treats the returned tasks exactly like a fleet-less run.
    """
    import pickle

    extract = state.extract
    if extract is None:
        _log.warning(
            "fleet: raw-outcome sweeps are not leasable; running in-process"
        )
        return tasks
    try:
        pickle.dumps(extract)
        for task in tasks:
            pickle.dumps(task.members[0][1].fault_plan)
    except Exception:
        _log.warning(
            "fleet: unpicklable extractor or fault plan; running in-process"
        )
        return tasks

    coordinator = FleetCoordinator(supervisor, tasks, state)
    try:
        bound = coordinator.start()
    except FleetTransportError as exc:
        _log.warning(
            "fleet: transport unavailable; running in-process",
            extra={"error": str(exc)},
        )
        return tasks
    try:
        coordinator.write_discovery(bound)
        leftovers = coordinator.poll()
        coordinator.linger()
    finally:
        coordinator.close()
        state.fleet_workers.extend(coordinator.accounting())
    if not coordinator._ever_connected:
        # Pay the grace wait once per supervisor, not once per run of a
        # multi-run experiment.
        supervisor._fleet_unattended = True
        _log.warning(
            "fleet: no worker attached; later runs of this supervisor "
            "run in-process"
        )
    return leftovers


# ----------------------------------------------------------------------
# Service fleet (persistent coordinator for the exploration service)
# ----------------------------------------------------------------------

class _ServiceTask:
    """One service cache-miss waiting on (or out to) a fleet worker."""

    def __init__(
        self,
        task_id: str,
        spec: Any,
        activities: Optional[Tuple[float, ...]],
        solver: Optional[str],
        label: str,
        trace_ctx: Optional[Dict[str, Any]] = None,
    ):
        self.id = task_id
        self.spec = spec
        self.activities = activities
        self.solver = solver
        self.label = label
        #: Per-query trace context (the replica's in-request span chain);
        #: forwarded to whichever worker leases this task so its spans
        #: attach under the query's span tree, not the fleet's startup.
        self.trace_ctx = trace_ctx
        self.attempts = 0
        self.enqueued_at = time.monotonic()
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.cancelled = False

    def complete(self, value: Any) -> None:
        if not self.done.is_set():
            self.value = value
            self.done.set()

    def fail(self, error: BaseException) -> None:
        if not self.done.is_set():
            self.error = error
            self.done.set()


class ServiceFleet:
    """A long-lived lease coordinator for ``repro serve --fleet``.

    :class:`FleetCoordinator` is bound to one supervised *run*: it leases
    a fixed task list, then tells every worker ``done``.  A service has
    no such end — queries arrive forever — so this variant keeps the
    exact worker-facing wire protocol (``hello``/``request``/``result``/
    ``failure``/``heartbeat``/``goodbye``, protocol v2; a stock
    ``repro worker`` attaches to either without knowing which) but runs
    an open-ended queue: :meth:`solve` blocks one server thread until a
    worker returns the answer, a lease expires too many times, or the
    query's deadline passes.  ``done`` is sent only at :meth:`close`,
    so attached workers exit through their clean-shutdown path.

    At-least-once semantics carry over: an expired lease or a dead
    worker charges the task one attempt and requeues it; the *caller*
    (the service's solver worker) owns idempotency, which it gets for
    free from the fingerprint-keyed cache write.  When no worker is
    attached for longer than ``wait_s``, queued solves fail with
    :class:`~repro.errors.FleetTransportError` — the server catches
    that and falls back to its local executor, so a fleet-less
    ``--fleet`` server degrades to a plain one instead of hanging.
    """

    def __init__(
        self,
        bind: str,
        extract: Any,
        lease_timeout_s: float = 60.0,
        heartbeat_s: float = 2.0,
        heartbeat_grace: float = 4.0,
        max_attempts: int = 3,
        wait_s: float = 10.0,
        worker_max_failures: int = 3,
    ):
        self.bind_address = bind
        self._extract = extract
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_s = heartbeat_s
        self.heartbeat_grace = heartbeat_grace
        self.max_attempts = max(1, int(max_attempts))
        self.wait_s = wait_s
        self.worker_max_failures = worker_max_failures
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._queue: List[_ServiceTask] = []
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, _WorkerInfo] = {}
        self._threads: List[threading.Thread] = []
        self._server: Optional[socket.socket] = None
        self._seq = 0
        self._trace_ctx = get_tracer().worker_context()
        self._run_fp = f"service-{os.getpid()}"
        self._last_worker_seen = time.monotonic()
        self.address: Optional[str] = None
        # Counters (read by the server's metrics endpoint).
        self.tasks_done = 0
        self.task_failures = 0
        self.leases_expired = 0
        self.worker_deaths = 0

    # ------------------------------------------------------------------
    def start(self) -> str:
        """Bind, listen, start accept + reaper threads; returns address."""
        host, port = parse_address(self.bind_address)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
            server.listen(16)
        except OSError as exc:
            server.close()
            raise FleetTransportError(
                f"cannot bind service fleet on {host}:{port}: {exc}",
                address=f"{host}:{port}",
            ) from None
        server.settimeout(0.25)
        self._server = server
        self.address = f"{server.getsockname()[0]}:{server.getsockname()[1]}"
        self._last_worker_seen = time.monotonic()
        for name, target in (
            ("service-fleet-accept", self._accept_loop),
            ("service-fleet-reaper", self._reaper_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        _log.info(
            "service fleet listening",
            extra={"address": self.address, "run_fingerprint": self._run_fp},
        )
        return self.address

    def close(self) -> None:
        """Stop leasing: fail queued work, release workers, close sockets."""
        self._stop.set()
        with self._lock:
            pending = list(self._queue) + [l.task for l in self._leases.values()]
            self._queue.clear()
            self._leases.clear()
            workers = list(self._workers.values())
        for task in pending:
            task.fail(
                FleetTransportError(
                    "service fleet is shutting down", address=self.address
                )
            )
        # Let attached workers pick up their "done" reply before the
        # sockets drop (mirrors FleetCoordinator.linger, shortened).
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            with self._lock:
                if not any(w.status == "active" for w in workers):
                    break
            time.sleep(0.05)
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def workers_connected(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.leasable())

    def counters(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "address": self.address,
                "workers": sum(
                    1 for w in self._workers.values() if w.leasable()
                ),
                "workers_ever": len(self._workers),
                "queue_depth": len(self._queue),
                "leased": len(self._leases),
                "tasks_done": self.tasks_done,
                "task_failures": self.task_failures,
                "leases_expired": self.leases_expired,
                "worker_deaths": self.worker_deaths,
            }

    # ------------------------------------------------------------------
    def solve(
        self,
        spec: Any,
        activities: Optional[Tuple[float, ...]] = None,
        timeout_s: Optional[float] = None,
        solver: Optional[str] = None,
        label: Optional[str] = None,
        trace_ctx: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Fan one query out to the fleet; blocks the calling thread.

        ``trace_ctx`` (a :meth:`Tracer.worker_context` dict) rides the
        lease to the worker, so worker-side spans join the query's
        distributed trace rather than the fleet-construction context.

        Raises :class:`FleetTransportError` when no worker is attached
        within ``wait_s`` (the server's cue to solve locally instead)
        and :class:`~repro.errors.DeadlineExceededError` when
        ``timeout_s`` runs out first.
        """
        if self._stop.is_set():
            raise FleetTransportError(
                "service fleet is not running", address=self.address
            )
        with self._lock:
            self._seq += 1
            task = _ServiceTask(
                task_id=f"svc-{os.getpid()}-{self._seq}",
                spec=spec,
                activities=activities,
                solver=solver,
                label=label or f"query-{self._seq}",
                trace_ctx=trace_ctx,
            )
            self._queue.append(task)
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        try:
            while not task.done.wait(0.05):
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    self._abandon(task)
                    raise DeadlineExceededError(
                        f"fleet solve of {task.label} exceeded its "
                        f"{timeout_s:g}s budget",
                        task=task.id,
                        timeout_s=timeout_s,
                    )
                with self._lock:
                    leased = task.id in self._leases
                    starved = (
                        not leased
                        and not any(
                            w.leasable() for w in self._workers.values()
                        )
                        and now - max(
                            task.enqueued_at, self._last_worker_seen
                        ) > self.wait_s
                    )
                if starved:
                    self._abandon(task)
                    raise FleetTransportError(
                        f"no fleet worker attached within "
                        f"{self.wait_s:g}s; falling back",
                        address=self.address,
                    )
                if self._stop.is_set() and not task.done.is_set():
                    raise FleetTransportError(
                        "service fleet stopped mid-solve",
                        address=self.address,
                    )
        finally:
            if not task.done.is_set():
                self._abandon(task)
        if task.error is not None:
            raise task.error
        return task.value

    def _abandon(self, task: _ServiceTask) -> None:
        """Stop tracking a task whose caller gave up (late results drop)."""
        with self._lock:
            task.cancelled = True
            if task in self._queue:
                self._queue.remove(task)
            self._leases.pop(task.id, None)

    # ------------------------------------------------------------------
    # Transport (mirrors FleetCoordinator's loops on simpler state)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                name=f"service-fleet-conn-{peer[1]}",
                daemon=True,
            )
            handler.start()
            self._threads.append(handler)

    def _reaper_loop(self) -> None:
        while not self._stop.wait(0.25):
            with self._lock:
                now = time.monotonic()
                self._expire_leases(now)
                self._scan_heartbeats(now)

    def _serve_connection(self, conn: socket.socket, peer: str) -> None:
        worker: Optional[_WorkerInfo] = None
        reader = conn.makefile("r", encoding="utf-8")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    break
                try:
                    worker, keep = self._dispatch(conn, peer, worker, message)
                except OSError:
                    break
                if not keep:
                    break
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:
                pass
            if worker is not None:
                with self._lock:
                    if worker.status == "active" and not self._stop.is_set():
                        self._declare_dead(worker, "connection lost")

    def _dispatch(
        self,
        conn: socket.socket,
        peer: str,
        worker: Optional[_WorkerInfo],
        message: Dict[str, Any],
    ) -> Tuple[Optional[_WorkerInfo], bool]:
        kind = message.get("kind")
        with self._lock:
            if kind == "hello":
                if message.get("protocol") != PROTOCOL_VERSION:
                    _send(conn, {
                        "kind": "refused",
                        "reason": (
                            f"protocol {message.get('protocol')!r} != "
                            f"{PROTOCOL_VERSION}"
                        ),
                    })
                    return None, False
                worker_id = str(message.get("worker") or peer)
                existing = self._workers.get(worker_id)
                if existing is not None:
                    existing.conn = conn
                    existing.address = peer
                    existing.last_seen = time.monotonic()
                    if existing.status in ("dead", "gone"):
                        existing.status = "active"
                    worker = existing
                else:
                    worker = _WorkerInfo(
                        id=worker_id,
                        address=peer,
                        conn=conn,
                        last_seen=time.monotonic(),
                    )
                    self._workers[worker_id] = worker
                self._last_worker_seen = time.monotonic()
                _send(conn, {
                    "kind": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "run_fingerprint": self._run_fp,
                    "heartbeat_s": self.heartbeat_s,
                })
                _log.info(
                    "service fleet: worker joined",
                    extra={"worker": worker_id, "peer": peer},
                )
                return worker, True
            if worker is None:
                return None, False
            worker.last_seen = time.monotonic()
            self._last_worker_seen = worker.last_seen
            if kind == "heartbeat":
                return worker, True
            if kind == "request":
                reply = self._grant(worker)
                if reply.get("kind") == "done" and worker.status == "active":
                    worker.status = "gone"
                _send(conn, reply)
                return worker, reply.get("kind") != "done"
            if kind == "result":
                self._on_result(worker, message)
                return worker, True
            if kind == "failure":
                self._on_failure(worker, message)
                return worker, True
            if kind == "goodbye":
                worker.status = "gone"
                self._release_worker_leases(worker, "worker shut down")
                return worker, False
        return worker, True

    # ------------------------------------------------------------------
    # Lease management (callers hold the lock)
    # ------------------------------------------------------------------
    def _grant(self, worker: _WorkerInfo) -> Dict[str, Any]:
        if self._stop.is_set() or not worker.leasable():
            return {"kind": "done"}
        if not self._queue:
            return {"kind": "idle", "wait_s": 0.25}
        task = self._queue.pop(0)
        task.attempts += 1
        now = time.monotonic()
        self._leases[task.id] = _Lease(
            task=task,  # type: ignore[arg-type]
            worker_id=worker.id,
            deadline=now + self.lease_timeout_s,
        )
        points = (
            SweepPoint(spec=task.spec, layer_activities=task.activities),
        )
        payload = encode_payload((
            task.spec,
            None,
            points,
            False,
            self._extract,
            task.label,
            task.trace_ctx if task.trace_ctx is not None else self._trace_ctx,
            task.solver,
        ))
        return {
            "kind": "lease",
            "task": task.id,
            "label": task.label,
            "attempt": task.attempts,
            "lease_timeout_s": self.lease_timeout_s,
            "payload": payload,
        }

    def _take_lease(
        self, worker: _WorkerInfo, message: Dict[str, Any]
    ) -> Optional[_ServiceTask]:
        lease = self._leases.get(str(message.get("task")))
        if lease is None or lease.worker_id != worker.id:
            return None  # late reply after expiry/abandon: drop it
        del self._leases[lease.task.id]  # type: ignore[union-attr]
        return lease.task  # type: ignore[return-value]

    def _on_result(self, worker: _WorkerInfo, message: Dict[str, Any]) -> None:
        task = self._take_lease(worker, message)
        if task is None or task.cancelled:
            return
        try:
            values, _group_metrics, spans = decode_payload(
                message.get("payload") or ""
            )
        except Exception as exc:
            self._charge(
                task,
                worker,
                WorkerLostError(
                    f"worker {worker.id} returned an unreadable payload "
                    f"for {task.label}: {exc}",
                    worker=worker.id,
                    task=task.id,
                ),
            )
            return
        get_tracer().adopt(spans)
        worker.tasks_done += 1
        self.tasks_done += 1
        task.complete(values[0])

    def _on_failure(self, worker: _WorkerInfo, message: Dict[str, Any]) -> None:
        task = self._take_lease(worker, message)
        if task is None or task.cancelled:
            return
        self._charge(
            task,
            worker,
            ReproError(
                f"{message.get('error_type', 'Error')}: "
                f"{message.get('error', 'worker-side failure')}"
            ),
        )

    def _charge(
        self,
        task: _ServiceTask,
        worker: Optional[_WorkerInfo],
        error: BaseException,
    ) -> None:
        """One failed attempt: requeue, or fail out at max_attempts."""
        if worker is not None:
            worker.failures += 1
            if (
                worker.status == "active"
                and worker.failures >= self.worker_max_failures
            ):
                worker.status = "quarantined"
                _log.warning(
                    "service fleet: worker quarantined",
                    extra={"worker": worker.id, "failures": worker.failures},
                )
        if task.cancelled:
            return
        if task.attempts >= self.max_attempts:
            self.task_failures += 1
            task.fail(error)
            return
        self._queue.append(task)

    def _release_worker_leases(
        self, worker: _WorkerInfo, reason: str, charge: bool = False
    ) -> None:
        held = [
            lease for lease in self._leases.values()
            if lease.worker_id == worker.id
        ]
        for lease in held:
            task: _ServiceTask = lease.task  # type: ignore[assignment]
            del self._leases[task.id]
            if charge:
                self._charge(
                    task,
                    worker,
                    WorkerLostError(
                        f"worker {worker.id} lost while solving "
                        f"{task.label}: {reason}",
                        worker=worker.id,
                        task=task.id,
                    ),
                )
            elif not task.cancelled:
                # Clean goodbye mid-lease: requeue without a charge.
                task.attempts -= 1
                self._queue.append(task)

    def _declare_dead(self, worker: _WorkerInfo, reason: str) -> None:
        worker.status = "dead"
        self.worker_deaths += 1
        _log.warning(
            "service fleet: worker died",
            extra={"worker": worker.id, "reason": reason},
        )
        try:
            worker.conn.close()
        except OSError:
            pass
        self._release_worker_leases(worker, reason, charge=True)

    def _expire_leases(self, now: float) -> None:
        expired = [
            lease for lease in self._leases.values() if now > lease.deadline
        ]
        for lease in expired:
            task: _ServiceTask = lease.task  # type: ignore[assignment]
            del self._leases[task.id]
            self.leases_expired += 1
            holder = self._workers.get(lease.worker_id)
            self._charge(
                task,
                holder,
                TaskTimeoutError(
                    f"fleet lease on {task.label} held by worker "
                    f"{lease.worker_id} exceeded its "
                    f"{self.lease_timeout_s:g}s deadline",
                    task=task.id,
                    timeout_s=self.lease_timeout_s,
                ),
            )

    def _scan_heartbeats(self, now: float) -> None:
        grace = self.heartbeat_s * self.heartbeat_grace
        for worker in list(self._workers.values()):
            if worker.status != "active":
                continue
            if now - worker.last_seen > grace:
                self._declare_dead(
                    worker,
                    f"no heartbeat for {now - worker.last_seen:.1f}s",
                )


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------

def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _WorkerSession:
    """One worker's connection state (socket + reader + send lock)."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("r", encoding="utf-8")
        self.send_lock = threading.Lock()

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def _connect(
    address: str, patience_s: float
) -> _WorkerSession:
    """Dial the coordinator, retrying within the patience window."""
    host, port = parse_address(address)
    deadline = time.monotonic() + patience_s
    last: Optional[Exception] = None
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.settimeout(15.0)
            return _WorkerSession(sock)
        except OSError as exc:
            last = exc
            if time.monotonic() >= deadline:
                raise FleetTransportError(
                    f"cannot reach fleet coordinator at {host}:{port} "
                    f"within {patience_s:g}s: {last}",
                    address=f"{host}:{port}",
                ) from None
            time.sleep(0.25)


def _read_reply(session: _WorkerSession) -> Dict[str, Any]:
    line = session.reader.readline()
    if not line:
        raise OSError("coordinator closed the connection")
    return json.loads(line)


def _heartbeat_loop(
    session: _WorkerSession,
    worker_id: str,
    period_s: float,
    stop: threading.Event,
    chaos: ChaosMonkey,
) -> None:
    while not stop.wait(period_s):
        try:
            _send(
                session.sock,
                {"kind": "heartbeat", "worker": worker_id},
                lock=session.send_lock,
                copies=chaos.copies("heartbeat"),
            )
        except OSError:
            return


def run_worker(
    address: str,
    worker_id: Optional[str] = None,
    patience_s: float = 30.0,
) -> Dict[str, Any]:
    """Join the fleet at ``address`` and work until the run completes.

    Registers, then loops ``request`` → solve → ``result`` until the
    coordinator says ``done`` (clean exit, preceded by ``goodbye``).
    Transport trouble triggers reconnects inside a ``patience_s`` window
    per outage; a coordinator that stays unreachable raises
    :class:`repro.errors.FleetTransportError`.  Returns the worker's own
    accounting summary.

    Chaos faults (``REPRO_CHAOS``, see :mod:`repro.runtime.chaos`) are
    applied between solving and reporting, so an induced death always
    models "worker died mid-task" from the coordinator's viewpoint.
    """
    worker_id = worker_id or _default_worker_id()
    chaos = ChaosMonkey(ChaosPlan.from_env())
    tasks_done = 0
    failures = 0
    reconnects = -1  # first connect is not a reconnect
    run_fp: Optional[str] = None

    while True:
        session = _connect(address, patience_s)
        reconnects += 1
        stop_heartbeat = threading.Event()
        heartbeat: Optional[threading.Thread] = None
        try:
            _send(
                session.sock,
                {
                    "kind": "hello",
                    "worker": worker_id,
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                },
                lock=session.send_lock,
            )
            welcome = _read_reply(session)
            if welcome.get("kind") != "welcome":
                raise FleetTransportError(
                    f"coordinator refused worker {worker_id}: "
                    f"{welcome.get('reason', welcome.get('kind'))}",
                    address=address,
                )
            run_fp = welcome.get("run_fingerprint")
            heartbeat = threading.Thread(
                target=_heartbeat_loop,
                args=(
                    session,
                    worker_id,
                    float(welcome.get("heartbeat_s", 2.0) or 2.0),
                    stop_heartbeat,
                    chaos,
                ),
                name="fleet-heartbeat",
                daemon=True,
            )
            heartbeat.start()
            _log.info(
                "worker joined fleet",
                extra={
                    "worker": worker_id,
                    "address": address,
                    "run_fingerprint": run_fp,
                },
            )

            while True:
                _send(
                    session.sock,
                    {"kind": "request", "worker": worker_id},
                    lock=session.send_lock,
                )
                reply = _read_reply(session)
                kind = reply.get("kind")
                if kind == "done":
                    _send(
                        session.sock,
                        {"kind": "goodbye", "worker": worker_id},
                        lock=session.send_lock,
                        copies=chaos.copies("goodbye"),
                    )
                    return {
                        "worker": worker_id,
                        "address": address,
                        "run_fingerprint": run_fp,
                        "tasks_done": tasks_done,
                        "failures": failures,
                        "reconnects": reconnects,
                    }
                if kind == "idle":
                    time.sleep(float(reply.get("wait_s", 0.25) or 0.25))
                    continue
                if kind != "lease":
                    raise FleetTransportError(
                        f"unexpected coordinator reply {kind!r}",
                        address=address,
                    )

                fingerprint = reply["task"]
                t0 = time.perf_counter()
                try:
                    spec, plan, points, resilient, extract, label, ctx, solver = (
                        decode_payload(reply["payload"])
                    )
                    tracing = activate_worker_context(ctx)
                    tracer = get_tracer()
                    # Label the TCP hop: one `fleet.task` span per lease,
                    # re-parenting the solve's `group` span under it so
                    # the reassembled tree shows coordinator → worker.
                    with tracer.span(
                        "fleet.task",
                        worker=worker_id,
                        task=fingerprint,
                        attempt=int(reply.get("attempt", 1) or 1),
                    ) as task_span:
                        if task_span.span_id is not None:
                            ctx = dict(ctx)
                            ctx["parent_id"] = task_span.span_id
                        values, group_metrics, spans = _run_group_remote(
                            spec, plan, points, resilient, extract, label,
                            ctx, solver,
                        )
                    if tracing:
                        spans = list(spans) + tracer.drain()
                except Exception as exc:
                    failures += 1
                    _log.warning(
                        "worker: task failed",
                        extra={
                            "task": fingerprint,
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                    _send(
                        session.sock,
                        {
                            "kind": "failure",
                            "worker": worker_id,
                            "task": fingerprint,
                            "error": str(exc),
                            "error_type": type(exc).__name__,
                            "wall_s": round(time.perf_counter() - t0, 6),
                        },
                        lock=session.send_lock,
                        copies=chaos.copies("failure"),
                    )
                    continue
                # Chaos window: a planned SIGKILL/freeze lands after the
                # solve and before the report — the coordinator sees a
                # mid-task death or an expiring lease.
                chaos.on_task_executed()
                tasks_done += 1
                _send(
                    session.sock,
                    {
                        "kind": "result",
                        "worker": worker_id,
                        "task": fingerprint,
                        "payload": encode_payload(
                            (values, group_metrics, spans)
                        ),
                        "wall_s": round(time.perf_counter() - t0, 6),
                    },
                    lock=session.send_lock,
                    copies=chaos.copies("result"),
                )
        except FleetTransportError:
            raise
        except (OSError, socket.timeout, json.JSONDecodeError) as exc:
            _log.warning(
                "worker: transport trouble, reconnecting",
                extra={"worker": worker_id, "error": str(exc)},
            )
            time.sleep(0.25)
            continue
        finally:
            stop_heartbeat.set()
            session.close()
            if heartbeat is not None:
                heartbeat.join(timeout=1.0)
