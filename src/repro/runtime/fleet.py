"""Distributed fleet: one lease coordinator, two task sources, workers.

Work is farmed out to worker processes — on this host or any other —
over a deliberately small newline-delimited-JSON TCP protocol:

==============  =====================================================
worker sends    coordinator replies
==============  =====================================================
``hello``       ``welcome`` (run fingerprint, heartbeat period)
``request``     ``lease`` (a task), ``idle`` (retry after ``wait_s``;
                sent once a request was held ~1 s with no work), or
                ``done`` (no more work / worker quarantined — exit)
``result``      *nothing* (fire-and-forget)
``failure``     *nothing*
``heartbeat``   *nothing*
``goodbye``     *nothing* (clean-shutdown marker)
==============  =====================================================

Only ``hello`` and ``request`` have replies; everything else is
fire-and-forget.  That asymmetry is what makes the fleet *at-least-once*
by construction: a dropped ``result`` simply lets the lease expire and
the task is re-leased, and a duplicated (or late, post-expiry)
``result`` is dropped by its owner's idempotence guard.  Delivery
faults therefore cost wall time, never correctness — the chaos harness
(:mod:`repro.runtime.chaos`, ``scripts/chaos_fleet_check.py``) asserts
results stay bit-identical to a direct run under SIGKILL, freezes and
message loss.

The coordinator side is written once, in ``_LeaseCore``: transport,
worker registry, lease table, lease expiry, heartbeat scan, worker
death and quarantine, and *local* workers: children the owner forks to
run :func:`run_worker` over loopback (``--workers N``,
``--task-timeout``).  A local worker whose lease expires or whose
connection drops is SIGKILLed and respawned; only remote workers are
quarantined.  Two owners plug a task source into it:

- :class:`FleetCoordinator` leases one supervised run's tasks to
  ``repro worker`` processes (``--fleet HOST:PORT``) and to local
  workers forked for that run.  :func:`execute_fleet` returns whatever
  it could not finish, so the supervisor's serial path (and thus every
  CLI subcommand) degrades transparently when no worker ever connects,
  every worker dies, or the transport cannot even bind.  Failures flow
  into the supervisor's retry/backoff/quarantine core — a worker death
  or an expired lease charges the task one attempt — and results land
  through its fingerprint-keyed journal commit.  Workers are told
  ``done`` (local ones are killed) when the run ends.
- :class:`ServiceFleet` leases ``repro serve`` cache misses from an
  open-ended queue, with its own ``max_attempts`` per query, to remote
  workers (``--fleet``) and to local workers forked once for the
  replica's life; it tells workers ``done`` only at
  :meth:`ServiceFleet.close`.

See docs/DISTRIBUTED.md for the lease lifecycle and failure matrix.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field
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

#: Worker heartbeat period; a worker silent for ``HEARTBEAT_GRACE``
#: periods is declared dead.
HEARTBEAT_S = 2.0
HEARTBEAT_GRACE = 4.0
#: The run coordinator's lease-expiry scan and poll period (bounds
#: deadline-check latency).
POLL_INTERVAL_S = 0.05
#: Longest a core holds an idle worker's ``request`` for work to arrive
#: before it replies ``idle``.
IDLE_HOLD_S = 1.0


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


def _shut(sock: Optional[socket.socket], how: int) -> None:
    """Best-effort ``shutdown``: the peer may already be gone."""
    try:
        if sock is not None:
            sock.shutdown(how)
    except OSError:
        pass


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
    with lock or contextlib.nullcontext():
        for _ in range(copies):
            sock.sendall(data)


# ----------------------------------------------------------------------
# Lease core (shared by the run coordinator and the service fleet)
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
    #: Forked by the owner (``_LeaseCore._local``): never quarantined.
    local: bool = False

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

    task: Any
    worker_id: str
    deadline: float
    #: The lease's length in seconds; None leases never expire.
    timeout_s: Optional[float]


class _LeaseCore:
    """The coordinator side of the worker protocol, written once.

    Owns the transport (an accept loop and one handler thread per
    connection), the worker registry, the lease table, lease expiry,
    the heartbeat scan, worker death and worker quarantine.  An owner
    subclass supplies only what differs between a supervised run and
    the service:

    - ``_next_task()``: the next ``(task_id, task)`` to lease, or an
      ``idle``/``done`` reply when there is none (an ``idle`` one may
      carry ``wait_s``, the longest the core should hold the request);
    - ``_payload(task)``: the lease's 8-tuple payload;
    - ``_unleased_task(task_id)``: the task a ``result``/``failure``
      names when its sender holds no lease on it (None drops the reply);
    - ``_is_open(task)``: False once the task has landed or been given
      up, so duplicates and late replies drop;
    - ``_settle(task, values, group_metrics, worker)``: land a result
      (True when it landed, False for a duplicate);
    - ``_fail(task, error)``: route one charged failure;
    - ``_requeue(task)``: take a task back without a charge;
    - ``_shutdown()``: what :meth:`close` does with unfinished work.

    Tasks carry ``label``, ``attempts`` and ``wall_s``.  Every piece of
    shared state is mutated under one re-entrant lock, and one reaper
    thread drives lease expiry and the heartbeat scan.  A local worker
    whose lease expires or whose connection drops is killed and
    replaced at once, by whichever thread finds out; the reaper reaps
    the dead.  An idle worker's ``request`` waits on ``_work``, a
    condition of that lock, notified whenever a task is queued or the
    core stops.  An exception escaping an owner hook on any core thread
    (``fail_fast`` aborts, journal I/O errors) is stashed in ``_error``
    and stops the core; :meth:`FleetCoordinator.poll` re-raises it on
    the supervisor's thread.
    """

    #: Names the owner in log lines and errors.
    _name = "fleet"
    #: Level of the per-worker and per-lease log lines.
    _log_level = logging.INFO

    def __init__(
        self,
        bind: str,
        *,
        lease_timeout_s: float,
        worker_max_failures: int,
        run_fp: str,
        reap_s: float,
        linger_s: float,
        local_workers: int = 0,
        local_timeout_s: Optional[float] = None,
    ):
        self.bind_address = bind
        self.lease_timeout_s = lease_timeout_s
        self.worker_max_failures = worker_max_failures
        self._run_fp = run_fp
        self._reap_s = reap_s
        self._linger_s = linger_s
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, _WorkerInfo] = {}
        #: Task ids whose previous lease expired or whose holder died or
        #: left; their next grant counts as a reassignment.
        self._lost: set = set()
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        #: Open worker connections, one per live handler thread.
        self._conns: set = set()
        self._ever_connected = False
        self._last_activity = time.monotonic()
        self._trace_ctx = get_tracer().worker_context()
        #: Live local worker processes by id.
        self._local: Dict[str, Any] = {}
        self.local_workers = local_workers
        #: Local workers forked so far, and those respawned (bounded by
        #: ``_respawn_budget``; None: no bound).
        self._spawned = 0
        self.respawns = 0
        self._respawn_budget: Optional[int] = None
        #: Killed local workers not yet reaped.
        self._dying: List[Any] = []
        self._wake = threading.Event()
        #: Lease length for local workers (None: no deadline).
        self.local_timeout_s = local_timeout_s
        self.address: Optional[str] = None
        # Counters (the run report and the service metrics read them).
        self.tasks_done = 0
        self.leases_expired = 0
        self.worker_deaths = 0
        self.reassignments = 0

    # ------------------------------------------------------------------
    # Transport lifecycle
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
                f"cannot bind {self._name} on {host}:{port}: {exc}",
                address=f"{host}:{port}",
            ) from None
        server.settimeout(0.25)
        self._server = server
        self.address = f"{server.getsockname()[0]}:{server.getsockname()[1]}"
        self._last_activity = time.monotonic()
        for _ in range(self.local_workers):  # fork before any core thread
            self._spawn_local()
        for name, target in (
            ("fleet-accept", self._accept_loop),
            ("fleet-reaper", self._reaper_loop),
        ):
            # In a copy of this context, so the spans a core thread records
            # (a run's "task" spans) nest under the span current here.
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(target,),
                name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        _log.log(self._log_level, f"{self._name} listening",
            extra={"address": self.address, "run_fingerprint": self._run_fp},
        )
        return self.address

    def close(self) -> None:
        """Stop leasing, release attached workers, close every socket."""
        self._stop.set()
        with self._lock:
            self._shutdown()
            self._work.notify_all()
            local = list(self._local.values()) + self._dying
        # Local workers hold no lease now: kill them rather than wait out
        # their idle request.
        for process in local:
            process.kill()
            process.join(timeout=5.0)
        # Every request is now answered ``done``: give attached remote workers
        # a beat to pick it up, so they exit through the clean-shutdown
        # handshake instead of observing a dropped connection.  An
        # aborted core lands nothing more, so it does not wait.
        linger_s = 0.0 if self._error is not None else self._linger_s
        deadline = time.monotonic() + linger_s
        while time.monotonic() < deadline:
            if self.workers_connected() == 0:
                break
            time.sleep(0.05)
        # ``close()`` alone wakes neither the accept loop nor a handler
        # blocked reading a silent worker.  Shutting the read side wakes
        # a handler and leaves it the write side to release its worker.
        with self._lock:
            conns = list(self._conns)
        _shut(self._server, socket.SHUT_RDWR)
        for conn in conns:
            _shut(conn, socket.SHUT_RD)
        for thread in list(self._threads):
            thread.join(timeout=2.0)
        for sock in [self._server] + conns:
            _shut(sock, socket.SHUT_RDWR)
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()

    def _spawn_local(self) -> None:
        import multiprocessing

        self._spawned += 1
        worker_id = f"local-{os.getpid()}-{self._spawned}"
        process = multiprocessing.get_context("fork").Process(
            target=_local_worker_main, args=(self.address, worker_id), daemon=True
        )
        # Registered before the fork, so the child's hello finds it.
        self._local[worker_id] = process
        try:
            process.start()
        except OSError as exc:
            del self._local[worker_id]
            _log.warning("fleet: cannot fork a local worker",
                         extra={"error": str(exc)})

    def _respawn(self) -> None:
        """Fork a replacement local worker, within the budget (lock held)."""
        budget = self._respawn_budget
        if not self._stop.is_set() and (budget is None or self.respawns < budget):
            self.respawns += 1
            self._spawn_local()

    def _tend_local(self) -> None:
        """Reap killed local workers, and replace any that died before
        the core could mourn them (reaper thread, lock held)."""
        self._dying = [p for p in self._dying if p.is_alive()]
        for worker_id, process in list(self._local.items()):
            if not process.is_alive():
                del self._local[worker_id]
                self._respawn()

    def _shutdown(self) -> None:
        """Hook: settle unfinished work at :meth:`close` (lock held)."""

    def _abort(self, exc: BaseException) -> None:
        """Stash a core-thread exception for the owner and stop leasing."""
        with self._lock:
            if self._error is None:
                self._error = exc
            self._stop.set()
            self._work.notify_all()
        self._wake.set()

    def _evict(self, worker_id: str) -> None:
        """Kill a local worker the core gave up on, and fork its
        replacement (lock held): a hung solve cannot be cancelled."""
        process = self._local.pop(worker_id, None)
        if process is not None:
            process.kill()
            self._dying.append(process)
            self._respawn()

    def workers_connected(self) -> int:
        """Remote workers attached and leasable."""
        with self._lock:
            return sum(1 for w in self._workers.values() if w.leasable() and not w.local)

    def accounting(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [w.accounting() for w in self._workers.values()]

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            # Replies are small writes: no Nagle wait for a delayed ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._stop.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
            handler = threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._serve_connection, conn, f"{peer[0]}:{peer[1]}"),
                name=f"fleet-conn-{peer[1]}",
                daemon=True,
            )
            handler.start()
            # A long-lived owner sees one handler per worker
            # (re)connection: keep only the live ones.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(handler)

    def _reaper_loop(self) -> None:
        while not self._stop.wait(self._reap_s):
            with self._lock:
                now = time.monotonic()
                try:
                    self._expire_leases(now)
                    self._scan_heartbeats(now)
                except Exception as exc:
                    self._abort(exc)
                    return
                self._tend_local()

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
                    message = None
                if not isinstance(message, dict):
                    _log.warning(
                        f"{self._name}: unparsable message, closing connection",
                        extra={"peer": peer},
                    )
                    break
                try:
                    worker, reply, keep = self._dispatch(
                        conn, peer, worker, message
                    )
                except Exception as exc:
                    # fail-fast aborts and commit-core errors, journal
                    # I/O included: the owner re-raises them.
                    self._abort(exc)
                    break
                try:
                    if reply is not None:
                        _send(conn, reply)
                except OSError:
                    # Reply could not be sent: the worker is dying, not
                    # the core.  Drop the connection; the finally-block
                    # death handling requeues any leases it held.
                    break
                if not keep:
                    break
        except OSError:
            pass  # reset by a dying worker: a lost connection, as below
        finally:
            release = False
            with self._lock:
                self._conns.discard(conn)
                if worker is not None and worker.status == "active":
                    if self._stop.is_set():
                        # A stopped core mourns nobody: it releases the
                        # worker, which reads ``done`` on its next ask.
                        worker.status = "gone"
                        release = True
                    else:
                        try:
                            self._declare_dead(worker, "connection lost")
                        except Exception as exc:
                            self._abort(exc)
            if release:
                with contextlib.suppress(OSError):
                    _send(conn, {"kind": "done"})
            try:
                reader.close()
                conn.close()
            except OSError:
                pass

    def _dispatch(
        self,
        conn: socket.socket,
        peer: str,
        worker: Optional[_WorkerInfo],
        message: Dict[str, Any],
    ) -> Tuple[Optional[_WorkerInfo], Optional[Dict[str, Any]], bool]:
        """Handle one message; returns (worker, reply, keep_connection)."""
        kind = message.get("kind")
        with self._lock:
            if kind == "hello":
                if message.get("protocol") != PROTOCOL_VERSION:
                    return None, {
                        "kind": "refused",
                        "reason": (
                            f"protocol {message.get('protocol')!r} != "
                            f"{PROTOCOL_VERSION}"
                        ),
                    }, False
                worker_id = str(message.get("worker") or peer)
                worker = self._workers.get(worker_id)
                if worker is None:
                    worker = _WorkerInfo(worker_id, peer, conn, 0.0)
                    self._workers[worker_id] = worker
                # A reconnecting worker keeps its accounting (and a
                # quarantined one stays quarantined).
                worker.conn = conn
                worker.address = peer
                worker.last_seen = self._last_activity = time.monotonic()
                worker.local = worker_id in self._local
                if worker.status in ("dead", "gone"):
                    worker.status = "active"
                if not worker.local:
                    self._ever_connected = True
                _log.log(self._log_level, f"{self._name}: worker joined",
                    extra={"worker": worker_id, "peer": peer},
                )
                return worker, {
                    "kind": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "run_fingerprint": self._run_fp,
                    "heartbeat_s": HEARTBEAT_S,
                }, True
            if worker is None:
                # Anything before hello is a protocol violation.
                return None, None, False
            worker.last_seen = self._last_activity = time.monotonic()
            if kind == "request":
                reply = self._grant(worker)
                if reply.get("kind") == "done" and worker.status == "active":
                    # The closing handshake is ours, not a death: mark
                    # the worker released before the connection drops.
                    worker.status = "gone"
                return worker, reply, reply.get("kind") != "done"
            if kind in ("result", "failure"):
                self._on_reply(worker, message)
            elif kind == "goodbye":
                worker.status = "gone"
                self._release_worker_leases(worker, "worker shut down")
                _log.info(
                    f"{self._name}: worker left cleanly",
                    extra={"worker": worker.id},
                )
                return worker, None, False
        return worker, None, True

    # ------------------------------------------------------------------
    # Lease management (all callers hold the lock)
    # ------------------------------------------------------------------
    def _grant(self, worker: _WorkerInfo) -> Dict[str, Any]:
        # An idle request is held until a task is queued (or the core
        # stops), so a new task never waits out an idle worker's sleep.
        held_until = time.monotonic() + IDLE_HOLD_S
        while True:
            if self._stop.is_set() or not worker.leasable():
                return {"kind": "done"}
            picked = self._next_task()
            if not isinstance(picked, dict):
                break
            if picked["kind"] != "idle":
                return picked  # done
            hold_s = held_until - time.monotonic()
            if hold_s <= 0:
                return {"kind": "idle", "wait_s": 0}  # the hold was the wait
            self._work.wait(min(hold_s, picked.get("wait_s", hold_s)))
        task_id, task = picked
        if task_id in self._lost:
            self._lost.discard(task_id)
            self.reassignments += 1
        task.attempts += 1
        timeout_s = self._lease_s(task, worker)
        self._leases[task_id] = _Lease(
            task=task,
            worker_id=worker.id,
            deadline=time.monotonic() + (float("inf") if timeout_s is None else timeout_s),
            timeout_s=timeout_s,
        )
        _log.log(self._log_level, f"{self._name}: leased task",
            extra={
                "task": task_id,
                "key": task.label,
                "worker": worker.id,
                "attempt": task.attempts,
            },
        )
        return {
            "kind": "lease",
            "task": task_id,
            "label": task.label,
            "attempt": task.attempts,
            "lease_timeout_s": timeout_s,
            "payload": self._payload(task),
        }

    def _lease_s(self, task: Any, worker: _WorkerInfo) -> Optional[float]:
        """The length of a lease on ``task`` to ``worker`` (None: forever)."""
        return self.local_timeout_s if worker.local else self.lease_timeout_s

    def _unleased_task(self, task_id: str) -> Any:
        """Hook: the task a reply names without a lease (None: drop)."""
        return None

    def _on_reply(self, worker: _WorkerInfo, message: Dict[str, Any]) -> None:
        """Route one ``result`` or ``failure`` message to its task."""
        if self._stop.is_set():
            return  # a stopped core lands nothing
        task_id = str(message.get("task"))
        lease = self._leases.get(task_id)
        if lease is not None and lease.worker_id == worker.id:
            del self._leases[task_id]
            task = lease.task
        else:
            task = self._unleased_task(task_id)
        if task is None:
            return
        if not self._is_open(task):
            # Duplicate delivery (chaos dup, or a thawed worker racing
            # its replacement): the first landing won, drop this one.
            _log.info(
                f"{self._name}: dropped duplicate {message.get('kind')}",
                extra={"task": task_id, "worker": worker.id},
            )
            return
        wall_s = message.get("wall_s")
        if isinstance(wall_s, (int, float)):
            task.wall_s += wall_s
        if message.get("kind") == "failure":
            error: BaseException = ReproError(
                f"{message.get('error_type', 'Error')}: "
                f"{message.get('error', 'worker-side failure')}"
            )
        else:
            try:
                values, group_metrics, spans = decode_payload(
                    message.get("payload") or ""
                )
            except Exception as exc:
                error = WorkerLostError(
                    f"worker {worker.id} returned an unreadable payload for "
                    f"task {task.label}: {exc}",
                    worker=worker.id,
                    task=task_id,
                )
            else:
                get_tracer().adopt(spans)
                if self._settle(task, values, group_metrics, worker):
                    worker.tasks_done += 1
                    self.tasks_done += 1
                return
        self._charge(task, worker, error)

    def _charge(
        self,
        task: Any,
        worker: Optional[_WorkerInfo],
        error: BaseException,
    ) -> None:
        """One failed attempt: count it against the worker, then route it.
        Only remote workers are quarantined: a local one's failures are
        its task's."""
        if worker is not None:
            worker.failures += 1
            if (
                worker.status == "active"
                and not worker.local
                and worker.failures >= self.worker_max_failures
            ):
                worker.status = "quarantined"
                _log.warning(
                    f"{self._name}: worker quarantined",
                    extra={"worker": worker.id, "failures": worker.failures},
                )
        self._fail(task, error)
        self._work.notify_all()

    def _release_worker_leases(
        self, worker: _WorkerInfo, reason: str, charge: bool = False
    ) -> None:
        """Requeue every lease the worker holds (optionally as failures)."""
        held = [
            (task_id, lease) for task_id, lease in self._leases.items()
            if lease.worker_id == worker.id
        ]
        for task_id, lease in held:
            self._reclaim(task_id, worker, WorkerLostError(
                f"worker {worker.id} lost while running task "
                f"{lease.task.label}: {reason}",
                worker=worker.id,
                task=task_id,
            ) if charge else None)

    def _reclaim(
        self,
        task_id: str,
        holder: Optional[_WorkerInfo],
        error: Optional[BaseException],
    ) -> None:
        """Take a lease back; charge ``error`` to it (None: no charge)."""
        task = self._leases.pop(task_id).task
        if not self._is_open(task):
            return
        self._lost.add(task_id)
        if error is not None:
            self._charge(task, holder, error)
            return
        # Clean shutdown mid-lease: requeue without an attempt charge.
        task.attempts -= 1
        self._requeue(task)
        self._work.notify_all()

    def _declare_dead(self, worker: _WorkerInfo, reason: str) -> None:
        worker.status = "dead"
        self.worker_deaths += 1
        _log.warning(
            f"{self._name}: worker died",
            extra={"worker": worker.id, "reason": reason},
        )
        try:
            worker.conn.close()
        except OSError:
            pass
        self._release_worker_leases(worker, reason, charge=True)
        self._evict(worker.id)

    def _expire_leases(self, now: float) -> None:
        expired = [
            (task_id, lease) for task_id, lease in self._leases.items()
            if now > lease.deadline
        ]
        for task_id, lease in expired:
            self.leases_expired += 1
            _log.warning(
                f"{self._name}: lease expired",
                extra={
                    "task": task_id,
                    "key": lease.task.label,
                    "worker": lease.worker_id,
                },
            )
            self._reclaim(
                task_id,
                self._workers.get(lease.worker_id),
                TaskTimeoutError(
                    f"lease on task {lease.task.label} ({task_id}) held by "
                    f"worker {lease.worker_id} exceeded its "
                    f"{lease.timeout_s:g}s deadline",
                    task=task_id,
                    timeout_s=lease.timeout_s,
                ),
            )
            # A hung local worker cannot be cancelled, only killed.
            self._evict(lease.worker_id)

    def _scan_heartbeats(self, now: float) -> None:
        grace = HEARTBEAT_S * HEARTBEAT_GRACE
        for worker in list(self._workers.values()):
            if worker.status != "active":
                continue
            if now - worker.last_seen > grace:
                self._declare_dead(
                    worker,
                    f"no heartbeat for {now - worker.last_seen:.1f}s",
                )


# ----------------------------------------------------------------------
# Run coordinator (one supervised run's tasks)
# ----------------------------------------------------------------------

class FleetCoordinator(_LeaseCore):
    """Leases a supervised run's tasks to remote and local workers.

    Its task source is the supervisor's run queue: retries come back
    through the shared retry core with their backoff ``ready_at``
    stamped, and a result lands through the supervisor's idempotent,
    fingerprint-keyed commit (so a late result from an expired lease
    still counts if it arrives first).  Remote workers are told ``done``
    once every task has landed or been quarantined.
    Without ``remote`` only its ``local_workers`` dial it, on loopback.
    A local lease lasts the run's ``task_timeout`` (or forever).
    """

    def __init__(
        self,
        supervisor: "RunSupervisor",
        tasks: List["_Task"],
        state: "_RunState",
        local_workers: int = 0,
        remote: bool = True,
    ):
        config = supervisor.config
        super().__init__(
            config.fleet if remote else "127.0.0.1:0",
            lease_timeout_s=config.lease_timeout_s,
            worker_max_failures=config.worker_max_failures,
            run_fp=state.metrics.run_fingerprint,
            reap_s=POLL_INTERVAL_S,
            linger_s=3.0,
            local_workers=local_workers,
            local_timeout_s=config.task_timeout,
        )
        self.supervisor = supervisor
        self.state = state
        self.config = config
        #: Grace for a first remote worker (none without a remote fleet).
        self._wait_s = config.fleet_wait_s if remote else 0.0
        if not remote:  # keep local workers out of --verbose stderr
            self._log_level = logging.DEBUG
        self._tasks: Dict[str, "_Task"] = {t.fingerprint: t for t in tasks}
        self._order = [t.fingerprint for t in tasks]
        #: The supervisor's run queue, where its retry core puts retries.
        self._queue = state.queue
        self._queue.extend(tasks)
        # Respawns are BENCH ``pool_rebuilds``: one per task attempt.
        self._respawn_budget = len(tasks) * (config.max_retries + 1)

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

    # ------------------------------------------------------------------
    # Task source (all callers hold the lock)
    # ------------------------------------------------------------------
    def _next_task(self) -> Any:
        now = time.monotonic()
        self._queue[:] = [
            t for t in self._queue if not self.state.committed(t)
        ]
        ready = [t for t in self._queue if t.ready_at <= now]
        if not ready:
            if not self._queue and not self._leases and not self._unlanded():
                return {"kind": "done"}
            wait = 0.25
            if self._queue:
                wait = max(
                    0.05, min(t.ready_at for t in self._queue) - now
                )
            return {"kind": "idle", "wait_s": round(min(wait, 1.0), 3)}
        task = ready[0]
        self._queue.remove(task)
        self.state.record(task).status = "running"
        return task.fingerprint, task

    def _payload(self, task: "_Task") -> str:
        return encode_payload((
            task.key[0],
            task.members[0][1].fault_plan,
            tuple(point for _, point in task.members),
            task.key[2],
            self.state.extract,
            task.label,
            self._trace_ctx,
            task.key[3],
        ))

    def _unleased_task(self, task_id: str) -> Optional["_Task"]:
        # A late result from an expired lease may still land first; the
        # idempotent commit drops whichever copy comes second.
        return self._tasks.get(task_id)

    def _is_open(self, task: "_Task") -> bool:
        return not self.state.committed(task)

    def _settle(self, task: "_Task", values: Any, group_metrics: Any,
                worker: _WorkerInfo) -> bool:
        if not worker.local:
            group_metrics.executed = "fleet"
        if not self.supervisor._commit(task, values, group_metrics, self.state):
            return False
        metrics = self.state.metrics
        if not worker.local or metrics.mode == "serial":
            metrics.mode = "process" if worker.local else "fleet"
        self._wake.set()
        return True

    def _fail(self, task: "_Task", error: BaseException) -> None:
        task.last_error = error
        if isinstance(error, TaskTimeoutError):
            task.timeouts += 1
        self.supervisor._handle_failure(task, self.state)
        self._wake.set()

    def _requeue(self, task: "_Task") -> None:
        self.state.record(task).status = "pending"
        self._queue.append(task)

    def _unlanded(self) -> List["_Task"]:
        return [
            self._tasks[fp] for fp in self._order
            if self.state.records[fp].status
            not in ("done", "resumed", "quarantined")
        ]

    # ------------------------------------------------------------------
    def poll(self) -> List["_Task"]:
        """Drive the run to completion or fall back; supervisor thread.

        Returns the tasks the fleet could not finish (empty on full
        completion) for the supervisor's serial path.
        """
        while True:
            self._wake.clear()
            with self._lock:
                if self._error is not None:
                    raise self._error
                leftovers = self._unlanded()
                if not leftovers:
                    return []
                if (
                    not self._leases
                    and not self._local
                    and self.workers_connected() == 0
                    and time.monotonic() - self._last_activity > self._wait_s
                ):
                    # Nobody to lease to and nothing in flight for a
                    # whole grace window (first remote worker still
                    # starting, or a reconnect after a death), and no
                    # local worker left: degrade to the serial path.
                    self._queue.clear()
                    for task in leftovers:
                        self.state.record(task).status = "pending"
                    _log.warning(
                        "fleet: degrading to in-process execution",
                        extra={
                            "leftover_tasks": len(leftovers),
                            "ever_connected": self._ever_connected,
                        },
                    )
                    return leftovers
            self._wake.wait(POLL_INTERVAL_S)


def _local_worker_main(address: str, worker_id: str) -> None:
    """Entry point of a forked local worker.

    The fork copied the parent's signal handlers and signal wakeup fd
    (asyncio's self-pipe under ``repro serve``).  Left in place, a
    SIGTERM or SIGINT to this worker would write into the shared pipe,
    and the parent's loop would act as if it had been signalled.  Its
    coordinator is its parent, so a lost connection that does not come
    back within a second means the parent is gone: the worker exits
    instead of outliving it by a remote worker's reconnect patience.
    """
    import signal

    with contextlib.suppress(ValueError, OSError):
        signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(ValueError, OSError):
            signal.signal(signum, signal.SIG_DFL)
    _log.setLevel(max(_log.getEffectiveLevel(), logging.WARNING))
    with contextlib.suppress(FleetTransportError):
        run_worker(address, worker_id=worker_id, patience_s=1.0)


def execute_fleet(
    supervisor: "RunSupervisor",
    tasks: List["_Task"],
    state: "_RunState",
    local_workers: int = 0,
    remote: bool = True,
) -> List["_Task"]:
    """Run ``tasks`` on the fleet; return what must run serially.

    ``remote`` leases to ``--fleet`` workers, beside up to
    ``local_workers`` forked local ones.  Every degradation path funnels
    here: unleasable work (no extractor, or an unpicklable one), a
    transport that cannot bind, zero workers within the grace window,
    or a mid-run loss of every worker.  The caller treats the returned
    tasks exactly like a fleet-less run.
    """
    import pickle

    try:
        pickle.dumps((state.extract, [t.members[0][1].fault_plan for t in tasks]))
        leasable = state.extract is not None
    except Exception:
        leasable = False
    if not leasable:
        _log.warning(
            "fleet: raw outcomes, or an unpicklable extractor or fault "
            "plan, are not leasable; running in-process"
        )
        return tasks

    coordinator = FleetCoordinator(
        supervisor, tasks, state, min(local_workers, len(tasks)), remote
    )
    try:
        bound = coordinator.start()
    except FleetTransportError as exc:
        _log.warning(
            "fleet: transport unavailable; running in-process",
            extra={"error": str(exc)},
        )
        return tasks
    try:
        if remote:
            coordinator.write_discovery(bound)
        leftovers = coordinator.poll()
    finally:
        coordinator.close()
        state.fleet_workers.extend(coordinator.accounting())
        state.metrics.leases_expired += coordinator.leases_expired
        state.metrics.worker_deaths += coordinator.worker_deaths
        state.metrics.reassignments += coordinator.reassignments
        state.metrics.pool_rebuilds += coordinator.respawns
    if remote and not coordinator._ever_connected:
        # Pay the grace wait once per supervisor, not once per run of a
        # multi-run experiment.
        supervisor._fleet_unattended = True
        _log.warning(
            "fleet: no worker attached; later runs of this supervisor "
            "run in-process"
        )
    return leftovers


# ----------------------------------------------------------------------
# Service fleet (open-ended queue for the exploration service)
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _ServiceTask:
    """One service cache-miss waiting on (or out to) a fleet worker."""

    id: str
    spec: Any
    activities: Optional[Tuple[float, ...]]
    solver: Optional[str]
    label: str
    #: Per-query trace context (the replica's in-request span chain);
    #: forwarded to whichever worker leases this task so its spans
    #: attach under the query's span tree, not the fleet's startup.
    trace_ctx: Optional[Dict[str, Any]] = None
    #: The query's deadline on the monotonic clock (None: unbounded).
    deadline: Optional[float] = None
    attempts: int = 0
    wall_s: float = 0.0
    enqueued_at: float = field(default_factory=time.monotonic)
    done: threading.Event = field(default_factory=threading.Event)
    value: Any = None
    error: Optional[BaseException] = None
    cancelled: bool = False

    def complete(self, value: Any) -> None:
        if not self.done.is_set():
            self.value = value
            self.done.set()

    def fail(self, error: BaseException) -> None:
        if not self.done.is_set():
            self.error = error
            self.done.set()


class ServiceFleet(_LeaseCore):
    """A replica's long-lived lease coordinator for ``repro serve``.

    Its task source is an open-ended queue of cache misses: queries
    arrive forever, so :meth:`solve` blocks one server thread until a
    worker returns the answer, the task has failed ``max_attempts``
    times, or the query's deadline passes, and workers are told
    ``done`` only at :meth:`close`.  A stock ``repro worker`` attaches
    to either owner without knowing which.

    ``local_workers`` children are forked once, in :meth:`start`, and
    live as long as the fleet; any that die or are killed are
    respawned.  A local lease lasts ``local_timeout_s`` or the
    query's remaining deadline, whichever is shorter, and a local
    worker whose lease expires or whose query is abandoned at its
    deadline is SIGKILLed, because a hung solve cannot be cancelled.

    A reply from a worker that no longer holds the lease is dropped; the
    *caller* (the service's solver worker) owns idempotency, which it
    gets free from the fingerprint-keyed cache write.  With no worker,
    local or remote, attached (said hello and not since lost) for
    longer than ``wait_s``, queued solves fail with
    :class:`~repro.errors.FleetTransportError`; the server catches that
    and solves locally, so a fleet-less ``--fleet`` server degrades to
    a plain one instead of hanging.
    """

    _name = "service fleet"

    def __init__(
        self,
        bind: str,
        extract: Any,
        lease_timeout_s: float = 60.0,
        max_attempts: int = 3,
        wait_s: float = 10.0,
        worker_max_failures: int = 3,
        local_workers: int = 0,
        local_timeout_s: Optional[float] = None,
    ):
        super().__init__(
            bind,
            lease_timeout_s=lease_timeout_s,
            worker_max_failures=worker_max_failures,
            run_fp=f"service-{os.getpid()}",
            reap_s=0.25,
            linger_s=1.0,
            local_workers=local_workers,
            local_timeout_s=local_timeout_s,
        )
        self._extract = extract
        self.max_attempts = max(1, int(max_attempts))
        self.wait_s = wait_s
        self._queue: List[_ServiceTask] = []
        self._seq = 0
        self.task_failures = 0

    def counters(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "address": self.address,
                "workers": self.workers_connected(),
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
        within ``wait_s`` (the server's cue to solve locally instead),
        :class:`~repro.errors.DeadlineExceededError` when ``timeout_s``
        runs out first, and the task's last typed error once it has
        failed ``max_attempts`` times.
        """
        if self._stop.is_set():
            raise FleetTransportError(
                "service fleet is not running", address=self.address
            )
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        with self._lock:
            self._seq += 1
            task = _ServiceTask(
                id=f"svc-{os.getpid()}-{self._seq}",
                spec=spec,
                activities=activities,
                solver=solver,
                label=label or f"query-{self._seq}",
                trace_ctx=trace_ctx,
                deadline=deadline,
            )
            self._queue.append(task)
            self._work.notify_all()
        try:
            while not task.done.wait(0.05):
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise DeadlineExceededError(
                        f"fleet solve of {task.label} exceeded its "
                        f"{timeout_s:g}s budget",
                        task=task.id,
                        timeout_s=timeout_s,
                    )
                with self._lock:
                    # A local worker that dies before its hello is none.
                    starved = (
                        task.id not in self._leases
                        and not any(w.leasable() for w in self._workers.values())
                        and now - max(
                            task.enqueued_at, self._last_activity
                        ) > self.wait_s
                    )
                if starved:
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
        """Stop tracking a task whose caller gave up (late results drop);
        a local worker still solving it is killed."""
        with self._lock:
            task.cancelled = True
            if task in self._queue:
                self._queue.remove(task)
            lease = self._leases.pop(task.id, None)
            if lease is not None:
                self._evict(lease.worker_id)
            self._lost.discard(task.id)

    # ------------------------------------------------------------------
    # Task source (all callers hold the lock)
    # ------------------------------------------------------------------
    def _next_task(self) -> Any:
        if not self._queue:
            return {"kind": "idle"}
        task = self._queue.pop(0)
        return task.id, task

    def _lease_s(self, task: _ServiceTask, worker: _WorkerInfo) -> Optional[float]:
        timeout_s = super()._lease_s(task, worker)
        if worker.local and task.deadline is not None:
            remaining = max(0.0, task.deadline - time.monotonic())
            timeout_s = remaining if timeout_s is None else min(timeout_s, remaining)
        return timeout_s

    def _payload(self, task: _ServiceTask) -> str:
        return encode_payload((
            task.spec,
            None,
            (SweepPoint(spec=task.spec, layer_activities=task.activities),),
            False,
            self._extract,
            task.label,
            task.trace_ctx if task.trace_ctx is not None else self._trace_ctx,
            task.solver,
        ))

    def _is_open(self, task: _ServiceTask) -> bool:
        return not (task.cancelled or task.done.is_set())

    def _settle(self, task: _ServiceTask, values: Any, group_metrics: Any,
                worker: _WorkerInfo) -> bool:
        task.complete(values[0])
        return True

    def _fail(self, task: _ServiceTask, error: BaseException) -> None:
        out_of_time = task.deadline is not None and time.monotonic() >= task.deadline
        if task.attempts >= self.max_attempts or out_of_time:
            self.task_failures += 1
            self._lost.discard(task.id)
            task.fail(error)
            return
        self._queue.append(task)

    def _requeue(self, task: _ServiceTask) -> None:
        self._queue.append(task)

    def _shutdown(self) -> None:
        pending = list(self._queue) + [l.task for l in self._leases.values()]
        self._queue.clear()
        self._leases.clear()
        for task in pending:
            task.fail(
                FleetTransportError(
                    "service fleet is shutting down", address=self.address
                )
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

    def send(self, message: Dict[str, Any], copies: int = 1) -> None:
        _send(self.sock, message, self.send_lock, copies)

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
            # ``result`` then ``request``: no Nagle wait for a delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
            session.send(
                {"kind": "heartbeat", "worker": worker_id},
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
            session.send(
                {
                    "kind": "hello",
                    "worker": worker_id,
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                },
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
                    float(welcome.get("heartbeat_s") or HEARTBEAT_S),
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
                session.send({"kind": "request", "worker": worker_id})
                reply = _read_reply(session)
                kind = reply.get("kind")
                if kind == "done":
                    # ``done`` releases the worker; a coordinator that
                    # has already hung up cannot read the goodbye.
                    with contextlib.suppress(OSError):
                        session.send(
                            {"kind": "goodbye", "worker": worker_id},
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
                    time.sleep(float(reply.get("wait_s") or 0))
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
                    session.send(
                        {
                            "kind": "failure",
                            "worker": worker_id,
                            "task": fingerprint,
                            "error": str(exc),
                            "error_type": type(exc).__name__,
                            "wall_s": round(time.perf_counter() - t0, 6),
                        },
                        copies=chaos.copies("failure"),
                    )
                    continue
                # Chaos window: a planned SIGKILL/freeze lands after the
                # solve and before the report — the coordinator sees a
                # mid-task death or an expiring lease.
                chaos.on_task_executed()
                tasks_done += 1
                session.send(
                    {
                        "kind": "result",
                        "worker": worker_id,
                        "task": fingerprint,
                        "payload": encode_payload(
                            (values, group_metrics, spans)
                        ),
                        "wall_s": round(time.perf_counter() - t0, 6),
                    },
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
