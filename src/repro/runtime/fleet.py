"""Distributed fleet: one lease coordinator and its workers.

Work is farmed out to worker processes — on this host or any other —
over a deliberately small newline-delimited-JSON TCP protocol:

==============  =====================================================
worker sends    coordinator replies
==============  =====================================================
``hello``       ``welcome`` (run fingerprint, heartbeat period)
``request``     ``lease`` (a task), ``idle`` (retry after ``wait_s``;
                sent once a request was held ~1 s with no work), or
                ``done`` (the fleet closed / worker quarantined — exit)
``result``      *nothing* (fire-and-forget)
``failure``     *nothing*
``heartbeat``   *nothing*
``goodbye``     *nothing* (clean-shutdown marker)
==============  =====================================================

Only ``hello`` and ``request`` have replies; everything else is
fire-and-forget.  That asymmetry is what makes the fleet *at-least-once*
by construction: a dropped ``result`` simply lets the lease expire, the
caller submits the task again, and a duplicated (or late, post-expiry)
``result`` is dropped because its sender no longer holds the lease.
Delivery faults therefore cost wall time, never correctness — the chaos
harness (:mod:`repro.runtime.chaos`, ``scripts/chaos_fleet_check.py``)
asserts results stay bit-identical to a direct run under SIGKILL,
freezes and message loss.

The coordinator is :class:`Fleet`: transport, worker registry, lease
table, lease expiry, heartbeat scan, worker death and quarantine, and
*local* workers: children it forks to run :func:`run_worker` over
loopback (``--workers N``, ``--task-timeout``).  A local worker whose
lease expires or whose connection drops is SIGKILLed and replaced; only
remote workers are quarantined.  It only leases: each submitted
:class:`FleetTask` ends once, with the worker's values or with the
charged error, and never retries.  Two callers keep their own policy
on their own thread:

- :class:`~repro.runtime.supervisor.RunSupervisor` opens one for a
  supervised run that needs processes or ``--fleet HOST:PORT``, submits
  the run's ready tasks, and commits, journals, backs off, quarantines
  and honours ``fail_fast`` itself; tasks the fleet could not lease go
  to its serial path, so every CLI subcommand degrades transparently
  when no worker ever connects or the transport cannot even bind.
  Workers are told ``done`` (local ones are killed) when the run ends.
- ``repro serve`` keeps one for the replica's life and leases cache
  misses through :meth:`Fleet.solve`, which submits again until the
  query's ``max_attempts`` or its deadline.

See docs/DISTRIBUTED.md for the lease lifecycle and failure matrix.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
from repro.runtime.engine import SweepEngine, SweepPoint, group_points
from repro.runtime.journal import decode_payload, encode_payload

__all__ = [
    "FLEET_FILE",
    "PROTOCOL_VERSION",
    "Fleet",
    "FleetTask",
    "parse_address",
    "run_worker",
]

_log = get_logger(__name__)

#: Bumped on any wire-format change; hello/welcome carry it and a
#: mismatched worker is refused instead of mis-parsed.
#: v2 appended the coordinator's solver-backend name to the lease
#: payload tuple, so workers factorise with the coordinator's choice;
#: v3 cut the payload to ``(points, extract, trace context, solver)``,
#: which the worker groups itself, and added ``typed`` to ``failure``.
PROTOCOL_VERSION = 3

#: Name of the discovery file a supervised run writes into its run dir.
FLEET_FILE = "fleet.json"

#: Worker heartbeat period; a worker silent for ``HEARTBEAT_GRACE``
#: periods is declared dead.
HEARTBEAT_S = 2.0
HEARTBEAT_GRACE = 4.0
#: Period of the reaper's lease-expiry, heartbeat and starvation scans
#: (bounds deadline-check latency).
REAP_S = 0.05
#: Longest a fleet holds an idle worker's ``request`` for work to arrive
#: before it replies ``idle``.
IDLE_HOLD_S = 1.0
#: Longest :meth:`Fleet.close` waits for attached remote workers to read
#: ``done``.
LINGER_S = 3.0


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
# The coordinator
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
    #: Forked by the fleet (``Fleet._local``): never quarantined.
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


@dataclass(eq=False)
class FleetTask:
    """One unit of leased work, submitted once per attempt.

    The caller builds it once and passes it to :meth:`Fleet.submit` for
    each attempt.  Each submission ends exactly once, when the fleet
    puts the task on ``outbox``: with ``values`` (one per point) and
    ``group_metrics`` from the worker, or with ``error``, the charged
    failure — a :class:`~repro.errors.TaskTimeoutError` (the lease
    expired), a :class:`~repro.errors.WorkerLostError` (its worker died),
    the worker's own failure (``typed`` when it raised a ``ReproError``),
    or a :class:`~repro.errors.FleetTransportError` (no worker to lease
    to, or the fleet closed).
    """

    id: str
    label: str
    points: Tuple[SweepPoint, ...]
    extract: Any
    solver: Optional[str]
    #: A :meth:`Tracer.worker_context` dict: the worker's spans attach
    #: under the caller's span tree.
    trace_ctx: Optional[Dict[str, Any]]
    outbox: "queue.Queue[FleetTask]"
    #: Monotonic deadline; a local lease ends there (None: no bound).
    deadline: Optional[float] = None
    # The current submission's attempt number and outcome.
    attempt: int = 0
    wall_s: float = 0.0
    values: Optional[List[Any]] = None
    group_metrics: Any = None
    error: Optional[BaseException] = None
    typed: bool = False
    #: A local worker delivered ``values``.
    local: bool = False
    #: Its last lease was taken back: the next grant is a reassignment.
    lost: bool = False


@dataclass
class _Lease:
    """One task currently out on a worker, with its reassignment deadline."""

    task: FleetTask
    worker_id: str
    deadline: float
    #: The lease's length in seconds; None leases never expire.
    timeout_s: Optional[float]


class Fleet:
    """The coordinator side of the worker protocol.

    Owns the transport (an accept loop and one handler thread per
    connection), the worker registry, the task queue, the lease table,
    lease expiry, the heartbeat scan, worker death, worker quarantine
    and ``local_workers`` forked children.  Every piece of shared state
    is mutated under one re-entrant lock, and one reaper thread drives
    lease expiry, the heartbeat scan, local-worker upkeep and
    starvation.  An idle worker's ``request`` waits on ``_work``, a
    condition of that lock, notified whenever a task is queued or the
    fleet closes.

    A submitted task fails with :class:`~repro.errors.FleetTransportError`
    once no worker has been leasable, and no local child alive, for
    longer than ``wait_s``.  A remote lease lasts ``lease_timeout_s``; a
    local one lasts ``local_timeout_s`` or until the task's deadline,
    whichever is shorter (None: forever).  A local worker whose lease
    expires, whose task is cancelled mid-lease or whose connection drops
    is SIGKILLed, because a hung solve cannot be cancelled, and
    replaced; one that keeps dying before its hello is not.
    """

    def __init__(
        self,
        bind: str,
        *,
        run_fp: Optional[str] = None,
        lease_timeout_s: float = 60.0,
        wait_s: float = 10.0,
        worker_max_failures: int = 3,
        local_workers: int = 0,
        local_timeout_s: Optional[float] = None,
    ):
        self.bind_address = bind
        self.lease_timeout_s = lease_timeout_s
        self.wait_s = wait_s
        self.worker_max_failures = worker_max_failures
        self.local_workers = local_workers
        self.local_timeout_s = local_timeout_s
        self._run_fp = run_fp or f"service-{os.getpid()}"
        self._queue: List[FleetTask] = []
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, _WorkerInfo] = {}
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        #: Open worker connections, one per live handler thread.
        self._conns: set = set()
        #: Last time a worker was leasable or a local child alive.
        self._seen = time.monotonic()
        self._seq = 0
        #: Live local worker processes by id, and killed ones not yet
        #: reaped.
        self._local: Dict[str, Any] = {}
        self._dying: List[Any] = []
        #: Local workers forked so far; local workers that died in a row
        #: before their hello.
        self._spawned = 0
        self._stillborn = 0
        self.address: Optional[str] = None
        #: A remote worker said hello at some point.
        self.ever_connected = False
        # Counters (the run report and the service metrics read them).
        self.respawns = 0
        self.tasks_done = 0
        self.task_failures = 0
        self.leases_expired = 0
        self.worker_deaths = 0
        self.reassignments = 0

    # ------------------------------------------------------------------
    # Lifecycle
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
                f"cannot bind fleet on {host}:{port}: {exc}",
                address=f"{host}:{port}",
            ) from None
        server.settimeout(0.25)
        self._server = server
        self.address = f"{server.getsockname()[0]}:{server.getsockname()[1]}"
        self._seen = time.monotonic()
        for _ in range(self.local_workers):  # fork before any fleet thread
            self._spawn_local()
        for name, target in (
            ("fleet-accept", self._accept_loop),
            ("fleet-reaper", self._reaper_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def close(self, linger: bool = True) -> None:
        """Stop leasing, fail what is unfinished, release attached
        workers, close every socket.  With ``linger``, remote workers
        get up to ``LINGER_S`` to read ``done``."""
        self._stop.set()
        with self._lock:
            unfinished = self._queue + [lease.task for lease in self._leases.values()]
            self._queue.clear()
            self._leases.clear()
            for task in unfinished:
                self._finish(task, FleetTransportError(
                    "fleet is shutting down", address=self.address))
            self._work.notify_all()
            local = list(self._local.values()) + self._dying
        # Local workers hold no lease now: kill them rather than wait out
        # their idle request.
        for process in local:
            process.kill()
            process.join(timeout=5.0)
        # Every request is now answered ``done``: give attached remote
        # workers a beat to pick it up, so they exit through the
        # clean-shutdown handshake instead of observing a dropped
        # connection.
        deadline = time.monotonic() + (LINGER_S if linger else 0.0)
        while time.monotonic() < deadline and self.workers_connected():
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

    def workers_connected(self) -> int:
        """Remote workers attached and leasable."""
        with self._lock:
            return sum(1 for w in self._workers.values() if w.leasable() and not w.local)

    def accounting(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [w.accounting() for w in self._workers.values()]

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
    # Tasks
    # ------------------------------------------------------------------
    def submit(self, task: FleetTask, attempt: int) -> None:
        """Queue one attempt at ``task``; it ends on ``task.outbox``."""
        with self._lock:
            task.attempt = attempt
            task.wall_s = 0.0
            task.values = task.group_metrics = task.error = None
            task.typed = task.local = False
            if self._stop.is_set():
                self._finish(task, FleetTransportError(
                    "fleet is not running", address=self.address))
                return
            self._queue.append(task)
            self._work.notify_all()

    def _cancel(self, task: FleetTask) -> None:
        """Drop a submission its caller gave up on (its reply is then
        late); a local worker still solving it is killed."""
        with self._lock:
            if task in self._queue:
                self._queue.remove(task)
            lease = self._leases.get(task.id)
            if lease is not None and lease.task is task:
                del self._leases[task.id]
                self._evict(lease.worker_id)

    def solve(
        self,
        spec: Any,
        activities: Optional[Tuple[float, ...]] = None,
        *,
        extract: Any,
        timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        solver: Optional[str] = None,
        label: Optional[str] = None,
        trace_ctx: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Solve one point on the fleet; blocks the calling thread.

        Submits the point again after each charged failure, until it
        has failed ``max_attempts`` times or its deadline has passed, and
        at once for a typed error (a ``ReproError`` the worker raised:
        re-leasing would only raise it again).  ``trace_ctx`` rides the
        lease to the worker, so worker-side spans join the query's
        distributed trace.

        Raises :class:`FleetTransportError` when no worker is attached
        within ``wait_s`` (the server's cue to solve locally instead),
        :class:`~repro.errors.DeadlineExceededError` when ``timeout_s``
        runs out first, and the last charged error otherwise.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            self._seq += 1
            seq = self._seq
        task = FleetTask(
            id=f"svc-{os.getpid()}-{seq}",
            label=label or f"query-{seq}",
            points=(SweepPoint(spec=spec, layer_activities=activities),),
            extract=extract,
            solver=solver,
            trace_ctx=trace_ctx,
            outbox=queue.Queue(),
            deadline=deadline,
        )
        attempt = 0
        try:
            while True:
                attempt += 1
                self.submit(task, attempt)
                try:
                    task.outbox.get(timeout=(
                        None if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    ))
                except queue.Empty:
                    raise DeadlineExceededError(
                        f"fleet solve of {task.label} exceeded its "
                        f"{timeout_s:g}s budget",
                        task=task.id,
                        timeout_s=timeout_s,
                    ) from None
                error = task.error
                if error is None:
                    return task.values[0]
                if isinstance(error, FleetTransportError):
                    raise error
                out_of_time = deadline is not None and time.monotonic() >= deadline
                if task.typed or attempt >= max_attempts or out_of_time:
                    with self._lock:
                        self.task_failures += 1
                    raise error
        finally:
            self._cancel(task)  # a no-op once the submission has ended

    def _finish(self, task: FleetTask, error: Optional[BaseException] = None,
                typed: bool = False) -> None:
        """End the task's submission (lock held)."""
        task.error = error
        task.typed = typed
        task.outbox.put(task)

    # ------------------------------------------------------------------
    # Local workers (lock held)
    # ------------------------------------------------------------------
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
        """Fork a replacement local worker, unless the fleet is closing."""
        if not self._stop.is_set():
            self.respawns += 1
            self._spawn_local()

    def _evict(self, worker_id: str) -> None:
        """Kill a local worker the fleet gave up on, and fork its
        replacement: a hung solve cannot be cancelled."""
        process = self._local.pop(worker_id, None)
        if process is not None:
            process.kill()
            self._dying.append(process)
            self._respawn()

    def _tend_local(self) -> None:
        """Reap killed local workers, and replace those that died before
        the fleet could mourn them: always after their hello, and before
        it only until ``local_workers`` have done so in a row."""
        self._dying = [p for p in self._dying if p.is_alive()]
        for worker_id, process in list(self._local.items()):
            if process.is_alive():
                continue
            del self._local[worker_id]
            if worker_id not in self._workers:
                if self._stillborn >= self.local_workers:
                    continue
                self._stillborn += 1
            self._respawn()

    # ------------------------------------------------------------------
    # Transport
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
                target=self._serve_connection,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                name=f"fleet-conn-{peer[1]}",
                daemon=True,
            )
            handler.start()
            # A long-lived fleet sees one handler per worker
            # (re)connection: keep only the live ones.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(handler)

    def _reaper_loop(self) -> None:
        while not self._stop.wait(REAP_S):
            with self._lock:
                now = time.monotonic()
                self._expire_leases(now)
                self._scan_heartbeats(now)
                self._tend_local()
                self._starve(now)

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
                        "fleet: unparsable message, closing connection",
                        extra={"peer": peer},
                    )
                    break
                worker, reply, keep = self._dispatch(conn, peer, worker, message)
                try:
                    if reply is not None:
                        _send(conn, reply)
                except OSError:
                    # Reply could not be sent: the worker is dying, not
                    # the fleet.  Drop the connection; the finally-block
                    # death handling charges any leases it held.
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
                        # A stopped fleet mourns nobody: it releases the
                        # worker, which reads ``done`` on its next ask.
                        worker.status = "gone"
                        release = True
                    else:
                        self._declare_dead(worker, "connection lost")
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
                worker.last_seen = self._seen = time.monotonic()
                worker.local = worker_id in self._local
                if worker.status in ("dead", "gone"):
                    worker.status = "active"
                if worker.local:
                    self._stillborn = 0
                else:
                    self.ever_connected = True
                _log.log(_level(worker), "fleet: worker joined",
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
            worker.last_seen = time.monotonic()
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
                    "fleet: worker left cleanly",
                    extra={"worker": worker.id},
                )
                return worker, None, False
        return worker, None, True

    # ------------------------------------------------------------------
    # Lease management (all callers hold the lock)
    # ------------------------------------------------------------------
    def _grant(self, worker: _WorkerInfo) -> Dict[str, Any]:
        # An idle request is held until a task is queued (or the fleet
        # closes), so a new task never waits out an idle worker's sleep.
        held_until = time.monotonic() + IDLE_HOLD_S
        while True:
            if self._stop.is_set() or not worker.leasable():
                return {"kind": "done"}
            if self._queue:
                break
            hold_s = held_until - time.monotonic()
            if hold_s <= 0:
                return {"kind": "idle", "wait_s": 0}  # the hold was the wait
            self._work.wait(hold_s)
        task = self._queue.pop(0)
        if task.lost:
            task.lost = False
            self.reassignments += 1
        timeout_s = self._lease_s(task, worker)
        self._leases[task.id] = _Lease(
            task=task,
            worker_id=worker.id,
            deadline=time.monotonic() + (float("inf") if timeout_s is None else timeout_s),
            timeout_s=timeout_s,
        )
        _log.log(_level(worker), "fleet: leased task",
            extra={
                "task": task.id,
                "key": task.label,
                "worker": worker.id,
                "attempt": task.attempt,
            },
        )
        return {
            "kind": "lease",
            "task": task.id,
            "label": task.label,
            "attempt": task.attempt,
            "lease_timeout_s": timeout_s,
            "payload": encode_payload(
                (task.points, task.extract, task.trace_ctx, task.solver)
            ),
        }

    def _lease_s(self, task: FleetTask, worker: _WorkerInfo) -> Optional[float]:
        """The length of a lease on ``task`` to ``worker`` (None: forever)."""
        if not worker.local:
            return self.lease_timeout_s
        timeout_s = self.local_timeout_s
        if task.deadline is not None:
            remaining = max(0.0, task.deadline - time.monotonic())
            timeout_s = remaining if timeout_s is None else min(timeout_s, remaining)
        return timeout_s

    def _on_reply(self, worker: _WorkerInfo, message: Dict[str, Any]) -> None:
        """Route one ``result`` or ``failure`` message to its task."""
        task_id = str(message.get("task"))
        lease = self._leases.get(task_id)
        if lease is None or lease.worker_id != worker.id:
            # Late (its lease expired, was cancelled or went to another
            # worker) or duplicated (chaos dup): only the lease holder's
            # first reply counts.
            _log.info(
                f"fleet: dropped late {message.get('kind')}",
                extra={"task": task_id, "worker": worker.id},
            )
            return
        del self._leases[task_id]
        task = lease.task
        wall_s = message.get("wall_s")
        if isinstance(wall_s, (int, float)):
            task.wall_s += wall_s
        if message.get("kind") == "failure":
            self._charge(task, worker, ReproError(
                f"{message.get('error_type', 'Error')}: "
                f"{message.get('error', 'worker-side failure')}"
            ), typed=bool(message.get("typed")))
            return
        try:
            values, group_metrics, spans = decode_payload(message.get("payload") or "")
        except Exception as exc:
            self._charge(task, worker, WorkerLostError(
                f"worker {worker.id} returned an unreadable payload for "
                f"task {task.label}: {exc}",
                worker=worker.id,
                task=task_id,
            ))
            return
        get_tracer().adopt(spans)
        worker.tasks_done += 1
        self.tasks_done += 1
        task.values, task.group_metrics, task.local = values, group_metrics, worker.local
        self._finish(task)

    def _charge(
        self,
        task: FleetTask,
        worker: Optional[_WorkerInfo],
        error: BaseException,
        typed: bool = False,
    ) -> None:
        """One failed attempt: count it against the worker, then end the
        submission with it.  Only remote workers are quarantined: a
        local one's failures are its task's."""
        if worker is not None:
            worker.failures += 1
            if (
                worker.status == "active"
                and not worker.local
                and worker.failures >= self.worker_max_failures
            ):
                worker.status = "quarantined"
                _log.warning(
                    "fleet: worker quarantined",
                    extra={"worker": worker.id, "failures": worker.failures},
                )
        self._finish(task, error, typed)

    def _release_worker_leases(
        self, worker: _WorkerInfo, reason: str, charge: bool = False
    ) -> None:
        """Take back every lease the worker holds: charged, or (a clean
        shutdown) requeued for free."""
        held = [
            task_id for task_id, lease in self._leases.items()
            if lease.worker_id == worker.id
        ]
        for task_id in held:
            task = self._leases.pop(task_id).task
            task.lost = True
            if charge:
                self._charge(task, worker, WorkerLostError(
                    f"worker {worker.id} lost while running task "
                    f"{task.label}: {reason}",
                    worker=worker.id,
                    task=task_id,
                ))
            else:
                self._queue.append(task)
                self._work.notify_all()

    def _declare_dead(self, worker: _WorkerInfo, reason: str) -> None:
        worker.status = "dead"
        self.worker_deaths += 1
        _log.warning(
            "fleet: worker died",
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
                "fleet: lease expired",
                extra={
                    "task": task_id,
                    "key": lease.task.label,
                    "worker": lease.worker_id,
                },
            )
            del self._leases[task_id]
            lease.task.lost = True
            self._charge(
                lease.task,
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

    def _starve(self, now: float) -> None:
        """Fail the queue once nobody could lease it for ``wait_s``."""
        if self._local or any(w.leasable() for w in self._workers.values()):
            self._seen = now
            return
        if not self._queue or now - self._seen <= self.wait_s:
            return
        _log.warning(
            "fleet: no worker to lease to",
            extra={"queued": len(self._queue), "ever_connected": self.ever_connected},
        )
        for task in self._queue:
            self._finish(task, FleetTransportError(
                f"no fleet worker attached within {self.wait_s:g}s; "
                "falling back",
                address=self.address,
            ))
        self._queue.clear()


def _level(worker: _WorkerInfo) -> int:
    """Log level of per-worker lines: local workers stay out of
    ``--verbose`` stderr."""
    return logging.DEBUG if worker.local else logging.INFO


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
    Each lease runs through :meth:`SweepEngine.run_group` on the
    worker's one engine, which drops the topology it holds before it
    builds another.
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
    engine = SweepEngine()
    held = None  # the group key of the topology the engine holds

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
                    points, extract, ctx, solver = decode_payload(reply["payload"])
                    ((key, members),) = group_points(points, solver).items()
                    if key != held:
                        engine.clear_cache()
                        held = key
                    tracing = activate_worker_context(ctx)
                    tracer = get_tracer()
                    # Label the TCP hop: one `fleet.task` span per lease,
                    # the solve's `group` span under it, so the
                    # reassembled tree shows coordinator → worker.
                    with tracer.span(
                        "fleet.task",
                        worker=worker_id,
                        task=fingerprint,
                        attempt=int(reply.get("attempt", 1) or 1),
                    ):
                        values: List[Any] = [None] * len(points)
                        group_metrics = engine.run_group(
                            key, members, extract, values, executed="remote"
                        )
                    spans = tracer.drain() if tracing else []
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
                            "typed": isinstance(exc, ReproError),
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
