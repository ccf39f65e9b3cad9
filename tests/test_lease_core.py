"""The fleet's one lease core, driven by both of its callers.

Wire-protocol tests talk raw newline-JSON to the :class:`Fleet` of a
real supervised run and to a replica-style :class:`Fleet` fed through
:meth:`Fleet.solve`, so every path is checked once per caller.  The
service-side lease-failure tests use an in-thread :func:`run_worker`
under a ``REPRO_CHAOS`` drop/dup plan, or a raw-socket fake worker where
a fault must be placed exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import sys
import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    FleetTransportError,
    ReproError,
    TaskTimeoutError,
)
from repro.obs.logs import configure_logging
from repro.runtime import (
    ChaosPlan,
    PDNSpec,
    RunSupervisor,
    SupervisorConfig,
    SweepEngine,
    SweepPoint,
)
from repro.runtime.chaos import CHAOS_ENV
from repro.runtime.engine import group_points
from repro.runtime import fleet as fleet_module
from repro.runtime.fleet import (
    IDLE_HOLD_S,
    PROTOCOL_VERSION,
    Fleet,
    run_worker,
)
from repro.runtime.journal import decode_payload, encode_payload
from repro.service.server import extract_summary

from tests.conftest import TEST_GRID


def _spec(n_layers: int = 2) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)


#: Wall-time bound on a run whose core aborts (a 0.5 s lease included).
ABORT_BOUND_S = 2.0


def _wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


class _RawWorker:
    """A hand-driven worker connection speaking the fleet protocol."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=10.0)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, message) -> None:
        self.sendline(json.dumps(message))

    def sendline(self, line: str) -> None:
        self.sock.sendall((line + "\n").encode("utf-8"))

    def recv(self):
        """The next reply, or None once the coordinator hung up."""
        line = self.reader.readline()
        return json.loads(line) if line else None

    def hello(self, worker_id: str, protocol: int = PROTOCOL_VERSION):
        self.send({"kind": "hello", "worker": worker_id, "protocol": protocol})
        return self.recv()

    def request(self):
        self.send({"kind": "request"})
        return self.recv()

    def result_for(self, lease) -> None:
        """Solve the leased task for real and report it."""
        points, extract, _, solver = decode_payload(lease["payload"])
        ((key, members),) = group_points(points, solver).items()
        values = [None] * len(points)
        group_metrics = SweepEngine().run_group(
            key, members, extract, values, executed="remote"
        )
        self.send({
            "kind": "result",
            "task": lease["task"],
            "payload": encode_payload((values, group_metrics, [])),
        })

    def fail(self, lease, error: str = "boom", **fields) -> None:
        self.send({
            "kind": "failure",
            "task": lease["task"],
            "error": error,
            "error_type": "ValueError",
            **fields,
        })

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


# ----------------------------------------------------------------------
# The two callers behind one harness interface
# ----------------------------------------------------------------------

class _RunOwner:
    """A supervised ``--fleet`` run; the fleet it opens is the core."""

    def __init__(self, monkeypatch, tmp_path, worker_max_failures: int = 3):
        captured = []
        start = Fleet.start

        def capture(fleet):
            captured.append(fleet)
            return start(fleet)

        monkeypatch.setattr(Fleet, "start", capture)
        config = SupervisorConfig(
            run_dir=str(tmp_path),
            fleet="127.0.0.1:0",
            fleet_wait_s=30.0,
            lease_timeout_s=30.0,
            worker_max_failures=worker_max_failures,
            backoff_base_s=0.01,
        )
        points = [SweepPoint(spec=_spec(n)) for n in (2, 3, 4)]
        self.values = None
        self.thread = threading.Thread(
            target=self._run,
            args=(RunSupervisor(config=config), points),
            daemon=True,
        )
        self.thread.start()
        _wait_until(lambda: captured and captured[0].address)
        self.core = captured[0]
        self.address = self.core.address

    def _run(self, supervisor, points):
        self.values = supervisor.run(points, extract=extract_summary).values

    def make_work(self) -> None:
        """The run's tasks are queued from the start."""

    def finish(self) -> None:
        worker = threading.Thread(
            target=run_worker,
            args=(self.address,),
            kwargs={"worker_id": "finisher", "patience_s": 5.0},
            daemon=True,
        )
        worker.start()
        self.thread.join(timeout=60.0)
        worker.join(timeout=10.0)
        assert not self.thread.is_alive()
        assert self.values is not None and None not in self.values


class _ServiceOwner:
    """A replica's :class:`Fleet`; each ``make_work`` queues one query."""

    def __init__(self, monkeypatch, tmp_path, worker_max_failures: int = 3):
        self.core = Fleet(
            "127.0.0.1:0",
            lease_timeout_s=30.0,
            wait_s=30.0,
            worker_max_failures=worker_max_failures,
        )
        self.address = self.core.start()
        self.solves = []
        self.answers = []

    def make_work(self) -> None:
        solve = threading.Thread(
            target=lambda: self.answers.append(
                self.core.solve(_spec(), extract=extract_summary, timeout_s=60.0)
            ),
            daemon=True,
        )
        solve.start()
        self.solves.append(solve)
        _wait_until(lambda: self.core.counters()["queue_depth"] >= 1)

    def finish(self) -> None:
        if not self.solves:
            self.core.close()
            return
        worker = threading.Thread(
            target=run_worker,
            args=(self.address,),
            kwargs={"worker_id": "finisher", "patience_s": 5.0},
            daemon=True,
        )
        worker.start()
        for solve in self.solves:
            solve.join(timeout=60.0)
        self.core.close()
        worker.join(timeout=10.0)
        assert len(self.answers) == len(self.solves)


@pytest.fixture(params=["run", "service"])
def owner(request, monkeypatch, tmp_path):
    factory = {"run": _RunOwner, "service": _ServiceOwner}[request.param]
    made = []

    def make(**kwargs):
        made.append(factory(monkeypatch, tmp_path, **kwargs))
        return made[-1]

    yield make
    for each in made:
        each.finish()


@pytest.fixture
def log_stream():
    stream = io.StringIO()
    configure_logging("warning", stream=stream)
    yield stream
    configure_logging("warning", stream=sys.stderr)


class TestWireProtocol:
    def test_version_skew_hello_is_refused(self, owner):
        fleet = owner()
        raw = _RawWorker(fleet.address)
        reply = raw.hello("skewed", protocol=PROTOCOL_VERSION - 1)
        assert reply["kind"] == "refused"
        assert str(PROTOCOL_VERSION) in reply["reason"]
        assert raw.recv() is None  # and the connection is closed
        raw.close()
        assert "skewed" not in fleet.core._workers

    def test_message_before_hello_closes_the_connection(self, owner):
        fleet = owner()
        raw = _RawWorker(fleet.address)
        raw.send({"kind": "request"})
        assert raw.recv() is None
        raw.close()
        assert fleet.core._workers == {}

    @pytest.mark.parametrize("line", ["{not json", "[1, 2]"])
    def test_unparsable_line_is_logged_and_closes(self, owner, log_stream, line):
        fleet = owner()
        raw = _RawWorker(fleet.address)
        assert raw.hello("garbler")["kind"] == "welcome"
        raw.sendline(line)
        assert raw.recv() is None
        raw.close()
        _wait_until(lambda: "unparsable message" in log_stream.getvalue())
        # One bad peer costs its own connection, never the core.
        assert not fleet.core._stop.is_set()
        assert all(t.is_alive() for t in fleet.core._threads[:2])

    def test_malformed_field_costs_the_field_not_the_core(self, owner):
        fleet = owner()
        raw = _RawWorker(fleet.address)
        assert raw.hello("w-odd")["kind"] == "welcome"
        fleet.make_work()
        lease = raw.request()
        assert lease["kind"] == "lease"
        raw.fail(lease, wall_s="soon")
        record = fleet.core._workers["w-odd"]
        _wait_until(lambda: record.failures == 1)
        assert not fleet.core._stop.is_set()
        assert all(t.is_alive() for t in fleet.core._threads[:2])
        raw.send({"kind": "goodbye"})
        raw.close()

    def test_reconnecting_worker_keeps_its_accounting(self, owner):
        fleet = owner()
        raw = _RawWorker(fleet.address)
        assert raw.hello("w-re")["kind"] == "welcome"
        fleet.make_work()
        lease = raw.request()
        assert lease["kind"] == "lease"
        raw.result_for(lease)
        fleet.make_work()
        lease = raw.request()
        assert lease["kind"] == "lease"
        raw.fail(lease)
        record = fleet.core._workers["w-re"]
        _wait_until(lambda: record.failures == 1)
        raw.close()
        _wait_until(lambda: record.status == "dead")
        again = _RawWorker(fleet.address)
        assert again.hello("w-re")["kind"] == "welcome"
        assert fleet.core._workers["w-re"] is record
        assert record.status == "active"
        assert (record.tasks_done, record.failures) == (1, 1)
        again.send({"kind": "goodbye"})
        again.close()

    def test_reset_connection_is_a_lost_worker(self, owner):
        # A SIGKILLed worker with unread bytes resets its connection; the
        # handler must mourn it like any lost connection, not die on the
        # ConnectionResetError.
        import struct

        raised = []
        hook = threading.excepthook
        threading.excepthook = lambda args: raised.append(args.exc_type)
        try:
            fleet = owner()
            raw = _RawWorker(fleet.address)
            assert raw.hello("w-reset")["kind"] == "welcome"
            record = fleet.core._workers["w-reset"]
            raw.sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            raw.close()
            _wait_until(lambda: record.status == "dead")
            _wait_until(lambda: not any(
                t.name.startswith("fleet-conn") and t.is_alive()
                for t in fleet.core._threads
            ))
        finally:
            threading.excepthook = hook
        assert raised == []

    def test_quarantined_worker_is_told_done(self, owner):
        fleet = owner(worker_max_failures=1)
        raw = _RawWorker(fleet.address)
        assert raw.hello("w-bad")["kind"] == "welcome"
        fleet.make_work()
        lease = raw.request()
        assert lease["kind"] == "lease"
        raw.fail(lease)
        assert raw.request() == {"kind": "done"}
        assert raw.recv() is None
        raw.close()
        assert fleet.core._workers["w-bad"].status == "quarantined"

    def test_handler_threads_are_pruned(self, owner):
        fleet = owner()
        for cycle in range(24):
            raw = _RawWorker(fleet.address)
            assert raw.hello(f"w-{cycle % 3}")["kind"] == "welcome"
            raw.send({"kind": "goodbye"})
            assert raw.recv() is None
            raw.close()
        # accept + reaper + at most a few handlers still winding down.
        assert len(fleet.core._threads) <= 6


# ----------------------------------------------------------------------
# Service-side lease failures
# ----------------------------------------------------------------------

def _direct(spec: PDNSpec):
    return (
        SweepEngine()
        .run([SweepPoint(spec=spec)], extract=extract_summary)
        .values[0]
    )


def _exit_at_once(address: str, worker_id: str) -> None:
    """A local worker's entry that leaves before its hello."""


def _worker_thread(address: str) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker,
        args=(address,),
        kwargs={"worker_id": "chaotic", "patience_s": 5.0},
        daemon=True,
    )
    thread.start()
    return thread


class TestIdleHold:
    def test_held_request_is_answered_when_a_task_is_queued(self):
        fleet = Fleet("127.0.0.1:0", wait_s=30.0)
        raw = _RawWorker(fleet.start())
        answers = []
        solver = threading.Thread(
            target=lambda: answers.append(
                fleet.solve(_spec(), extract=extract_summary, timeout_s=30.0)
            ),
            daemon=True,
        )
        try:
            assert raw.hello("held")["kind"] == "welcome"
            raw.send({"kind": "request"})
            time.sleep(0.2)  # queued after the request arrived idle
            solver.start()
            lease = raw.recv()
            assert lease["kind"] == "lease"
            raw.result_for(lease)
            solver.join(timeout=30.0)
        finally:
            raw.close()
            fleet.close()
        assert answers == [_direct(_spec())]

    def test_request_without_work_is_held_then_told_to_ask_again(self):
        fleet = Fleet("127.0.0.1:0", wait_s=30.0)
        raw = _RawWorker(fleet.start())
        try:
            assert raw.hello("idle")["kind"] == "welcome"
            started = time.monotonic()
            reply = raw.request()
            held_s = time.monotonic() - started
        finally:
            raw.close()
            fleet.close()
        assert reply == {"kind": "idle", "wait_s": 0}
        assert held_s >= IDLE_HOLD_S * 0.9

    def test_close_releases_a_held_request(self):
        fleet = Fleet("127.0.0.1:0", wait_s=30.0)
        raw = _RawWorker(fleet.start())
        try:
            assert raw.hello("held")["kind"] == "welcome"
            raw.send({"kind": "request"})
            time.sleep(0.2)
            fleet.close()
            assert raw.recv() == {"kind": "done"}
        finally:
            raw.close()


class TestServiceLeaseFailures:
    def test_dropped_result_expires_the_lease_and_still_answers(
        self, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, ChaosPlan(drop={"result": [0]}).to_env())
        fleet = Fleet("127.0.0.1:0", lease_timeout_s=1.0, wait_s=20.0)
        worker = _worker_thread(fleet.start())
        try:
            value = fleet.solve(_spec(), extract=extract_summary, timeout_s=60.0)
            counters = fleet.counters()
        finally:
            fleet.close()
        worker.join(timeout=10.0)
        assert value == _direct(_spec())
        assert counters["leases_expired"] >= 1
        assert counters["tasks_done"] == 1

    def test_duplicated_result_counts_once(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, ChaosPlan(dup={"result": [0]}).to_env())
        fleet = Fleet("127.0.0.1:0", wait_s=20.0)
        worker = _worker_thread(fleet.start())
        try:
            value = fleet.solve(_spec(), extract=extract_summary, timeout_s=60.0)
            # Let the duplicate copy arrive before reading the counters.
            time.sleep(0.3)
            counters = fleet.counters()
        finally:
            fleet.close()
        worker.join(timeout=10.0)
        assert value == _direct(_spec())
        assert counters["tasks_done"] == 1

    def test_max_attempts_exhaustion_raises_the_last_typed_error(self):
        fleet = Fleet(
            "127.0.0.1:0", lease_timeout_s=0.5, wait_s=20.0,
            worker_max_failures=10,
        )
        address = fleet.start()
        outcome = []

        def solve():
            try:
                fleet.solve(
                    _spec(), extract=extract_summary, timeout_s=60.0,
                    max_attempts=2,
                )
            except ReproError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=solve, daemon=True)
        caller.start()
        raw = _RawWorker(address)
        try:
            assert raw.hello("fake")["kind"] == "welcome"
            _wait_until(lambda: fleet.counters()["queue_depth"] == 1)
            lease = raw.request()
            assert lease["attempt"] == 1
            raw.fail(lease, "first attempt")
            # Second attempt: hold the lease until it expires.
            lease = raw.request()
            assert lease["kind"] == "lease" and lease["attempt"] == 2
            caller.join(timeout=30.0)
            counters = fleet.counters()
        finally:
            raw.close()
            fleet.close()
        assert len(outcome) == 1
        assert isinstance(outcome[0], TaskTimeoutError)
        assert counters["task_failures"] == 1
        assert counters["leases_expired"] == 1

    def test_zero_length_lease_expires_at_once(self):
        # A lease granted with no time left is spent, not unbounded.
        fleet = Fleet("127.0.0.1:0", lease_timeout_s=0.0, wait_s=20.0)
        address = fleet.start()
        outcome = []

        def solve():
            try:
                fleet.solve(
                    _spec(), extract=extract_summary, timeout_s=30.0,
                    max_attempts=1,
                )
            except ReproError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=solve, daemon=True)
        caller.start()
        raw = _RawWorker(address)
        try:
            assert raw.hello("held")["kind"] == "welcome"
            _wait_until(lambda: fleet.counters()["queue_depth"] == 1)
            lease = raw.request()
            assert lease["lease_timeout_s"] == 0.0
            caller.join(timeout=10.0)
            counters = fleet.counters()
        finally:
            raw.close()
            fleet.close()
        assert [type(exc) for exc in outcome] == [TaskTimeoutError]
        assert counters["leases_expired"] == 1

    def test_local_workers_dying_before_hello_fall_back(self, monkeypatch):
        # Children that exit before their hello are no worker: a solve
        # with no deadline must fall back, not wait on them.
        monkeypatch.setattr(fleet_module, "_local_worker_main", _exit_at_once)
        fleet = Fleet("127.0.0.1:0", wait_s=0.5, local_workers=1)
        fleet.start()
        outcome = []

        def solve():
            try:
                fleet.solve(_spec(), extract=extract_summary)
            except FleetTransportError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=solve, daemon=True)
        caller.start()
        try:
            caller.join(timeout=10.0)
            fell_back = list(outcome)  # before close() fails the task
        finally:
            fleet.close()
        assert len(fell_back) == 1
        assert "no fleet worker attached" in str(fell_back[0])
        assert fleet.respawns >= 1

    def test_local_workers_dying_before_hello_stop_being_respawned(
        self, monkeypatch
    ):
        # Idle, with nothing queued: a child that keeps exiting before
        # its hello is replaced a bounded number of times, not forked on
        # every reaper tick.
        monkeypatch.setattr(fleet_module, "_local_worker_main", _exit_at_once)
        fleet = Fleet("127.0.0.1:0", wait_s=0.5, local_workers=1)
        fleet.start()
        try:
            time.sleep(3.0)
            respawns = fleet.respawns
        finally:
            fleet.close()
        assert 1 <= respawns <= 2

    def test_late_result_after_deadline_abandon_is_dropped(self):
        fleet = Fleet("127.0.0.1:0", wait_s=20.0)
        address = fleet.start()
        outcome = []

        def solve():
            try:
                fleet.solve(_spec(), extract=extract_summary, timeout_s=1.0)
            except DeadlineExceededError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=solve, daemon=True)
        caller.start()
        raw = _RawWorker(address)
        try:
            assert raw.hello("slow")["kind"] == "welcome"
            _wait_until(lambda: fleet.counters()["queue_depth"] == 1)
            lease = raw.request()
            assert lease["kind"] == "lease"
            caller.join(timeout=30.0)
            assert len(outcome) == 1
            raw.result_for(lease)
            raw.send({"kind": "heartbeat"})
            time.sleep(0.3)
            counters = fleet.counters()
            dropped = fleet._workers["slow"].tasks_done
            # The dropped reply cost nothing: the same worker leases and
            # answers the next query.
            answers = []
            caller = threading.Thread(
                target=lambda: answers.append(fleet.solve(
                    _spec(3), extract=extract_summary, timeout_s=30.0
                )),
                daemon=True,
            )
            caller.start()
            lease = raw.request()
            assert lease["kind"] == "lease"
            raw.result_for(lease)
            caller.join(timeout=30.0)
        finally:
            raw.close()
            fleet.close()
        assert counters["tasks_done"] == 0
        assert dropped == 0
        assert answers == [_direct(_spec(3))]


class TestRunCoreErrors:
    def test_fail_fast_abort_on_a_lease_expiry_raises_from_run(self, tmp_path):
        """A lease expiry under fail_fast ends the supervised run, on its
        own thread, promptly: an aborted run neither lingers for its
        frozen worker nor waits on the handler blocked reading it."""
        started = time.monotonic()
        config = SupervisorConfig(
            run_dir=str(tmp_path),
            fleet="127.0.0.1:0",
            fleet_wait_s=30.0,
            lease_timeout_s=0.5,
            fail_fast=True,
        )
        supervisor = RunSupervisor(config=config)
        raised = []

        def run():
            try:
                supervisor.run([SweepPoint(spec=_spec())], extract=extract_summary)
            except ReproError as exc:
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        fleet_file = tmp_path / "fleet.json"
        _wait_until(fleet_file.exists)
        raw = _RawWorker(json.loads(fleet_file.read_text())["address"])
        try:
            assert raw.hello("frozen")["kind"] == "welcome"
            assert raw.request()["kind"] == "lease"
            _wait_until(lambda: raised, timeout_s=30.0)
            # The aborted core releases its workers.
            assert raw.request() == {"kind": "done"}
            runner.join(timeout=30.0)
        finally:
            raw.close()
        assert not runner.is_alive()
        assert len(raised) == 1
        assert isinstance(raised[0], TaskTimeoutError)
        assert time.monotonic() - started <= ABORT_BOUND_S

    def test_journal_error_in_a_fleet_commit_reraises_from_run(
        self, tmp_path, monkeypatch
    ):
        """An OSError from the journal commit of a leased result is the
        run's error, not a dropped worker connection; the fleet releases
        its worker instead of leaving it leasable."""
        started = time.monotonic()
        supervisor = RunSupervisor(config=SupervisorConfig(
            run_dir=str(tmp_path), fleet="127.0.0.1:0", fleet_wait_s=30.0
        ))

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(supervisor, "_commit", full_disk)
        raised = []

        def run():
            try:
                supervisor.run([SweepPoint(spec=_spec())], extract=extract_summary)
            except OSError as exc:
                raised.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        fleet_file = tmp_path / "fleet.json"
        _wait_until(fleet_file.exists)
        address = json.loads(fleet_file.read_text())["address"]

        released = []

        def work():
            # The aborted coordinator releases the worker with ``done``.
            with contextlib.suppress(FleetTransportError):
                released.append(
                    run_worker(address, worker_id="w", patience_s=1.0)
                )

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        runner.join(timeout=30.0)
        worker.join(timeout=10.0)
        assert not runner.is_alive()
        assert len(raised) == 1 and raised[0].errno == 28
        assert time.monotonic() - started <= ABORT_BOUND_S
        assert [r["reconnects"] for r in released] == [0]
