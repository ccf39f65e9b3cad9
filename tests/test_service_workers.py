"""A replica's local solver workers: forked once, leased misses with a
deadline.

``ServiceConfig(workers=2, task_timeout_s=120)`` gives the replica's
:class:`~repro.runtime.fleet.Fleet` two local children for its
whole life.  These tests pin what that promises: answers byte-identical
to a plain replica's from exactly two forks, two misses out on lease at
once, a solve hung past its query's deadline answered 504 with its
worker replaced, and a worker SIGKILLed mid-lease costing a retry, not
the query.  Without ``task_timeout_s`` only a query with a deadline is
leased; the rest solve in-process.  A worker keeps the last topology it
factorised for its next lease, and no other; a typed error it raises is
answered after one lease.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

from repro.obs.trace import get_tracer
from repro.runtime import PDNSpec, SweepEngine, SweepPoint
from repro.service import ServiceClient, ServiceConfig, serve_in_background
from repro.service import server as service_server
from repro.service.server import extract_summary
from repro.workload.imbalance import interleaved_layer_activities

from tests.conftest import TEST_GRID

#: Names the marker file of :func:`_hang_once_summary` (inherited by
#: the forked workers).
_MARKER_ENV = "REPRO_TEST_HANG_MARKER"


def _hang_once_summary(outcome):
    """``extract_summary``, except that the first call to find the marker
    file removes it and hangs far past any test deadline.  Module-level,
    so it pickles by reference into the replica's workers."""
    try:
        os.unlink(os.environ[_MARKER_ENV])
    except (KeyError, FileNotFoundError):
        pass
    else:
        time.sleep(120)
    return extract_summary(outcome)


def _slow_summary(outcome):
    """``extract_summary`` a second late, so two misses overlap."""
    time.sleep(1.0)
    return extract_summary(outcome)


def _replica(tmp_path, name: str, **overrides):
    return serve_in_background(ServiceConfig(
        cache_dir=str(tmp_path / name), bench_name=None, **overrides
    ))


def _armed(tmp_path, monkeypatch):
    """Make the replica's next leased solve hang; returns the marker."""
    marker = tmp_path / "hang-once"
    marker.write_text("armed")
    monkeypatch.setenv(_MARKER_ENV, str(marker))
    monkeypatch.setattr(service_server, "extract_summary", _hang_once_summary)
    return marker


def _wait_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def test_misses_match_a_plain_replica_from_two_forks(tmp_path):
    points = [
        (
            PDNSpec.stacked(n, converters_per_core=c, grid_nodes=TEST_GRID),
            [float(a) for a in interleaved_layer_activities(n, 0.3)],
        )
        for n in (2, 4, 6, 8)
        for c in (2, 4, 8)
    ]
    answers, fleets = {}, {}
    for name, overrides in (
        ("plain", {}),
        ("workers", {"workers": 2, "task_timeout_s": 120.0}),
    ):
        handle = _replica(tmp_path, name, **overrides)
        try:
            with ServiceClient(handle.address, timeout_s=120.0) as client:
                responses = [
                    client.query(spec, activities=activities)
                    for spec, activities in points
                ]
        finally:
            handle.stop()
        assert [(r["status"], r["cached"]) for r in responses] == [
            ("ok", False)
        ] * len(points)
        answers[name] = [
            json.dumps(r["result"], sort_keys=True) for r in responses
        ]
        fleets[name] = handle.service.fleet
    assert answers["workers"] == answers["plain"]
    assert fleets["plain"] is None  # solved in-process
    assert fleets["workers"]._spawned == 2
    assert fleets["workers"].tasks_done == len(points)


def test_two_workers_hold_two_misses_at_once(tmp_path, monkeypatch):
    monkeypatch.setattr(service_server, "extract_summary", _slow_summary)
    handle = _replica(tmp_path, "cache", workers=2, task_timeout_s=120.0)
    fleet = handle.service.fleet
    # Leases already out each time one more is granted.
    held = []
    lease_s = fleet._lease_s

    def spy(task, worker):
        held.append(len(fleet._leases))
        return lease_s(task, worker)

    fleet._lease_s = spy
    answers = {}

    def query(n_layers):
        with ServiceClient(handle.address, timeout_s=60.0) as client:
            answers[n_layers] = client.query(
                PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)
            )

    callers = [
        threading.Thread(target=query, args=(n,), daemon=True) for n in (2, 3)
    ]
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        handle.stop()
    assert [answers[n]["status"] for n in (2, 3)] == ["ok", "ok"]
    assert sorted(held) == [0, 1]
    assert fleet._spawned == 2


def test_workers_lease_only_misses_with_a_deadline(tmp_path):
    handle = _replica(tmp_path, "cache", workers=2)
    fleet = handle.service.fleet
    try:
        with ServiceClient(handle.address, timeout_s=60.0) as client:
            free = client.query(PDNSpec.regular(2, grid_nodes=TEST_GRID))
            in_process = fleet.tasks_done
            bounded = client.query(
                PDNSpec.regular(3, grid_nodes=TEST_GRID), deadline_s=60.0
            )
    finally:
        handle.stop()
    assert (free["status"], bounded["status"]) == ("ok", "ok")
    assert (in_process, fleet.tasks_done) == (0, 1)
    assert fleet._spawned == 2


def test_hung_solve_answers_504_and_its_worker_is_replaced(
    tmp_path, monkeypatch
):
    marker = _armed(tmp_path, monkeypatch)
    handle = _replica(tmp_path, "cache", workers=2, task_timeout_s=120.0)
    fleet = handle.service.fleet
    try:
        with ServiceClient(handle.address, timeout_s=60.0) as client:
            started = time.monotonic()
            hung = client.query(
                PDNSpec.regular(2, grid_nodes=TEST_GRID), deadline_s=2.0
            )
            waited_s = time.monotonic() - started
            _wait_until(lambda: len(fleet._local) == 2)
            answered = client.query(
                PDNSpec.regular(3, grid_nodes=TEST_GRID), deadline_s=60.0
            )
    finally:
        handle.stop()
    assert not marker.exists()  # the solve really hung
    assert (hung["status"], hung["code"]) == ("deadline", 504)
    assert waited_s < 10.0
    assert (fleet.respawns, fleet._spawned) == (1, 3)
    assert answered["status"] == "ok"


def test_sigkilled_worker_mid_lease_still_answers(tmp_path, monkeypatch):
    marker = _armed(tmp_path, monkeypatch)
    handle = _replica(tmp_path, "cache", workers=2, task_timeout_s=120.0)
    fleet = handle.service.fleet
    spec = PDNSpec.regular(2, grid_nodes=TEST_GRID)
    box = {}

    def query():
        with ServiceClient(handle.address, timeout_s=60.0) as client:
            box["response"] = client.query(spec, deadline_s=60.0)

    caller = threading.Thread(target=query, daemon=True)
    try:
        caller.start()
        # The lease's holder removed the marker: it is hanging now.
        _wait_until(lambda: fleet._leases and not marker.exists())
        with fleet._lock:
            (lease,) = fleet._leases.values()
            pid = fleet._local[lease.worker_id].pid
        os.kill(pid, signal.SIGKILL)
        caller.join(timeout=60.0)
    finally:
        handle.stop()
    direct = SweepEngine().run([SweepPoint(spec=spec)], extract=extract_summary)
    assert box["response"]["status"] == "ok"
    assert box["response"]["result"] == direct.values[0]
    assert fleet.worker_deaths == 1
    assert fleet.respawns == 1


def test_concurrent_misses_on_more_workers_than_cores():
    """Nine solves at once on three local workers (more than this suite
    assumes cores): every idle request held on the core's condition
    gets exactly one task, and every answer is the engine's."""
    from repro.runtime.fleet import Fleet

    specs = [
        PDNSpec.regular(n, grid_nodes=TEST_GRID) for n in (2, 3, 4)
    ] + [
        PDNSpec.stacked(n, converters_per_core=c, grid_nodes=TEST_GRID)
        for n in (2, 4)
        for c in (2, 4, 8)
    ]
    fleet = Fleet("127.0.0.1:0", local_workers=3, local_timeout_s=120.0)
    fleet.start()
    answers = [None] * len(specs)

    def solve(index):
        answers[index] = fleet.solve(
            specs[index], extract=extract_summary, timeout_s=120.0
        )

    callers = [
        threading.Thread(target=solve, args=(i,), daemon=True)
        for i in range(len(specs))
    ]
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120.0)
        assert not any(caller.is_alive() for caller in callers)
        counters = fleet.counters()
    finally:
        fleet.close()
    engine = SweepEngine()
    assert answers == [
        engine.run([SweepPoint(spec=spec)], extract=extract_summary).values[0]
        for spec in specs
    ]
    assert (fleet._spawned, counters["tasks_done"]) == (3, len(specs))


def _traced_leases(tmp_path, queries):
    """Ask a traced ``workers=1, task_timeout_s=120`` replica each
    ``(spec, activities)`` miss in turn.  Returns one
    ``(cached, factorized)`` pair per lease: the worker's ``group`` span's
    ``cached`` flag, and whether a ``factorize`` span ran under it."""
    tracer = get_tracer()
    tracer.drain()
    tracer.enable()
    try:
        handle = _replica(
            tmp_path, "cache", workers=1, task_timeout_s=120.0,
            trace_flush_s=3600.0,
        )
        try:
            with ServiceClient(handle.address, timeout_s=60.0) as client:
                for spec, activities in queries:
                    response = client.query(spec, activities=activities)
                    assert (response["status"], response["cached"]) == ("ok", False)
            spans = tracer.drain()
        finally:
            handle.stop()
    finally:
        tracer.disable()
        tracer.drain()
    groups = sorted(
        (
            span for span in spans
            if span.name == "group" and span.attributes["executed"] == "remote"
        ),
        key=lambda span: span.start_s,
    )
    factorized = {span.parent_id for span in spans if span.name == "factorize"}
    return [
        (group.attributes.get("cached"), group.span_id in factorized)
        for group in groups
    ]


def test_a_repeat_lease_reuses_the_workers_factorisation(tmp_path):
    spec = PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID)
    leases = _traced_leases(tmp_path, [(spec, [1.0, 0.5]), (spec, [0.5, 1.0])])
    assert leases == [(False, True), (True, False)]


def test_a_worker_holds_one_topology(tmp_path):
    a = PDNSpec.regular(2, grid_nodes=TEST_GRID)
    b = PDNSpec.regular(3, grid_nodes=TEST_GRID)
    leases = _traced_leases(
        tmp_path, [(a, [1.0, 0.5]), (b, [1.0, 0.5, 0.25]), (a, [0.5, 1.0])]
    )
    assert leases == [(False, True)] * 3


def test_a_typed_worker_error_is_leased_once(tmp_path):
    handle = _replica(tmp_path, "cache", workers=1, task_timeout_s=120.0)
    fleet = handle.service.fleet
    leased = []
    lease_s = fleet._lease_s

    def spy(task, worker):
        leased.append(task.id)
        return lease_s(task, worker)

    fleet._lease_s = spy
    try:
        with ServiceClient(handle.address, timeout_s=60.0) as client:
            response = client.query(
                PDNSpec.regular(2, grid_nodes=TEST_GRID),
                activities=[float("nan")] * 2,
            )
    finally:
        handle.stop()
    assert (response["status"], response["code"]) == ("solve-error", 500)
    assert "NaN" in response["error"]
    assert len(leased) == 1
    assert fleet.task_failures == 1
