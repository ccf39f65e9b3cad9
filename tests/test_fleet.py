"""Distributed fleet: protocol, chaos plans, degradation, satellites.

End-to-end tests run the coordinator inside the supervisor (as
``--fleet`` does) and real :func:`repro.runtime.fleet.run_worker` loops
in background threads (or, for death tests, subprocesses), always
asserting fleet results stay identical to a serial run.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    FleetTransportError,
    ReproError,
    ResumeMismatchError,
    TraceDataError,
)
from repro.runtime import (
    ChaosMonkey,
    ChaosPlan,
    PDNSpec,
    RunJournal,
    RunSupervisor,
    SupervisorConfig,
    SweepPoint,
)
from repro.runtime.chaos import CHAOS_ENV
from repro.runtime.fleet import FLEET_FILE, parse_address, run_worker
from repro.runtime.journal import atomic_write_text, clean_stale_tmp

from tests.conftest import TEST_GRID

REL_TOL = 1e-12
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _points(n_groups: int = 2, per_group: int = 2):
    points = []
    for n_layers in range(2, 2 + n_groups):
        spec = PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)
        for i in range(per_group):
            activities = tuple([1.0 - 0.1 * i] + [1.0] * (n_layers - 1))
            points.append(SweepPoint(spec=spec, layer_activities=activities))
    return points


# Module-level so it pickles by reference into fleet workers (threads
# here, subprocesses in the death tests — both resolve tests.test_fleet).
def _fleet_extract(outcome):
    return outcome.unwrap().max_ir_drop()


def _start_worker_thread(run_dir: pathlib.Path, worker_id: str, results: list):
    """A worker thread that discovers the coordinator via fleet.json."""

    def target():
        fleet_file = run_dir / FLEET_FILE
        deadline = time.monotonic() + 15
        while not fleet_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        address = json.loads(fleet_file.read_text())["address"]
        try:
            results.append(run_worker(address, worker_id=worker_id,
                                      patience_s=5.0))
        except FleetTransportError:
            results.append(None)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _fleet_config(run_dir: pathlib.Path, **overrides) -> SupervisorConfig:
    config = SupervisorConfig(
        run_dir=str(run_dir), fleet="127.0.0.1:0", fleet_wait_s=10.0
    )
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


class TestParseAddress:
    def test_host_port_forms(self):
        assert parse_address("10.0.0.2:7341") == ("10.0.0.2", 7341)
        assert parse_address(":7341") == ("127.0.0.1", 7341)
        assert parse_address("7341") == ("127.0.0.1", 7341)

    def test_rejects_garbage_and_bad_ports(self):
        with pytest.raises(FleetTransportError):
            parse_address("localhost:notaport")
        with pytest.raises(FleetTransportError):
            parse_address("host:70000")
        with pytest.raises(FleetTransportError):
            parse_address("")


class TestChaosPlan:
    def test_env_round_trip(self, monkeypatch):
        plan = ChaosPlan(
            kill_on_task=2, freeze_on_task=1, freeze_s=4.5,
            drop={"result": [0]}, dup={"heartbeat": [3]}, seed=9,
        )
        monkeypatch.setenv(CHAOS_ENV, plan.to_env())
        loaded = ChaosPlan.from_env()
        assert loaded == plan

    def test_missing_and_malformed_env(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert ChaosPlan.from_env() is None
        monkeypatch.setenv(CHAOS_ENV, "{not json")
        assert ChaosPlan.from_env() is None

    def test_seeded_is_deterministic_and_in_range(self):
        a = ChaosPlan.seeded(7, 4, kill=True, freeze=True, drop_result=True)
        b = ChaosPlan.seeded(7, 4, kill=True, freeze=True, drop_result=True)
        assert a == b
        assert 0 <= a.kill_on_task < 4
        assert 0 <= a.freeze_on_task < 4
        assert a.freeze_on_task != a.kill_on_task
        assert ChaosPlan.seeded(8, 4, kill=True) != ChaosPlan.seeded(7, 4, kill=True)

    def test_monkey_drop_dup_and_exemptions(self):
        plan = ChaosPlan(drop={"result": [1]}, dup={"result": [0]},
                         # request is not droppable: must be ignored.
                         )
        plan.drop["request"] = [0]
        monkey = ChaosMonkey(plan)
        assert monkey.copies("request") == 1  # exempt kind
        assert monkey.copies("result") == 2   # dup index 0
        assert monkey.copies("result") == 0   # drop index 1
        assert monkey.copies("result") == 1   # untouched afterwards

    def test_monkey_none_plan_is_noop(self):
        monkey = ChaosMonkey(None)
        monkey.on_task_executed()
        assert monkey.copies("result") == 1


class TestFleetEndToEnd:
    def test_matches_serial_and_accounts_workers(self, tmp_path):
        points = _points(n_groups=3)
        run_dir = tmp_path / "run"
        results: list = []
        thread = _start_worker_thread(run_dir, "t-w1", results)
        supervisor = RunSupervisor(config=_fleet_config(run_dir))
        fleet = supervisor.run(points, extract=_fleet_extract)
        thread.join(timeout=15)

        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        assert fleet.metrics.mode == "fleet"
        report = fleet.report
        assert len(report.completed) == len(report.tasks) == 3
        assert report.worker_deaths == 0
        workers = {w["id"]: w for w in report.workers}
        assert workers["t-w1"]["tasks_done"] == 3
        assert workers["t-w1"]["shutdown"] == "clean"
        assert results and results[0]["tasks_done"] == 3

    def test_two_workers_share_the_run(self, tmp_path):
        points = _points(n_groups=4)
        run_dir = tmp_path / "run"
        results: list = []
        threads = [
            _start_worker_thread(run_dir, f"t-w{i}", results)
            for i in range(2)
        ]
        supervisor = RunSupervisor(config=_fleet_config(run_dir))
        fleet = supervisor.run(points, extract=_fleet_extract)
        for thread in threads:
            thread.join(timeout=15)
        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        done = sum(w["tasks_done"] for w in fleet.report.workers)
        assert done == 4

    def test_report_and_bench_carry_fleet_counters(self, tmp_path, monkeypatch):
        from repro.runtime.metrics import BENCH_SCHEMA
        from repro.runtime.supervisor import REPORT_SCHEMA

        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        points = _points(n_groups=2)
        run_dir = tmp_path / "run"
        results: list = []
        thread = _start_worker_thread(run_dir, "t-w1", results)
        supervisor = RunSupervisor(config=_fleet_config(run_dir))
        fleet = supervisor.run(
            points, extract=_fleet_extract, bench_name="fleet_unit"
        )
        thread.join(timeout=15)

        bench = json.loads((tmp_path / "BENCH_fleet_unit.json").read_text())
        assert bench["schema"] == BENCH_SCHEMA
        assert bench["mode"] == "fleet"
        for counter in ("leases_expired", "worker_deaths", "reassignments"):
            assert counter in bench["totals"]

        report_path, = run_dir.glob("report-*.json")
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["fleet"]["worker_deaths"] == 0
        assert payload["fleet"]["workers"][0]["id"] == "t-w1"
        assert fleet.metrics.to_json()["totals"]["leases_expired"] == 0

    def test_frozen_worker_expires_lease_but_results_match(
        self, tmp_path, monkeypatch
    ):
        # The single worker freezes past the lease deadline on its first
        # task; its late result commits (at-least-once), counters record
        # the expiry, and values still match a serial run.
        monkeypatch.setenv(
            CHAOS_ENV, ChaosPlan(freeze_on_task=0, freeze_s=1.2).to_env()
        )
        points = _points(n_groups=2)
        run_dir = tmp_path / "run"
        results: list = []
        thread = _start_worker_thread(run_dir, "t-frozen", results)
        supervisor = RunSupervisor(
            config=_fleet_config(run_dir, lease_timeout_s=0.4)
        )
        fleet = supervisor.run(points, extract=_fleet_extract)
        thread.join(timeout=20)
        monkeypatch.delenv(CHAOS_ENV)

        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        assert fleet.metrics.leases_expired >= 1
        # An expired lease is a timeout of its task.
        assert fleet.metrics.timeouts >= 1
        assert fleet.report.n_timeouts == fleet.metrics.timeouts
        assert not fleet.report.quarantined

    def test_dropped_result_reassigns_lease(self, tmp_path, monkeypatch):
        # The worker solves its first task but the result message is
        # dropped: the lease expires, the task is re-leased to the same
        # worker, and the second delivery lands.
        monkeypatch.setenv(
            CHAOS_ENV, ChaosPlan(drop={"result": [0]}).to_env()
        )
        points = _points(n_groups=2)
        run_dir = tmp_path / "run"
        results: list = []
        thread = _start_worker_thread(run_dir, "t-lossy", results)
        supervisor = RunSupervisor(
            config=_fleet_config(run_dir, lease_timeout_s=0.4)
        )
        fleet = supervisor.run(points, extract=_fleet_extract)
        thread.join(timeout=20)
        monkeypatch.delenv(CHAOS_ENV)

        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        assert fleet.metrics.leases_expired >= 1
        assert fleet.metrics.reassignments >= 1

    def test_duplicated_result_commits_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV, ChaosPlan(dup={"result": [0]}).to_env()
        )
        points = _points(n_groups=2)
        run_dir = tmp_path / "run"
        results: list = []
        thread = _start_worker_thread(run_dir, "t-dup", results)
        supervisor = RunSupervisor(config=_fleet_config(run_dir))
        fleet = supervisor.run(points, extract=_fleet_extract)
        thread.join(timeout=15)
        monkeypatch.delenv(CHAOS_ENV)

        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        # A double commit would append the group twice.
        assert len(fleet.metrics.groups) == 2


class TestFleetDegradation:
    def test_no_workers_falls_back_in_process(self, tmp_path):
        points = _points(n_groups=2)
        supervisor = RunSupervisor(
            config=_fleet_config(tmp_path / "run", fleet_wait_s=0.3)
        )
        fleet = supervisor.run(points, extract=_fleet_extract)
        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        assert fleet.metrics.mode == "serial"
        assert fleet.report.worker_deaths == 0
        assert len(fleet.report.completed) == 2

    def test_grace_wait_is_paid_once_per_supervisor(self, tmp_path, monkeypatch):
        # A multi-run experiment (headline makes 16 runs) must not wait
        # out fleet_wait_s in every run when no worker ever attaches.
        from repro.runtime.fleet import FleetCoordinator

        waits = []
        poll = FleetCoordinator.poll

        def counting_poll(coordinator):
            waits.append(coordinator)
            return poll(coordinator)

        monkeypatch.setattr(FleetCoordinator, "poll", counting_poll)
        supervisor = RunSupervisor(
            config=_fleet_config(tmp_path / "run", fleet_wait_s=0.5)
        )
        sweeps = [_points(n_groups=1, per_group=k) for k in (1, 2, 3)]
        fleet = [supervisor.run(points, extract=_fleet_extract) for points in sweeps]
        assert len(waits) == 1
        for result, points in zip(fleet, sweeps):
            serial = RunSupervisor().run(points, extract=_fleet_extract)
            assert result.values == serial.values
            assert result.metrics.mode == "serial"

    def test_unbindable_address_falls_back(self, tmp_path):
        supervisor = RunSupervisor(
            config=SupervisorConfig(
                run_dir=str(tmp_path / "run"),
                # 203.0.113.1 is TEST-NET: never a local interface.
                fleet="203.0.113.1:1",
                fleet_wait_s=0.3,
            )
        )
        points = _points(n_groups=2)
        result = supervisor.run(points, extract=_fleet_extract)
        assert all(v is not None for v in result.values)
        assert len(result.report.completed) == 2

    def test_raw_outcome_sweeps_stay_in_process(self, tmp_path):
        supervisor = RunSupervisor(
            config=_fleet_config(tmp_path / "run", fleet_wait_s=0.3)
        )
        result = supervisor.run(_points(n_groups=2), extract=None)
        assert all(o.error is None for o in result.values)
        assert result.metrics.mode == "serial"

    def test_worker_death_degrades_and_completes(self, tmp_path):
        # A real subprocess worker SIGKILLs itself mid-task; with no
        # replacement the coordinator waits out fleet_wait_s and the
        # supervisor finishes the sweep in-process.  The wait must cover
        # the worker interpreter's startup, or the run degrades before
        # the worker ever registers.
        points = _points(n_groups=2)
        run_dir = tmp_path / "run"
        supervisor = RunSupervisor(
            config=_fleet_config(run_dir, fleet_wait_s=8.0)
        )
        holder: dict = {}

        def spawn():
            fleet_file = run_dir / FLEET_FILE
            deadline = time.monotonic() + 15
            while not fleet_file.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            address = json.loads(fleet_file.read_text())["address"]
            env = dict(os.environ)
            env["PYTHONPATH"] = (
                str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
            )
            env[CHAOS_ENV] = ChaosPlan(kill_on_task=0).to_env()
            holder["proc"] = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker", address,
                 "--worker-id", "t-doomed", "--patience", "5"],
                cwd=str(REPO_ROOT), env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )

        thread = threading.Thread(target=spawn, daemon=True)
        thread.start()
        fleet = supervisor.run(points, extract=_fleet_extract)
        thread.join(timeout=20)
        proc = holder.get("proc")
        assert proc is not None
        proc.wait(timeout=30)

        serial = RunSupervisor().run(points, extract=_fleet_extract)
        assert fleet.values == serial.values
        assert fleet.report.worker_deaths == 1
        workers = {w["id"]: w for w in fleet.report.workers}
        assert workers["t-doomed"]["shutdown"] == "died"
        assert not fleet.report.quarantined


class TestJournalSalvage:
    def _run_and_tear(self, run_dir: pathlib.Path, points):
        supervisor = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir))
        )
        first = supervisor.run(points, extract=_fleet_extract)
        journal, = run_dir.glob("journal-*.jsonl")
        lines = journal.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        journal.write_text("\n".join(lines) + "\n")
        return first, journal, len(lines) - 2  # intact task records

    def test_strict_resume_refuses_torn_journal(self, tmp_path):
        points = _points(n_groups=3)
        self._run_and_tear(tmp_path, points)
        supervisor = RunSupervisor(
            config=SupervisorConfig(run_dir=str(tmp_path), resume=True)
        )
        with pytest.raises(ResumeMismatchError):
            supervisor.run(points, extract=_fleet_extract)

    def test_salvage_truncates_restores_and_reruns(self, tmp_path):
        points = _points(n_groups=3)
        first, journal, intact = self._run_and_tear(tmp_path, points)
        supervisor = RunSupervisor(
            config=SupervisorConfig(
                run_dir=str(tmp_path), resume=True, salvage=True
            )
        )
        resumed = supervisor.run(points, extract=_fleet_extract)
        assert resumed.values == first.values
        assert resumed.metrics.resumed == intact
        assert len(resumed.report.completed) == 3
        # The journal was rewritten whole: intact prefix + the re-run.
        lines = journal.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_salvage_never_rescues_a_torn_header(self, tmp_path):
        points = _points(n_groups=2)
        RunSupervisor(
            config=SupervisorConfig(run_dir=str(tmp_path))
        ).run(points, extract=_fleet_extract)
        journal, = tmp_path.glob("journal-*.jsonl")
        lines = journal.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResumeMismatchError):
            RunJournal.open_existing(journal, salvage=True)

    def test_salvage_flag_off_by_default(self):
        assert SupervisorConfig().salvage is False


class TestStaleTmpCleanup:
    def test_clean_stale_tmp_removes_and_reports(self, tmp_path):
        keep = tmp_path / "journal-abc.jsonl"
        keep.write_text("{}\n")
        stale = tmp_path / "journal-abc.jsonl.tmp"
        stale.write_text('{"kind": "task", "trunc')
        other = tmp_path / "trace-abc.jsonl.tmp"
        other.write_text("partial")
        removed = clean_stale_tmp(tmp_path)
        assert sorted(p.name for p in removed) == [
            "journal-abc.jsonl.tmp", "trace-abc.jsonl.tmp",
        ]
        assert keep.exists() and not stale.exists() and not other.exists()

    def test_clean_stale_tmp_missing_dir_is_noop(self, tmp_path):
        assert clean_stale_tmp(tmp_path / "nope") == []

    @pytest.mark.parametrize("durable", [True, False])
    def test_atomic_write_leaves_no_tmp_on_success(self, tmp_path, durable):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "{}\n", durable=durable)
        assert path.read_text() == "{}\n"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("durable", [True, False])
    def test_resume_ignores_crash_stranded_tmp(self, tmp_path, durable):
        # Simulate a crash between the tmp write and the rename of
        # atomic_write_text (both durability flavours strand the same
        # "<name>.tmp"): resume must clean it up and restore normally.
        points = _points(n_groups=2)
        first = RunSupervisor(
            config=SupervisorConfig(run_dir=str(tmp_path))
        ).run(points, extract=_fleet_extract)
        journal, = tmp_path.glob("journal-*.jsonl")
        stranded = journal.with_name(journal.name + ".tmp")
        stranded.write_text(journal.read_text()[:-20])  # torn payload
        trace_tmp = tmp_path / "trace-deadbeef.jsonl.tmp"
        trace_tmp.write_text('{"kind": "span", "trunc')

        resumed = RunSupervisor(
            config=SupervisorConfig(run_dir=str(tmp_path), resume=True)
        ).run(points, extract=_fleet_extract)
        assert resumed.values == first.values
        assert resumed.metrics.resumed == 2
        assert not stranded.exists()
        assert not trace_tmp.exists()


class TestDeterministicBackoff:
    def test_jitter_is_a_pure_function_of_task_and_attempt(self):
        sup_a = RunSupervisor(config=SupervisorConfig())
        sup_b = RunSupervisor(config=SupervisorConfig())
        for attempts in (1, 2, 5):
            assert sup_a._backoff_delay(attempts, "fp-1") == (
                sup_b._backoff_delay(attempts, "fp-1")
            )
        # Distinct tasks still spread out.
        assert sup_a._backoff_delay(1, "fp-1") != sup_a._backoff_delay(1, "fp-2")
        # And the jittered delay stays inside the documented envelope.
        config = sup_a.config
        for attempts in (1, 2, 3):
            base = min(
                config.backoff_cap_s,
                config.backoff_base_s * 2 ** (attempts - 1),
            )
            delay = sup_a._backoff_delay(attempts, "fp-x")
            assert base <= delay <= base * (1.0 + config.backoff_jitter)

    def test_independent_of_global_rng_state(self):
        import random

        sup = RunSupervisor(config=SupervisorConfig())
        random.seed(1)
        first = sup._backoff_delay(2, "fp-1")
        random.seed(99)
        random.random()
        assert sup._backoff_delay(2, "fp-1") == first


class TestTraceDataErrors:
    def _trace_cli(self, path):
        from repro.cli import main

        return main(["trace", str(path)])

    def test_missing_trace_is_a_one_line_exit(self, tmp_path, capsys):
        assert self._trace_cli(tmp_path) == 2
        err = capsys.readouterr().err
        assert "TraceDataError" in err
        assert "no trace-*.jsonl" in err

    def test_empty_trace_file_raises_typed_error(self, tmp_path):
        from repro.core.experiments.traceview import TraceExperiment
        from repro.core.experiments.base import ExperimentConfig

        trace = tmp_path / "trace-feedc0de.jsonl"
        trace.write_text("")
        config = ExperimentConfig(options={"path": str(tmp_path)})
        with pytest.raises(TraceDataError):
            TraceExperiment().run(config)

    def test_header_only_trace_raises_typed_error(self, tmp_path):
        trace = tmp_path / "trace-feedc0de.jsonl"
        trace.write_text(
            '{"kind": "header", "schema": 1, "run_fingerprint": "x"}\n'
        )
        assert self._trace_cli(tmp_path) == 2

    def test_torn_trace_raises_typed_error_with_line(self, tmp_path):
        from repro.obs.export import load_trace

        trace = tmp_path / "trace-feedc0de.jsonl"
        trace.write_text(
            '{"kind": "header", "schema": 1}\n{"kind": "span", "trunc'
        )
        with pytest.raises(TraceDataError) as excinfo:
            load_trace(trace)
        assert "line 2" in str(excinfo.value)
        assert excinfo.value.path == str(trace)
        assert self._trace_cli(tmp_path) == 2

    def test_trace_errors_are_repro_errors(self):
        assert issubclass(TraceDataError, ReproError)

    def test_flush_tolerates_torn_existing_trace(self, tmp_path):
        from repro.obs.export import flush_spans, load_trace
        from repro.obs.trace import Tracer

        trace = tmp_path / "trace-feedc0de.jsonl"
        trace.write_text('{"kind": "span", "broken')
        tracer = Tracer()
        tracer.enable(trace_id="feedc0de")
        with tracer.span("sweep"):
            pass
        path = flush_spans(tracer.drain(), "feedc0de", trace_dir=tmp_path)
        assert path == trace
        spans = load_trace(trace)
        assert [s.name for s in spans] == ["sweep"]
