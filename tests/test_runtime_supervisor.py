"""Run supervisor: journal/resume, retry, quarantine, crash recovery."""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.errors import ReproError, ResumeMismatchError
from repro.faults import FaultPlan
from repro.runtime import (
    PDNSpec,
    RunJournal,
    RunSupervisor,
    SupervisorConfig,
    SweepEngine,
    SweepPoint,
)
from repro.runtime.supervisor import task_fingerprint, run_fingerprint
from repro.runtime.engine import group_points

from tests.conftest import TEST_GRID

REL_TOL = 1e-12


def _spec(n_layers: int = 2) -> PDNSpec:
    return PDNSpec.regular(n_layers, grid_nodes=TEST_GRID)


def _points(n_groups: int = 2, per_group: int = 2):
    points = []
    for n_layers in range(2, 2 + n_groups):
        spec = _spec(n_layers)
        for i in range(per_group):
            activities = tuple([1.0 - 0.1 * i] + [1.0] * (n_layers - 1))
            points.append(SweepPoint(spec=spec, layer_activities=activities))
    return points


# Module-level extractors so they pickle into worker processes.
def _ir_extract(outcome):
    return outcome.unwrap().max_ir_drop()


def _crash_once_extract(outcome, marker=None):
    """Kill this worker process hard on the first call that sees the
    marker file (the unlink is atomic, so exactly one caller dies)."""
    if marker is not None:
        try:
            os.unlink(marker)
        except FileNotFoundError:
            pass
        else:
            os._exit(3)
    return outcome.unwrap().max_ir_drop()


def _hang_once_extract(outcome, marker=None):
    """Hang (past any sane deadline) on the first call that sees the
    marker file; instant on every retry."""
    if marker is not None:
        try:
            os.unlink(marker)
        except FileNotFoundError:
            pass
        else:
            time.sleep(120)
    return outcome.unwrap().max_ir_drop()


def _signal_plumbing(outcome):
    """What a worker inherited: SIGTERM/SIGINT at SIG_DFL, and its
    signal wakeup fd (-1 when detached)."""
    import signal

    return (
        signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        signal.getsignal(signal.SIGINT) == signal.SIG_DFL,
        signal.set_wakeup_fd(-1),
    )


def _child_pids():
    """Pids whose parent is this process (zombies included)."""
    children = set()
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid():
            children.add(int(stat.parent.name))
    return children


def _fail_tagged_extract(outcome):
    if outcome.point.tag == "poison":
        raise ValueError("injected extractor failure")
    return outcome.unwrap().max_ir_drop()


class TestFingerprints:
    def test_task_fingerprint_stable_across_processes_inputs(self):
        from functools import partial

        from repro.utils.rng import spawn_seeds

        def build(seed):
            spec = _spec()
            plan = partial(
                _ir_extract, rng=spawn_seeds(seed, 1)[0], fraction=0.1
            )
            points = [SweepPoint(spec=spec, fault_plan=plan, resilient=True)]
            groups = group_points(points)
            (key, members), = groups.items()
            return task_fingerprint(key, members)

        # Same seed -> identical generators by content (their reprs
        # differ by memory address) -> identical fingerprints.
        assert build(7) == build(7)
        assert build(7) != build(8)

    def test_run_fingerprint_depends_on_tasks(self):
        assert run_fingerprint(["a", "b"], 2) != run_fingerprint(["a"], 2)
        assert run_fingerprint(["a"], 2) != run_fingerprint(["a"], 3)


class TestSerialLifecycle:
    def test_plain_run_matches_engine(self):
        points = _points()
        supervised = RunSupervisor().run(points, extract=_ir_extract)
        plain = SweepEngine().run(points, extract=_ir_extract)
        assert supervised.values == plain.values
        report = supervised.report
        assert len(report.completed) == len(report.tasks) == 2
        assert not report.quarantined

    def test_quarantine_keeps_other_groups(self):
        spec_good, spec_bad = _spec(2), _spec(3)
        points = [
            SweepPoint(spec=spec_good),
            SweepPoint(spec=spec_bad, tag="poison"),
        ]
        sup = RunSupervisor(
            config=SupervisorConfig(max_retries=1, backoff_base_s=0.0)
        )
        result = sup.run(points, extract=_fail_tagged_extract)
        assert isinstance(result.values[0], float)
        assert result.values[1] is None
        report = result.report
        assert len(report.quarantined) == 1
        quarantined = report.quarantined[0]
        assert quarantined.attempts == 2  # 1 try + 1 retry
        assert "injected extractor failure" in quarantined.error
        assert report.quarantined_fingerprints() == [quarantined.fingerprint]
        assert result.metrics.quarantined == 1
        assert result.metrics.retries == 1

    def test_quarantine_without_extractor_yields_error_outcomes(self):
        from repro.errors import QuarantinedTopologyError

        class Boom(SweepEngine):
            def run_group(self, key, members, extract, values, executed="local"):
                raise ValueError("always broken")

        sup = RunSupervisor(
            engine=Boom(),
            config=SupervisorConfig(max_retries=0, backoff_base_s=0.0),
        )
        result = sup.run([SweepPoint(spec=_spec())])
        outcome = result.values[0]
        assert isinstance(outcome.error, QuarantinedTopologyError)
        assert outcome.error.task == result.report.tasks[0].fingerprint

    def test_fail_fast_raises(self):
        points = [SweepPoint(spec=_spec(), tag="poison")]
        sup = RunSupervisor(config=SupervisorConfig(fail_fast=True))
        with pytest.raises(ReproError, match="fail-fast"):
            sup.run(points, extract=_fail_tagged_extract)

    def test_backoff_grows_and_caps(self):
        sup = RunSupervisor(
            config=SupervisorConfig(
                backoff_base_s=0.5, backoff_cap_s=2.0, backoff_jitter=0.0
            )
        )
        delays = [sup._backoff_delay(a) for a in (1, 2, 3, 4)]
        assert delays == [0.5, 1.0, 2.0, 2.0]
        jittered = RunSupervisor(
            config=SupervisorConfig(
                backoff_base_s=0.5, backoff_cap_s=2.0, backoff_jitter=0.5
            )
        )
        d = jittered._backoff_delay(1)
        assert 0.5 <= d <= 0.75


class TestJournalAndResume:
    def test_resume_is_bit_identical(self, tmp_path):
        points = _points(n_groups=3)
        baseline = SweepEngine().run(points, extract=_ir_extract)

        run_dir = tmp_path / "run"
        first = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir))
        ).run(points, extract=_ir_extract)
        (journal_path,) = run_dir.glob("journal-*.jsonl")

        # Simulate a SIGKILL mid-run: keep the header and the first
        # completed task record only.
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:2]) + "\n")

        resumed = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir), resume=True)
        ).run(points, extract=_ir_extract)

        # Bit-for-bit: restored AND re-run values equal the baseline.
        assert resumed.values == baseline.values == first.values
        assert resumed.metrics.resumed == 1
        assert len(resumed.report.resumed) == 1
        assert len(resumed.report.completed) == 3

    def test_corrupted_journal_line_reports_line_number(self, tmp_path):
        points = _points()
        run_dir = tmp_path / "run"
        RunSupervisor(config=SupervisorConfig(run_dir=str(run_dir))).run(
            points, extract=_ir_extract
        )
        (journal_path,) = run_dir.glob("journal-*.jsonl")
        lines = journal_path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # truncated record
        journal_path.write_text("\n".join(lines) + "\n")

        with pytest.raises(ResumeMismatchError) as excinfo:
            RunSupervisor(
                config=SupervisorConfig(run_dir=str(run_dir), resume=True)
            ).run(points, extract=_ir_extract)
        assert excinfo.value.line == 2
        assert "line 2" in str(excinfo.value)

    def test_resume_missing_directory_raises(self, tmp_path):
        sup = RunSupervisor(
            config=SupervisorConfig(
                run_dir=str(tmp_path / "nope"), resume=True
            )
        )
        with pytest.raises(ResumeMismatchError, match="does not exist"):
            sup.run(_points(), extract=_ir_extract)

    def test_resume_without_matching_journal_starts_fresh(self, tmp_path):
        # A sub-run that never started before the crash has no journal:
        # resume must run it, not refuse.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        result = RunSupervisor(
            config=SupervisorConfig(run_dir=str(run_dir), resume=True)
        ).run(_points(), extract=_ir_extract)
        assert all(isinstance(v, float) for v in result.values)
        assert result.metrics.resumed == 0
        assert list(run_dir.glob("journal-*.jsonl"))

    def test_journal_schema_mismatch(self, tmp_path):
        path = tmp_path / "journal-x.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema": 999}) + "\n"
        )
        with pytest.raises(ResumeMismatchError, match="schema"):
            RunJournal.open_existing(path)

    def test_atomic_append_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "journal-y.jsonl"
        journal = RunJournal.start(path, {"run_fingerprint": "y"})
        journal.append({"kind": "task", "fingerprint": "t", "status": "done"})
        assert not list(tmp_path.glob("*.tmp"))
        _, header, records = RunJournal.open_existing(path)
        assert header["run_fingerprint"] == "y"
        assert records["t"]["status"] == "done"

    def test_report_file_written(self, tmp_path):
        run_dir = tmp_path / "run"
        sup = RunSupervisor(config=SupervisorConfig(run_dir=str(run_dir)))
        result = sup.run(_points(), extract=_ir_extract)
        (report_path,) = run_dir.glob("report-*.json")
        payload = json.loads(report_path.read_text())
        assert payload["run_fingerprint"] == result.report.run_fingerprint
        assert payload["completed"] == 2
        assert payload["quarantined"] == []
        assert "escalations" in payload
        assert len(payload["tasks"]) == 2


class TestProcessRecovery:
    def test_worker_crash_is_retried_on_rebuilt_pool(self, tmp_path):
        from functools import partial

        marker = tmp_path / "crash-once"
        marker.write_text("armed")
        points = _points(n_groups=2)
        sup = RunSupervisor(
            config=SupervisorConfig(workers=2, backoff_base_s=0.0)
        )
        result = sup.run(
            points, extract=partial(_crash_once_extract, marker=str(marker))
        )
        assert result.metrics.mode == "process"
        assert not marker.exists()  # the crash really happened
        assert result.metrics.pool_rebuilds >= 1
        assert all(isinstance(v, float) for v in result.values)
        assert not result.report.quarantined
        # The crashed task was charged an attempt and then succeeded.
        assert any(t.attempts > 1 for t in result.report.tasks)

    def test_hung_worker_hits_deadline_and_recovers(self, tmp_path):
        from functools import partial

        marker = tmp_path / "hang-once"
        marker.write_text("armed")
        points = [SweepPoint(spec=_spec())]
        sup = RunSupervisor(
            config=SupervisorConfig(
                workers=1,
                task_timeout=3.0,
                backoff_base_s=0.0,
            )
        )
        result = sup.run(
            points, extract=partial(_hang_once_extract, marker=str(marker))
        )
        assert result.metrics.mode == "process"
        assert result.metrics.timeouts >= 1
        assert result.metrics.pool_rebuilds >= 1
        assert isinstance(result.values[0], float)
        assert result.report.tasks[0].timeouts >= 1

    def test_deadline_kill_leaves_no_child_or_fleet_thread(self, tmp_path):
        import threading
        from functools import partial

        def fleet_threads():
            return {
                t for t in threading.enumerate()
                if t.name.startswith("fleet-") and t.is_alive()
            }

        children_before = _child_pids()
        threads_before = fleet_threads()
        marker = tmp_path / "hang-once"
        marker.write_text("armed")
        sup = RunSupervisor(
            config=SupervisorConfig(
                workers=1, task_timeout=2.0, backoff_base_s=0.0
            )
        )
        result = sup.run(
            [SweepPoint(spec=_spec())],
            extract=partial(_hang_once_extract, marker=str(marker)),
        )
        assert result.metrics.timeouts >= 1
        assert result.metrics.pool_rebuilds >= 1
        # The killed worker, its replacement and the core's threads are
        # all gone once the run returns.
        assert _child_pids() - children_before == set()
        assert fleet_threads() - threads_before == set()

    def test_hung_worker_is_respawned_while_its_sibling_lands(self, tmp_path):
        from functools import partial

        marker = tmp_path / "hang-once"
        marker.write_text("armed")
        sup = RunSupervisor(
            config=SupervisorConfig(
                workers=2, task_timeout=2.0, backoff_base_s=0.0
            )
        )
        result = sup.run(
            _points(n_groups=2, per_group=1),
            extract=partial(_hang_once_extract, marker=str(marker)),
        )
        assert not marker.exists()  # one task really hung
        assert result.metrics.mode == "process"
        assert result.metrics.pool_rebuilds == 1
        assert all(isinstance(v, float) for v in result.values)
        hung, sibling = sorted(result.report.tasks, key=lambda t: -t.timeouts)
        assert (hung.timeouts, hung.attempts) == (1, 2)
        assert (sibling.timeouts, sibling.attempts) == (0, 1)

    def test_local_worker_starts_with_default_signal_plumbing(self):
        import signal
        import socket

        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        previous = {
            signum: signal.signal(signum, lambda *_: None)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            result = RunSupervisor(
                config=SupervisorConfig(workers=2)
            ).run(_points(n_groups=2, per_group=1), extract=_signal_plumbing)
        finally:
            signal.set_wakeup_fd(previous_fd)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            reader.close()
            writer.close()
        assert result.metrics.mode == "process"
        assert result.values == [(True, True, -1)] * 2

    def test_process_values_match_serial(self):
        points = _points(n_groups=3)
        serial = RunSupervisor().run(points, extract=_ir_extract)
        process = RunSupervisor(
            config=SupervisorConfig(workers=2)
        ).run(points, extract=_ir_extract)
        assert process.metrics.mode == "process"
        for a, b in zip(serial.values, process.values):
            assert a == pytest.approx(b, rel=REL_TOL)


def _mixed_points():
    """A regular and a voltage-stacked topology, two points each."""
    specs = [
        PDNSpec.regular(2, grid_nodes=TEST_GRID),
        PDNSpec.stacked(2, converters_per_core=4, grid_nodes=TEST_GRID),
    ]
    return [SweepPoint(spec=s) for s in specs for _ in range(2)]


class TestProcessFanOut:
    """The supervisor's local workers are the package's only process
    fan-out."""

    @pytest.mark.parametrize(
        "workers, n_tasks, task_timeout, mode",
        [
            (1, 1, None, "serial"),
            (1, 3, None, "serial"),
            (2, 1, None, "serial"),  # one task: the cached engine wins
            (2, 3, None, "process"),
            (1, 1, 30.0, "process"),  # a deadline needs a killable child
            (1, 3, 30.0, "process"),
            (2, 1, 30.0, "process"),
            (2, 3, 30.0, "process"),
        ],
    )
    def test_pool_rule(self, workers, n_tasks, task_timeout, mode):
        sup = RunSupervisor(
            config=SupervisorConfig(workers=workers, task_timeout=task_timeout)
        )
        points = _points(n_groups=n_tasks, per_group=1)
        assert len(group_points(points)) == n_tasks
        assert sup.run(points, extract=_ir_extract).metrics.mode == mode

    def test_raw_outcomes_and_unpicklable_plans_stay_in_process(self):
        sup = RunSupervisor(config=SupervisorConfig(workers=2, task_timeout=30.0))
        points = _points(n_groups=2, per_group=1)
        assert sup.run(points).metrics.mode == "serial"
        lambda_plan = [
            SweepPoint(spec=_spec(n), fault_plan=lambda pdn: FaultPlan())
            for n in (2, 3)
        ]
        run = sup.run(lambda_plan, extract=_ir_extract)
        assert run.metrics.mode == "serial"
        assert all(isinstance(v, float) for v in run.values)

    def test_process_fanout_matches_serial(self):
        points = _mixed_points()
        serial = RunSupervisor().run(points, extract=_ir_extract)
        process = RunSupervisor(config=SupervisorConfig(workers=2)).run(
            points, extract=_ir_extract
        )
        assert serial.metrics.mode == "serial"
        assert process.metrics.mode == "process"
        assert process.values == serial.values  # bit-identical floats

    def test_unpicklable_extract_falls_back_to_serial(self):
        points = _mixed_points()
        run = RunSupervisor(config=SupervisorConfig(workers=2)).run(
            points, extract=lambda o: o.unwrap().max_ir_drop_fraction()
        )
        assert run.metrics.mode == "serial"
        assert all(v is not None for v in run.values)


class TestMetricsSchemaParity:
    @staticmethod
    def _key_tree(payload, prefix=""):
        keys = set()
        if isinstance(payload, dict):
            for k, v in payload.items():
                keys.add(f"{prefix}{k}")
                keys |= TestMetricsSchemaParity._key_tree(v, f"{prefix}{k}.")
        elif isinstance(payload, list):
            for item in payload:
                keys |= TestMetricsSchemaParity._key_tree(payload[0], prefix)
        return keys

    def test_serial_and_process_emit_same_schema(self):
        """The plain engine, the supervisor's serial path and its local
        workers emit the exact same stage-metrics schema."""
        points = _points(n_groups=2)
        plain = SweepEngine().run(points, extract=_ir_extract)
        serial = RunSupervisor().run(points, extract=_ir_extract)
        process = RunSupervisor(config=SupervisorConfig(workers=2)).run(
            points, extract=_ir_extract
        )
        assert serial.metrics.mode == "serial"
        assert process.metrics.mode == "process"
        process_keys = self._key_tree(process.metrics.to_json())
        assert self._key_tree(serial.metrics.to_json()) == process_keys
        assert self._key_tree(plain.metrics.to_json()) == process_keys

    def test_bench_json_carries_robustness_counters(self, tmp_path, monkeypatch):
        from repro.runtime.metrics import BENCH_DIR_ENV

        monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path))
        sup = RunSupervisor(
            config=SupervisorConfig(max_retries=1, backoff_base_s=0.0)
        )
        points = [
            SweepPoint(spec=_spec(2)),
            SweepPoint(spec=_spec(3), tag="poison"),
        ]
        sup.run(points, extract=_fail_tagged_extract, bench_name="sup_unit")
        payload = json.loads((tmp_path / "BENCH_sup_unit.json").read_text())
        assert payload["schema"] == 8
        assert payload["run_fingerprint"] == sup.last_report.run_fingerprint
        assert payload["totals"]["retries"] == 1
        assert payload["totals"]["quarantined"] == 1
        assert payload["escalations"].get("lu", 0) >= 1


class TestEngineDuckTyping:
    def test_supervisor_slots_into_experiments(self):
        from repro.core.experiments.base import (
            ExperimentConfig,
            resolve_engine,
        )

        config = ExperimentConfig(grid_nodes=TEST_GRID, n_layers=2)
        assert isinstance(resolve_engine(config), SweepEngine)

        config.options["supervision"] = SupervisorConfig()
        engine = resolve_engine(config)
        assert isinstance(engine, RunSupervisor)
        # Pre-built engines are wrapped, not replaced.
        inner = SweepEngine()
        config.options["engine"] = inner
        wrapped = resolve_engine(config)
        assert isinstance(wrapped, RunSupervisor)
        assert wrapped.engine is inner

    def test_supervisor_surface_matches_engine(self):
        sup = RunSupervisor()
        assert sup.cache_info() == sup.engine.cache_info()
        sup.run([SweepPoint(spec=_spec())], extract=_ir_extract)
        assert sup.cache_info()["entries"] == 1
        sup.clear_cache()
        assert sup.cache_info()["entries"] == 0
        assert sup.workers == sup.engine.workers

    def test_clear_cache_forwards_specs(self):
        sup = RunSupervisor()
        sup.run([SweepPoint(spec=_spec(2)), SweepPoint(spec=_spec(3))])
        assert sup.cache_info()["entries"] == 2
        sup.clear_cache([_spec(2)])
        assert [key[0] for key in sup.engine._cache] == [_spec(3)]
        assert sup.cache_info() == sup.engine.cache_info()
