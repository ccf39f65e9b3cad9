"""Resilient run supervision for long sweeps.

:class:`RunSupervisor` wraps a :class:`repro.runtime.engine.SweepEngine`
in a fault-tolerant run lifecycle while keeping the engine's calling
convention (``run(points, extract, bench_name)``), so every experiment
and the design-space explorer can be supervised without code changes:

* Each topology group becomes a *task* with a content fingerprint
  (spec key + fault-plan description + member activities).  A
  write-ahead journal (:mod:`repro.runtime.journal`) records every
  finished task with its pickled values, so ``--resume <run_dir>``
  restores completed tasks bit-for-bit and only re-runs the remainder.

* Failing tasks are retried with exponential backoff and jitter.  A
  task that exhausts ``max_retries`` is *quarantined*: the run keeps
  going, the task's points come back as ``None`` (or as outcomes
  carrying a :class:`repro.errors.QuarantinedTopologyError`), and the
  final :class:`RunReport` names the quarantined fingerprints.

* In process mode, tasks are leased to local worker processes through
  the fleet's lease core (:func:`repro.runtime.fleet.execute_fleet`):
  a crashed or hung (``task_timeout``) worker alone is killed and
  respawned, and its task is charged an attempt.

Task state machine::

    pending -> running -> done
                 |  ^        \\-> (journaled, restored on resume)
                 v  |
              retrying -> quarantined

The supervisor degrades gracefully: unless ``fail_fast`` is set, a run
always returns a partial result set plus a machine-readable
:class:`RunReport` (also written as ``report-<fingerprint>.json`` into
the run directory) instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pathlib
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    QuarantinedTopologyError,
    ReproError,
    ResumeMismatchError,
)
from repro.obs.logs import get_logger
from repro.obs.trace import get_tracer
from repro.runtime.engine import (
    GroupKey,
    SweepEngine,
    SweepOutcome,
    SweepPoint,
    SweepResult,
    close_run,
    group_label,
    open_run,
)
from repro.runtime.fingerprint import run_fingerprint, task_fingerprint
from repro.runtime.journal import (
    RunJournal,
    atomic_write_text,
    clean_stale_tmp,
    decode_payload,
    encode_payload,
)
from repro.runtime.metrics import GroupMetrics, SweepMetrics
from repro.runtime.spec import PDNSpec

__all__ = [
    "SupervisorConfig",
    "TaskRecord",
    "RunReport",
    "SupervisedResult",
    "RunSupervisor",
    "task_fingerprint",
    "run_fingerprint",
]

#: Schema version of the emitted report-<fp>.json files.
#: v2 added the physics-contract histogram ("contracts").
#: v3 added the fleet counters (leases_expired, worker_deaths,
#: reassignments) and the per-worker accounting list ("workers") —
#: additive, so v2 readers keep working.
REPORT_SCHEMA = 3

#: Module logger (JSON-line records via repro.obs.logs).
_log = get_logger(__name__)


# ----------------------------------------------------------------------
# Fingerprints live in repro.runtime.fingerprint (shared with the engine
# and the trace exporters); task_fingerprint / run_fingerprint are
# re-exported here for compatibility.
# ----------------------------------------------------------------------
# Configuration and reporting dataclasses
# ----------------------------------------------------------------------

@dataclass
class SupervisorConfig:
    """Knobs of the supervised run lifecycle.

    The CLI sets all but the backoff fields and ``worker_max_failures``.
    """

    #: Retries per task after its first attempt (so a task gets
    #: ``max_retries + 1`` attempts before quarantine).
    max_retries: int = 2
    #: Per-task wall-clock deadline in seconds; None disables deadline
    #: monitoring.  It is a local worker's lease length: enforcement
    #: requires process mode (a hung in-process solve cannot be killed).
    task_timeout: Optional[float] = None
    #: Abort the run on the first task failure instead of retrying.
    fail_fast: bool = False
    #: Directory for the write-ahead journal and run report; None
    #: disables journaling (retry/quarantine still work).
    run_dir: Optional[str] = None
    #: Replay an existing journal in ``run_dir`` before running.
    resume: bool = False
    #: With ``resume``: truncate the journal at its first corrupted
    #: record (logged) instead of refusing with ResumeMismatchError.
    salvage: bool = False
    #: Local workers a run may fork.  A run uses them when it has a
    #: deadline to enforce, or more than one task and ``workers > 1``.
    workers: int = 1
    #: Coordinator bind address ("host:port") for the distributed sweep
    #: fleet; None keeps everything in-process.  With an address set,
    #: tasks are leased to connected ``repro worker`` processes and the
    #: run degrades transparently to the in-process path when no worker
    #: ever connects (or the transport cannot be brought up).
    fleet: Optional[str] = None
    #: Per-lease deadline of a remote worker; an expired lease is
    #: reassigned (a late result is dropped by the idempotent commit).
    lease_timeout_s: float = 60.0
    #: How long the coordinator waits for a first remote worker before
    #: falling back to the in-process execution path.
    fleet_wait_s: float = 10.0
    #: Failed attempts a single remote worker may accumulate before the
    #: coordinator stops leasing to it (its own quarantine).
    worker_max_failures: int = 3
    #: Exponential backoff: base * 2**(attempt-1), capped, jittered.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    backoff_jitter: float = 0.25
    #: Print the one-line run summary to stderr after each run.
    verbose: bool = False


@dataclass
class TaskRecord:
    """Public per-task accounting, embedded in the run report."""

    fingerprint: str
    label: str
    status: str = "pending"  # pending|running|retrying|done|quarantined|resumed
    attempts: int = 0
    timeouts: int = 0
    wall_s: float = 0.0
    n_points: int = 0
    error: Optional[str] = None


@dataclass
class RunReport:
    """Machine-readable outcome of one supervised run."""

    run_fingerprint: str
    n_points: int
    tasks: List[TaskRecord] = field(default_factory=list)
    mode: str = "serial"
    wall_s: float = 0.0
    pool_rebuilds: int = 0
    escalation_histogram: Dict[str, int] = field(default_factory=dict)
    #: Physics-contract status counts over the run's points (check
    #: statuses plus "degraded_points"); see BENCH schema v3.
    contract_histogram: Dict[str, int] = field(default_factory=dict)
    #: Fleet robustness counters (zero for in-process runs).
    leases_expired: int = 0
    worker_deaths: int = 0
    reassignments: int = 0
    #: Per-worker accounting dicts from the fleet coordinator
    #: (worker id, tasks done, failures, clean shutdown vs death).
    workers: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> List[TaskRecord]:
        return [t for t in self.tasks if t.status in ("done", "resumed")]

    @property
    def resumed(self) -> List[TaskRecord]:
        return [t for t in self.tasks if t.status == "resumed"]

    @property
    def retried(self) -> List[TaskRecord]:
        return [t for t in self.tasks if t.status != "resumed" and t.attempts > 1]

    @property
    def quarantined(self) -> List[TaskRecord]:
        return [t for t in self.tasks if t.status == "quarantined"]

    def quarantined_fingerprints(self) -> List[str]:
        return [t.fingerprint for t in self.quarantined]

    @property
    def n_timeouts(self) -> int:
        return sum(t.timeouts for t in self.tasks)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "schema": REPORT_SCHEMA,
            "run_fingerprint": self.run_fingerprint,
            "mode": self.mode,
            "wall_s": round(self.wall_s, 6),
            "n_points": self.n_points,
            "n_tasks": len(self.tasks),
            "completed": len(self.completed),
            "resumed": len(self.resumed),
            "retried": len(self.retried),
            "timeouts": self.n_timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": self.quarantined_fingerprints(),
            "escalations": dict(self.escalation_histogram),
            "contracts": dict(self.contract_histogram),
            "fleet": {
                "leases_expired": self.leases_expired,
                "worker_deaths": self.worker_deaths,
                "reassignments": self.reassignments,
                "workers": [dict(w) for w in self.workers],
            },
            "tasks": [asdict(t) for t in self.tasks],
        }

    def summary(self) -> str:
        fleet = ""
        if self.leases_expired or self.worker_deaths or self.reassignments:
            fleet = (
                f", {self.worker_deaths} worker death(s), "
                f"{self.leases_expired} lease(s) expired, "
                f"{self.reassignments} reassignment(s)"
            )
        return (
            f"run {self.run_fingerprint}: {len(self.completed)}/"
            f"{len(self.tasks)} task(s) done "
            f"({len(self.resumed)} resumed, {len(self.retried)} retried, "
            f"{len(self.quarantined)} quarantined, "
            f"{self.pool_rebuilds} worker respawn(s){fleet}) "
            f"in {self.wall_s:.2f}s"
        )


@dataclass
class SupervisedResult(SweepResult):
    """A SweepResult plus the supervisor's run report."""

    report: Optional[RunReport] = None


@dataclass
class _Task:
    """Internal mutable task state tracked across attempts."""

    fingerprint: str
    label: str
    key: GroupKey
    members: List[Tuple[int, SweepPoint]]
    attempts: int = 0
    timeouts: int = 0
    ready_at: float = 0.0
    wall_s: float = 0.0
    last_error: Optional[BaseException] = None


@dataclass
class _RunState:
    """Shared mutable state of one supervised run.

    Both execution paths — serial, and the fleet coordinator with its
    remote and local workers — route their outcomes through the same
    commit / retry / quarantine core by mutating one of these.  ``queue`` holds
    tasks awaiting (re-)execution; ``_handle_failure`` pushes retries
    back onto it with their backoff ``ready_at`` stamped.
    """

    values: List[Any]
    metrics: SweepMetrics
    records: Dict[str, TaskRecord]
    journal: Optional[RunJournal]
    extract: Optional[Callable[[SweepOutcome], Any]]
    queue: List[_Task] = field(default_factory=list)
    #: Per-worker accounting dicts filled in by the fleet coordinator.
    fleet_workers: List[Dict[str, Any]] = field(default_factory=list)

    def record(self, task: _Task) -> TaskRecord:
        return self.records[task.fingerprint]

    def committed(self, task: _Task) -> bool:
        """True once the task's result landed (idempotence guard)."""
        return self.records[task.fingerprint].status in ("done", "resumed")


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

class RunSupervisor:
    """Fault-tolerant wrapper around a :class:`SweepEngine`.

    Duck-types the engine surface (``run`` / ``cache_info`` /
    ``clear_cache`` / ``workers``) so it can be dropped anywhere an
    engine is accepted — experiments, the explorer, tools.
    """

    def __init__(
        self,
        engine: Optional[SweepEngine] = None,
        config: Optional[SupervisorConfig] = None,
        **overrides: Any,
    ):
        if config is None:
            config = SupervisorConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.engine = engine or SweepEngine()
        #: Report of the most recent run (headline-style multi-run
        #: callers find all of them in :attr:`reports`).
        self.last_report: Optional[RunReport] = None
        self.reports: List[RunReport] = []
        #: Set once a fleet run ends with no worker ever attached; later
        #: runs then skip the fleet's grace wait and run in-process.
        self._fleet_unattended = False

    # ------------------------------------------------------------------
    # Engine-compatible surface
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return max(1, int(self.config.workers))

    @property
    def in_process(self) -> bool:
        """Whether every run stays in this process, on :attr:`engine`:
        one worker, no fleet and no task deadline to enforce."""
        config = self.config
        return (
            self.workers == 1
            and config.fleet is None
            and config.task_timeout is None
        )

    def cache_info(self) -> Dict[str, int]:
        return self.engine.cache_info()

    def clear_cache(self, specs: Optional[Iterable[PDNSpec]] = None) -> None:
        self.engine.clear_cache(specs)

    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[SweepPoint],
        extract: Optional[Callable[[SweepOutcome], Any]] = None,
        bench_name: Optional[str] = None,
    ) -> SupervisedResult:
        """Evaluate every point under the supervised lifecycle.

        Same contract as :meth:`SweepEngine.run`, except that task
        failures are retried/quarantined rather than raised (unless
        ``fail_fast``) and the result carries a :class:`RunReport`.
        """
        if self.config.verbose:
            # --verbose promises INFO lines (the fleet's address, the run
            # summary) on stderr whatever the configured log level, from
            # this run's first line on.
            root = logging.getLogger("repro")
            if root.level > logging.INFO:
                root.setLevel(logging.INFO)
        with open_run(points, self.workers, supervised=True) as frame:
            metrics = frame.metrics
            run_fp = metrics.run_fingerprint
            tasks = [
                _Task(
                    fingerprint=fingerprint,
                    label=group_label(key),
                    key=key,
                    members=members,
                )
                for fingerprint, (key, members) in zip(
                    frame.task_fingerprints, frame.groups.items()
                )
            ]
            values: List[Any] = [None] * len(frame.points)
            records: Dict[str, TaskRecord] = {
                task.fingerprint: TaskRecord(
                    fingerprint=task.fingerprint,
                    label=task.label,
                    n_points=len(task.members),
                )
                for task in tasks
            }
            journal, journaled = self._open_journal(run_fp, tasks, len(values))
            state = _RunState(
                values=values,
                metrics=metrics,
                records=records,
                journal=journal,
                extract=extract,
            )
            pending = self._restore(tasks, journaled, state)

            # Local workers pay for a deadline to enforce or for tasks to
            # spread: forked for this run, each starts with an empty
            # engine and factorises every task (a topology) it leases.
            spread = self.workers > 1 and len(pending) > 1
            local = self.workers if spread or self.config.task_timeout else 0
            remote = self.config.fleet is not None and not self._fleet_unattended
            if pending and (local or remote):
                # Leased path; returns whatever its workers could not
                # finish (everything, when the transport is down or no
                # worker ever connected) for the serial path.
                from repro.runtime.fleet import execute_fleet

                pending = execute_fleet(self, pending, state, local, remote)
            if pending:
                self._execute_serial(pending, state)
            frame.span.set(mode=metrics.mode, resumed=metrics.resumed)

        # Stable first-appearance ordering: worker and resumed tasks
        # land out of order.
        order = {task.label: i for i, task in enumerate(tasks)}
        metrics.groups.sort(key=lambda g: order.get(g.key, len(order)))

        metrics.retries = sum(
            max(0, r.attempts - 1)
            for r in records.values()
            if r.status != "resumed"
        )
        metrics.quarantined = len(
            [r for r in records.values() if r.status == "quarantined"]
        )
        metrics.timeouts = sum(r.timeouts for r in records.values())
        close_run(frame, self.cache_info(), bench_name)

        report = RunReport(
            run_fingerprint=run_fp,
            n_points=len(values),
            tasks=[records[task.fingerprint] for task in tasks],
            mode=metrics.mode,
            wall_s=metrics.wall_s,
            pool_rebuilds=metrics.pool_rebuilds,
            escalation_histogram=metrics.escalation_histogram(),
            contract_histogram=metrics.contract_histogram(),
            leases_expired=metrics.leases_expired,
            worker_deaths=metrics.worker_deaths,
            reassignments=metrics.reassignments,
            workers=state.fleet_workers,
        )
        self.last_report = report
        self.reports.append(report)
        if self.config.run_dir is not None:
            path = pathlib.Path(self.config.run_dir) / f"report-{run_fp}.json"
            atomic_write_text(
                path, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
            )
        if self.config.verbose:
            _log.info(
                report.summary(),
                extra={
                    "run_fingerprint": run_fp,
                    "mode": metrics.mode,
                    "quarantined": len(report.quarantined),
                    "retried": len(report.retried),
                },
            )
        return SupervisedResult(values=values, metrics=metrics, report=report)

    # ------------------------------------------------------------------
    # Journal / resume
    # ------------------------------------------------------------------
    def _open_journal(
        self, run_fp: str, tasks: List[_Task], n_points: int
    ) -> Tuple[Optional[RunJournal], Dict[str, Dict]]:
        config = self.config
        if config.run_dir is None:
            if config.resume:
                raise ResumeMismatchError(
                    "--resume requires a run directory"
                )
            return None, {}
        run_dir = pathlib.Path(config.run_dir)
        path = run_dir / f"journal-{run_fp}.jsonl"
        header = {
            "run_fingerprint": run_fp,
            "n_points": n_points,
            "n_tasks": len(tasks),
        }
        if config.resume:
            if not run_dir.exists():
                raise ResumeMismatchError(
                    f"resume directory {run_dir} does not exist"
                )
            # A crash mid-atomic-write strands a *.tmp beside the real
            # artifact (journal, trace, report — durable or not); the
            # stranded bytes are superseded and must not be read.
            clean_stale_tmp(run_dir)
            if not path.exists():
                # This sub-run never started before the interruption
                # (multi-run experiments journal each run separately):
                # nothing to replay, start a fresh journal.
                return RunJournal.start(path, header), {}
            journal, loaded, records = RunJournal.open_existing(
                path, salvage=config.salvage
            )
            if loaded.get("run_fingerprint") != run_fp:
                raise ResumeMismatchError(
                    f"journal {path} was written for run "
                    f"{loaded.get('run_fingerprint')!r}, not {run_fp}",
                    line=1,
                )
            if loaded.get("n_points") != n_points:
                raise ResumeMismatchError(
                    f"journal {path} covers {loaded.get('n_points')} "
                    f"point(s) but this sweep has {n_points}",
                    line=1,
                )
            known = {task.fingerprint for task in tasks}
            for fingerprint in records:
                if fingerprint not in known:
                    raise ResumeMismatchError(
                        f"journal {path} records task {fingerprint} which "
                        "is not part of this sweep"
                    )
            return journal, records
        run_dir.mkdir(parents=True, exist_ok=True)
        return RunJournal.start(path, header), {}

    def _restore(
        self,
        tasks: List[_Task],
        journaled: Dict[str, Dict],
        state: _RunState,
    ) -> List[_Task]:
        """Replay journaled tasks; return the tasks still to run."""
        values = state.values
        metrics = state.metrics
        records = state.records
        pending: List[_Task] = []
        for task in tasks:
            entry = journaled.get(task.fingerprint)
            payload = entry.get("payload") if entry else None
            if entry is None or entry.get("status") != "done" or not payload:
                # Unknown, quarantined, or journaled without a picklable
                # payload: run (or re-run) it.
                pending.append(task)
                continue
            try:
                task_values = decode_payload(payload)
            except Exception as exc:
                raise ResumeMismatchError(
                    f"journal payload of task {task.fingerprint} is "
                    f"unreadable: {exc}"
                ) from None
            if len(task_values) != len(task.members):
                raise ResumeMismatchError(
                    f"journal payload of task {task.fingerprint} holds "
                    f"{len(task_values)} value(s) for {len(task.members)} "
                    "point(s)"
                )
            for (index, _), value in zip(task.members, task_values):
                values[index] = value
            group = entry.get("metrics")
            if isinstance(group, dict):
                try:
                    metrics.groups.append(GroupMetrics(**group))
                except TypeError:
                    metrics.groups.append(
                        GroupMetrics(key=task.label, n_points=len(task.members))
                    )
            record = records[task.fingerprint]
            record.status = "resumed"
            record.attempts = int(entry.get("attempts", 1))
            record.timeouts = int(entry.get("timeouts", 0))
            record.wall_s = float(entry.get("wall_s", 0.0))
            metrics.resumed += 1
        return pending

    def _journal_task(
        self,
        journal: Optional[RunJournal],
        task: _Task,
        record: TaskRecord,
        group_metrics: Optional[GroupMetrics],
        task_values: Optional[List[Any]],
    ) -> None:
        if journal is None:
            return
        journal.append(
            {
                "kind": "task",
                "fingerprint": task.fingerprint,
                "label": task.label,
                "status": record.status,
                "attempts": record.attempts,
                "timeouts": record.timeouts,
                "wall_s": round(record.wall_s, 6),
                "indices": [index for index, _ in task.members],
                "error": record.error,
                "metrics": asdict(group_metrics) if group_metrics else None,
                "payload": (
                    encode_payload(task_values)
                    if task_values is not None
                    else None
                ),
            }
        )

    # ------------------------------------------------------------------
    # Failure bookkeeping shared by both execution paths (serial, and
    # the fleet's remote and local workers)
    # ------------------------------------------------------------------
    def _backoff_delay(self, attempts: int, fingerprint: str = "") -> float:
        """Exponential backoff with *deterministic* jitter.

        The jitter is a pure function of (task fingerprint, attempt):
        two runs of the same sweep produce identical retry schedules, so
        supervised timing behaviour is reproducible and never depends on
        how many times any global RNG was consumed beforehand.  Distinct
        tasks still spread out (different fingerprints, different
        jitter), which is all the jitter is for.
        """
        config = self.config
        if config.backoff_base_s <= 0:
            return 0.0
        delay = min(
            config.backoff_cap_s,
            config.backoff_base_s * (2 ** max(0, attempts - 1)),
        )
        digest = hashlib.sha256(
            f"{fingerprint}:{attempts}".encode("ascii", "backslashreplace")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64
        return delay * (1.0 + config.backoff_jitter * unit)

    @staticmethod
    def _record_task_span(task: _Task, status: str) -> None:
        """Synthesise a "task" span covering the task's attempts.

        Worker-side spans only come home on success, so this parent-side
        record is what keeps retried and quarantined attempts visible in
        the trace (``repro trace`` attributes retries from it).
        """
        get_tracer().record(
            "task",
            task.wall_s,
            fingerprint=task.fingerprint,
            key=task.label,
            attempts=task.attempts,
            timeouts=task.timeouts,
            status=status,
            error=(
                type(task.last_error).__name__
                if status != "done" and task.last_error is not None
                else None
            ),
        )

    def _commit(
        self,
        task: _Task,
        group_values: List[Any],
        group_metrics: GroupMetrics,
        state: _RunState,
    ) -> bool:
        """Land one finished task's values; idempotent by fingerprint.

        At-least-once backends (the fleet reassigns expired leases, so a
        frozen worker's late result can race its replacement's) call
        this for every delivery; only the first per fingerprint commits.
        Returns True when the commit landed, False for a duplicate.
        """
        if state.committed(task):
            return False
        for (index, _), value in zip(task.members, group_values):
            state.values[index] = value
        state.metrics.groups.append(group_metrics)
        record = state.record(task)
        record.status = "done"
        record.attempts = task.attempts
        record.timeouts = task.timeouts
        record.wall_s = task.wall_s
        self._record_task_span(task, "done")
        self._journal_task(
            state.journal, task, record, group_metrics, group_values
        )
        return True

    def _quarantine(self, task: _Task, state: _RunState) -> None:
        record = state.record(task)
        record.status = "quarantined"
        record.attempts = task.attempts
        record.timeouts = task.timeouts
        record.wall_s = task.wall_s
        if task.last_error is not None:
            record.error = (
                f"{type(task.last_error).__name__}: {task.last_error}"
            )
        error = QuarantinedTopologyError(
            f"topology {task.label} ({task.fingerprint}) quarantined after "
            f"{task.attempts} attempt(s): {record.error or 'unknown error'}",
            task=task.fingerprint,
            attempts=task.attempts,
            last_error=task.last_error,
        )
        self._record_task_span(task, "quarantined")
        _log.warning(
            "task quarantined",
            extra={
                "task": task.fingerprint,
                "key": task.label,
                "attempts": task.attempts,
                "error": record.error,
            },
        )
        if state.extract is None:
            # Raw-outcome callers still get one entry per point, each
            # carrying the typed quarantine error.
            for index, point in task.members:
                state.values[index] = SweepOutcome(point=point, error=error)
        self._journal_task(state.journal, task, record, None, None)

    def _handle_failure(self, task: _Task, state: _RunState) -> None:
        """Route one failed attempt: fail-fast, retry, or quarantine."""
        if self.config.fail_fast:
            error = task.last_error
            if isinstance(error, ReproError):
                raise error
            raise ReproError(
                f"fail-fast: task {task.label} ({task.fingerprint}) "
                f"failed on attempt {task.attempts}: {error}"
            ) from error
        if task.attempts > self.config.max_retries:
            self._quarantine(task, state)
            return
        state.record(task).status = "retrying"
        task.ready_at = time.monotonic() + self._backoff_delay(
            task.attempts, task.fingerprint
        )
        state.queue.append(task)

    # ------------------------------------------------------------------
    # Serial execution
    # ------------------------------------------------------------------
    def _execute_serial(self, tasks: List[_Task], state: _RunState) -> None:
        queue = state.queue
        queue.extend(tasks)
        while queue:
            task = queue.pop(0)
            delay = task.ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            state.record(task).status = "running"
            task.attempts += 1
            t0 = time.perf_counter()
            try:
                group_metrics = self.engine.run_group(
                    task.key, task.members, state.extract, state.values
                )
            except Exception as exc:
                task.wall_s += time.perf_counter() - t0
                task.last_error = exc
                self._handle_failure(task, state)
                continue
            task.wall_s += time.perf_counter() - t0
            # run_group already wrote the values; _commit rewrites
            # the same objects and does the bookkeeping.
            group_values = [state.values[index] for index, _ in task.members]
            self._commit(task, group_values, group_metrics, state)
