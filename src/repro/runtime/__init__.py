"""Batched sweep runtime: PDNSpec, SweepEngine, supervision, fleet, metrics."""

from repro.runtime.spec import (
    PDNSpec,
    REGULAR,
    VOLTAGE_STACKED,
    DEFAULT_GRID_NODES,
)
from repro.runtime.metrics import (
    BENCH_DIR_ENV,
    BENCH_SCHEMA,
    GroupMetrics,
    SweepMetrics,
    write_bench_json,
)
from repro.runtime.engine import (
    SweepEngine,
    SweepOutcome,
    SweepPoint,
    SweepResult,
    group_points,
)
from repro.runtime.journal import (
    JOURNAL_SCHEMA,
    RunJournal,
    atomic_write_text,
    clean_stale_tmp,
)
from repro.runtime.chaos import ChaosMonkey, ChaosPlan
from repro.runtime.fleet import (
    Fleet,
    PROTOCOL_VERSION,
    parse_address,
    run_worker,
)
from repro.runtime.supervisor import (
    RunReport,
    RunSupervisor,
    SupervisedResult,
    SupervisorConfig,
    TaskRecord,
    run_fingerprint,
    task_fingerprint,
)

__all__ = [
    "PDNSpec",
    "REGULAR",
    "VOLTAGE_STACKED",
    "DEFAULT_GRID_NODES",
    "SweepEngine",
    "SweepPoint",
    "SweepOutcome",
    "SweepResult",
    "GroupMetrics",
    "SweepMetrics",
    "write_bench_json",
    "BENCH_SCHEMA",
    "BENCH_DIR_ENV",
    "group_points",
    "JOURNAL_SCHEMA",
    "RunJournal",
    "atomic_write_text",
    "clean_stale_tmp",
    "ChaosMonkey",
    "ChaosPlan",
    "Fleet",
    "PROTOCOL_VERSION",
    "parse_address",
    "run_worker",
    "RunSupervisor",
    "SupervisorConfig",
    "SupervisedResult",
    "RunReport",
    "TaskRecord",
    "task_fingerprint",
    "run_fingerprint",
]
