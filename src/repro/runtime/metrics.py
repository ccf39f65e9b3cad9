"""Stage-level instrumentation of the sweep engine.

Every :meth:`repro.runtime.engine.SweepEngine.run` produces a
:class:`SweepMetrics`: wall time and solve counts per topology group
(build, factorise, batched solve, per-point post-processing) plus run
totals.  Metrics serialise to a stable machine-readable JSON layout so
``BENCH_*.json`` files are diffable across PRs and the performance
trajectory of the hot paths finally has data behind it.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Union

#: Schema version of the emitted JSON; bump on layout changes (the
#: layout is described in docs/RUNTIME.md, "Stage metrics and BENCH JSON").
BENCH_SCHEMA = 8

#: Environment variable naming a directory to auto-write BENCH files to.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def _sum_counts(tallies: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Key-wise sum of count dicts, keys in order of first appearance."""
    out: Dict[str, int] = {}
    for tally in tallies:
        for key, count in tally.items():
            out[key] = out.get(key, 0) + count
    return out


@dataclass
class GroupMetrics:
    """Timings for one topology group (one build + one factorisation)."""

    #: Human-readable group identity (spec label + fault-plan marker).
    key: str
    n_points: int = 0
    #: Netlist construction (and fault-plan application) time.
    build_s: float = 0.0
    #: MNA assembly + LU factorisation time.
    factorize_s: float = 0.0
    #: Batched (or fallback per-point) solve time.
    solve_s: float = 0.0
    #: Per-point extraction / post-processing time.
    post_s: float = 0.0
    #: Linear-system solve calls issued (1 for a clean batched group).
    n_solve_calls: int = 0
    #: True when the group was served from the structure cache.
    cached: bool = False
    #: True when a batch error forced the per-point sequential fallback.
    sequential_fallback: bool = False
    #: Where the group ran: "local" (in-process) or "remote" (worker
    #: process).  Both paths emit the same schema either way.
    executed: str = "local"
    #: Solver backend the group's factorisation/solves ran under (a
    #: registry name from repro.grid.backends).
    backend: str = "lu"
    #: Solver escalation-ladder rung counts over the group's points
    #: (e.g. {"lu": 4, "refine": 1}); "failed" counts captured errors.
    escalations: Dict[str, int] = field(default_factory=dict)
    #: Physics-contract status counts over the group's points: check
    #: statuses ("pass"/"record"/"warn"), "raise" for points aborted by
    #: a ContractViolationError, and "degraded_points" for results
    #: flagged degraded (pruned/fallback solves, contract violations).
    contracts: Dict[str, int] = field(default_factory=dict)
    #: Wall time spent evaluating contracts over the group's points (s).
    contracts_s: float = 0.0

    def count_escalation(self, rung: str, n: int = 1) -> None:
        self.escalations[rung] = self.escalations.get(rung, 0) + n

    def count_contract(self, status: str, n: int = 1) -> None:
        self.contracts[status] = self.contracts.get(status, 0) + n


@dataclass
class SweepMetrics:
    """Aggregated instrumentation of one sweep run."""

    groups: List[GroupMetrics] = field(default_factory=list)
    wall_s: float = 0.0
    #: "serial", "process" (the run supervisor's local workers) or
    #: "fleet" (at least one result from a ``--fleet`` worker).
    mode: str = "serial"
    workers: int = 1
    #: Solver backend the run was requested under (repro.grid.backends
    #: registry name; per-group "backend" can differ on mixed runs).
    solver: str = "lu"
    #: Content fingerprint of the run (see repro.runtime.fingerprint) —
    #: the join key across BENCH / report / journal / trace artifacts.
    run_fingerprint: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    cache_rebuilds: int = 0
    #: Supervisor robustness counters (zero for unsupervised runs, so
    #: the perf trajectory also tracks robustness overhead).
    retries: int = 0
    quarantined: int = 0
    #: Local workers respawned after a crash or a kill (the name is
    #: kept from the process pool they replaced).
    pool_rebuilds: int = 0
    timeouts: int = 0
    resumed: int = 0
    #: Distributed-fleet counters (zero for in-process runs): leases
    #: that overran their deadline, workers that died mid-run (socket
    #: drop or missed heartbeats without a clean goodbye), and tasks
    #: re-leased after their previous lease expired or its holder died.
    leases_expired: int = 0
    worker_deaths: int = 0
    reassignments: int = 0

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return sum(g.n_points for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_solve_calls(self) -> int:
        return sum(g.n_solve_calls for g in self.groups)

    def stage_totals(self) -> Dict[str, float]:
        totals = dict.fromkeys(("build_s", "factorize_s", "solve_s", "post_s"), 0.0)
        for group in self.groups:
            for stage in totals:
                totals[stage] += getattr(group, stage)
        return totals

    def escalation_histogram(self) -> Dict[str, int]:
        """Solver escalation-ladder rung counts over the whole run."""
        return _sum_counts(group.escalations for group in self.groups)

    def contract_histogram(self) -> Dict[str, int]:
        """Physics-contract status counts over the whole run."""
        return _sum_counts(group.contracts for group in self.groups)

    @property
    def contracts_s(self) -> float:
        """Total wall time spent on contract checks (s)."""
        return sum(group.contracts_s for group in self.groups)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """Stable, machine-readable rendering of the whole run."""
        return {
            "schema": BENCH_SCHEMA,
            "run_fingerprint": self.run_fingerprint,
            "mode": self.mode,
            "workers": self.workers,
            "solver": self.solver,
            "wall_s": round(self.wall_s, 6),
            "totals": {
                "n_points": self.n_points,
                "n_groups": self.n_groups,
                "n_solve_calls": self.n_solve_calls,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_rebuilds": self.cache_rebuilds,
                "retries": self.retries,
                "quarantined": self.quarantined,
                "pool_rebuilds": self.pool_rebuilds,
                "timeouts": self.timeouts,
                "resumed": self.resumed,
                "leases_expired": self.leases_expired,
                "worker_deaths": self.worker_deaths,
                "reassignments": self.reassignments,
                "contracts_s": round(self.contracts_s, 6),
                **{k: round(v, 6) for k, v in self.stage_totals().items()},
            },
            "escalations": self.escalation_histogram(),
            "contracts": self.contract_histogram(),
            "groups": [
                {**asdict(g), **{
                    k: round(getattr(g, k), 6)
                    for k in ("build_s", "factorize_s", "solve_s", "post_s",
                              "contracts_s")
                }}
                for g in self.groups
            ],
        }

    def summary(self) -> str:
        totals = self.stage_totals()
        robustness = ""
        if self.retries or self.quarantined or self.resumed:
            robustness = (
                f", {self.retries} retried, {self.quarantined} quarantined, "
                f"{self.resumed} resumed"
            )
        contracts = self.contract_histogram()
        flagged = sum(v for k, v in contracts.items() if k != "pass")
        if flagged:
            robustness += f", {flagged} contract flag(s)"
        if self.worker_deaths or self.leases_expired or self.reassignments:
            robustness += (
                f", {self.worker_deaths} worker death(s), "
                f"{self.leases_expired} expired lease(s), "
                f"{self.reassignments} reassignment(s)"
            )
        return (
            f"{self.n_points} point(s) in {self.n_groups} group(s), "
            f"{self.n_solve_calls} solve call(s), mode={self.mode}{robustness}: "
            f"build {totals['build_s']:.3f}s, factorize "
            f"{totals['factorize_s']:.3f}s, solve {totals['solve_s']:.3f}s, "
            f"post {totals['post_s']:.3f}s (wall {self.wall_s:.3f}s)"
        )


def write_bench_json(
    name: str,
    payload: Dict,
    directory: Union[str, pathlib.Path, None] = None,
) -> pathlib.Path:
    """Persist a ``BENCH_<name>.json`` file and return its path.

    ``directory`` defaults to the ``REPRO_BENCH_DIR`` environment
    variable, then the current directory.  The payload is written with
    sorted keys and a trailing newline so successive runs diff cleanly.
    """
    if directory is None:
        directory = os.environ.get(BENCH_DIR_ENV, ".")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
