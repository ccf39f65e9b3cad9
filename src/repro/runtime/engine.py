"""The batched multi-RHS sweep engine.

Every figure reproduction and the design-space explorer used to rebuild
and re-factorise the MNA system for each sweep point, even though points
sharing a topology differ only in their right-hand side.
:class:`SweepEngine` restores the amortisation the solver was designed
for, at sweep scope:

1. requested :class:`SweepPoint`\\ s are grouped by circuit topology —
   the :class:`repro.runtime.spec.PDNSpec` plus the fault-plan
   fingerprint — and each topology's PDN is built and LU-factorised
   exactly once, through a keyed structure cache that survives across
   ``run()`` calls (and invalidates itself on netlist revision bumps);
2. all of a topology's load vectors are stacked into one dense RHS
   matrix and solved in a single batched
   :meth:`repro.grid.solver.AssembledCircuit.solve` call.

The engine runs serially.  Process fan-out (with crash recovery and
deadlines) is :class:`repro.runtime.supervisor.RunSupervisor`'s job; its
serial path and every fleet worker, on an engine kept for the worker's
life, run groups through the same :meth:`SweepEngine.run_group`.

Every stage is instrumented (:mod:`repro.runtime.metrics`); pass
``bench_name`` to emit a machine-readable ``BENCH_<name>.json``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ContractViolationError, ReproError, SingularCircuitError
from repro.grid.backends import default_backend_name, resolve_backend
from repro.obs.trace import get_tracer
from repro.runtime.fingerprint import run_fingerprint, task_fingerprint
from repro.runtime.metrics import (
    GroupMetrics,
    SweepMetrics,
    write_bench_json,
)
from repro.runtime.spec import PDNSpec

__all__ = [
    "SweepPoint",
    "SweepOutcome",
    "SweepResult",
    "SweepEngine",
    "group_label",
    "group_points",
]

@dataclass(frozen=True)
class SweepPoint:
    """One requested design-point evaluation.

    Points with equal ``spec`` (and the same fault plan) share one
    netlist build and one factorisation; their ``layer_activities``
    become columns of a single batched right-hand-side solve.
    """

    spec: PDNSpec
    #: Per-layer activity factors; None = all layers fully active.
    layer_activities: Optional[Tuple[float, ...]] = None
    #: A :class:`repro.faults.FaultPlan`, or a picklable callable
    #: ``pdn -> FaultPlan`` for plans that must be sampled from the
    #: built PDN (seeded samplers).  None = pristine.
    fault_plan: Any = None
    #: Force the resilient solve path; None = automatic (faulted PDNs).
    resilient: Optional[bool] = None
    #: Opaque caller label, passed through to the outcome/extractor.
    tag: Any = None

    def activities_tuple(self) -> Optional[Tuple[float, ...]]:
        if self.layer_activities is None:
            return None
        return tuple(float(a) for a in self.layer_activities)


@dataclass
class SweepOutcome:
    """What happened to one point: a result, or a typed solver error."""

    point: SweepPoint
    result: Any = None  # PDNResult when the solve succeeded
    error: Optional[ReproError] = None
    #: FaultReport of the applied plan (None for pristine points).
    fault_report: Any = None

    @property
    def survived(self) -> bool:
        return self.error is None

    def unwrap(self):
        """The PDNResult, re-raising the captured solver error if any."""
        if self.error is not None:
            raise self.error
        return self.result


@dataclass
class SweepResult:
    """Ordered sweep values plus the run's stage metrics."""

    #: One entry per requested point, in input order: the extractor's
    #: return value, or the raw :class:`SweepOutcome` with no extractor.
    values: List[Any]
    metrics: SweepMetrics

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class _CachedStructure:
    """One cache entry: a built PDN and its factorisation revision."""

    pdn: Any
    fault_report: Any
    revision: int
    #: ``Factorization.factor_entries`` at insertion (0 when unknown).
    factor_entries: int = 0


GroupKey = Tuple[PDNSpec, Any, bool, str]


def _plan_key(plan: Any) -> Any:
    """Hashable identity of a fault plan for topology grouping."""
    if plan is None:
        return None
    fingerprint = getattr(plan, "fingerprint", None)
    if fingerprint is not None:
        return ("plan", fingerprint())
    # Plan factories are opaque: give each its own topology group.
    return ("factory", id(plan))


def _group_resilient(point: SweepPoint) -> bool:
    if point.resilient is not None:
        return bool(point.resilient)
    return point.fault_plan is not None


def group_points(
    points: Sequence[SweepPoint],
    solver: Optional[str] = None,
) -> Dict[GroupKey, List[Tuple[int, SweepPoint]]]:
    """Group points by topology, keeping each point's input index.

    The grouping key is ``(spec, fault-plan identity, resilient, solver
    backend)`` — the engine's structure-cache key — in first-appearance
    order.  ``solver`` defaults to the process-wide backend (so a
    ``--solver`` switch between runs is a cache miss, never a stale
    factorisation).  The run supervisor uses the same grouping so its
    task boundaries, journal fingerprints and retry units match the
    engine's solve batches.
    """
    if solver is None:
        solver = resolve_backend(default_backend_name()).name
    groups: Dict[GroupKey, List[Tuple[int, SweepPoint]]] = {}
    for index, point in enumerate(points):
        key = (
            point.spec,
            _plan_key(point.fault_plan),
            _group_resilient(point),
            solver,
        )
        groups.setdefault(key, []).append((index, point))
    return groups


def group_label(key: GroupKey) -> str:
    """A group's human-readable label: the spec's label, suffixed
    ``+faults`` under a fault plan, ``/resilient`` on the resilient
    path and ``@<backend>`` for any backend but ``lu``."""
    spec, plan_key, resilient, solver = key
    label = spec.label()
    if plan_key is not None:
        label += "+faults"
    if resilient:
        label += "/resilient"
    if solver != "lu":
        label += f"@{solver}"
    return label


def _build_group(
    spec: PDNSpec, plan: Any, solver: Optional[str], metrics: GroupMetrics
):
    """Build one topology's PDN, apply its plan, factorise eagerly.

    Returns ``(pdn, fault_report)`` and stores the "build"/"factorize"
    span durations in ``metrics``, so BENCH stage totals and span totals
    agree exactly.  ``solver`` picks the factorisation backend; a
    non-``lu`` backend that cannot factorise warms its lu fallback here
    too, so the degraded cost lands in the factorise stage, not the
    first solve.
    """
    tracer = get_tracer()
    with tracer.span("build") as build_span:
        pdn = spec.build()
        report = None
        if plan is not None:
            actual = plan(pdn) if callable(plan) else plan
            report = pdn.apply_faults(actual)
    metrics.build_s = build_span.duration_s
    with tracer.span("factorize") as factorize_span:
        assembled = pdn.assembled(backend=solver)
        factorize_span.set(backend=assembled.backend.name)
        # A faulted system may be singular; factorize() then reports False
        # and the resilient solve path deals with it per batch.
        assembled.factorize()
        fact = assembled.factorization
        if fact is not None:
            factorize_span.set(
                ordering=fact.ordering, factor_entries=fact.factor_entries
            )
    metrics.factorize_s = factorize_span.duration_s
    return pdn, report


def _execute_group(
    pdn,
    points: Sequence[SweepPoint],
    resilient: bool,
    extract: Optional[Callable[[SweepOutcome], Any]],
    fault_report: Any,
    metrics: GroupMetrics,
) -> List[Any]:
    """Solve one topology group (batched, with per-point fallback)."""
    tracer = get_tracer()
    activity_sets = [p.activities_tuple() for p in points]
    outcomes: List[SweepOutcome]
    with tracer.span(
        "solve", n_points=len(points), resilient=bool(resilient)
    ) as solve_span:
        try:
            results = pdn.solve_batch(activity_sets, resilient=resilient)
            metrics.n_solve_calls += 1
            outcomes = [
                SweepOutcome(point=p, result=r, fault_report=fault_report)
                for p, r in zip(points, results)
            ]
        except ReproError as exc:
            if not resilient and isinstance(exc, SingularCircuitError):
                # The group's one factorisation does not solve it: a
                # strict per-point retry would reuse it and fail again.
                metrics.n_solve_calls += 1
                outcomes = [
                    SweepOutcome(point=p, error=exc, fault_report=fault_report)
                    for p in points
                ]
            else:
                # One bad point must not sink its batch siblings: fall
                # back to per-point solves, each capturing its own error.
                metrics.sequential_fallback = True
                solve_span.set(sequential_fallback=True)
                outcomes = []
                for p, activities in zip(points, activity_sets):
                    metrics.n_solve_calls += 1
                    try:
                        result = pdn.solve(
                            layer_activities=activities, resilient=resilient
                        )
                        outcomes.append(SweepOutcome(
                            point=p, result=result, fault_report=fault_report
                        ))
                    except ReproError as error:
                        outcomes.append(SweepOutcome(
                            point=p, error=error, fault_report=fault_report
                        ))
    metrics.solve_s += solve_span.duration_s

    # Tally the solver escalation ladder: resilient solves report the
    # rungs they climbed; a strict direct solve is one clean rung named
    # after the factorisation that answered it (``lu`` when the group's
    # backend refused the matrix), as its trace span is.  Alongside,
    # roll the per-point physics-contract reports into the group's
    # contract histogram (BENCH schema v3) and count degraded points so
    # runs surface them instead of averaging them in.
    fact = pdn.assembled().factorization
    strict_rung = fact.backend_name if fact is not None else metrics.backend
    for outcome in outcomes:
        if outcome.error is not None:
            metrics.count_escalation("failed")
            if isinstance(outcome.error, ContractViolationError):
                metrics.count_contract("raise")
            continue
        diagnostics = getattr(outcome.result, "diagnostics", None)
        rungs = getattr(diagnostics, "escalations", None) or [strict_rung]
        for rung in rungs:
            metrics.count_escalation(rung)
        if diagnostics is not None and diagnostics.degraded:
            metrics.count_contract("degraded_points")
        report = getattr(outcome.result, "contracts", None)
        if report is not None:
            for status, count in report.histogram().items():
                metrics.count_contract(status, count)
            metrics.contracts_s += report.elapsed_s

    with tracer.span("post", n_points=len(points)) as post_span:
        values = [extract(o) if extract is not None else o for o in outcomes]
    metrics.post_s += post_span.duration_s
    metrics.n_points = len(points)
    return values


@dataclass
class _RunFrame:
    """One run's shared prologue: grouping, fingerprint and metrics.

    :class:`SweepEngine` and the run supervisor both open a run with
    :func:`open_run` and close it with :func:`close_run`, so their
    BENCH payloads and trace files are written by the same code.
    """

    points: List[SweepPoint]
    groups: Dict[GroupKey, List[Tuple[int, SweepPoint]]]
    #: ``task_fingerprint`` of each group, in group order.
    task_fingerprints: List[str]
    metrics: SweepMetrics
    #: The run's root "sweep" span.
    span: Any


@contextlib.contextmanager
def open_run(
    points: Iterable[SweepPoint], workers: int = 1, **attributes: Any
) -> Iterator[_RunFrame]:
    """Open the run's "sweep" span, group the points and name the run
    (and, when tracing, its trace).  The span is the run's one clock:
    BENCH ``wall_s`` is its duration."""
    tracer = get_tracer()
    with tracer.span("sweep", workers=workers, **attributes) as span:
        points = list(points)
        solver = resolve_backend(default_backend_name()).name
        groups = group_points(points, solver)
        fingerprints = [
            task_fingerprint(key, members) for key, members in groups.items()
        ]
        run_fp = run_fingerprint(fingerprints, len(points))
        if tracer.enabled and tracer.trace_id is None:
            tracer.set_trace_id(run_fp)
        span.set(run_fingerprint=run_fp, n_points=len(points), n_groups=len(groups))
        metrics = SweepMetrics(workers=workers, run_fingerprint=run_fp, solver=solver)
        yield _RunFrame(points, groups, fingerprints, metrics, span)
    metrics.wall_s = span.duration_s


def close_run(
    frame: _RunFrame, cache_info: Dict[str, int], bench_name: Optional[str]
) -> None:
    """Stamp cache counters; write BENCH and flush spans."""
    metrics = frame.metrics
    metrics.cache_hits = cache_info["hits"]
    metrics.cache_misses = cache_info["misses"]
    metrics.cache_rebuilds = cache_info["rebuilds"]
    if bench_name is not None:
        write_bench_json(bench_name, metrics.to_json())
    tracer = get_tracer()
    if tracer.enabled:
        from repro.obs.export import flush_spans

        flush_spans(
            tracer.drain(), metrics.run_fingerprint, trace_id=tracer.trace_id
        )


class SweepEngine:
    """Batched, cached, serial design-point sweeps.

    Parameters
    ----------
    workers:
        Must be 1, the only width an engine runs at; it stays so that
        ``SweepEngine(workers=1)`` keeps working.  Process fan-out is
        ``RunSupervisor(workers=N)``.
    """

    #: Engine surface the supervisor duck-types; an engine is serial.
    workers = 1
    in_process = True

    def __init__(self, workers: int = 1):
        if workers != 1:
            raise ValueError(
                f"SweepEngine runs serially (workers={workers!r}); "
                "use RunSupervisor(workers=N) for process fan-out"
            )
        self._cache: Dict[GroupKey, _CachedStructure] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_rebuilds = 0
        # Running total of the cached entries' factor_entries, kept on
        # insert/replace/clear so cache_info() stays O(1).
        self._factor_entries = 0

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Structure-cache counters (for tests and metrics).

        ``factor_entries`` is the number of factor entries the cached
        structures hold (backends that report none count as 0).
        """
        return {
            "entries": len(self._cache),
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "rebuilds": self._cache_rebuilds,
            "factor_entries": self._factor_entries,
        }

    def clear_cache(self, specs: Optional[Iterable[PDNSpec]] = None) -> None:
        """Drop cached structures: all of them, or those built from ``specs``.

        With ``specs``, every entry of those specs goes, whatever its
        fault plan, resilient flag or backend; specs with no entry are
        ignored.  The hit/miss/rebuild counters are kept.
        """
        if specs is None:
            self._cache.clear()
            self._factor_entries = 0
            return
        drop = set(specs)
        for key in [key for key in self._cache if key[0] in drop]:
            self._factor_entries -= self._cache.pop(key).factor_entries

    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[SweepPoint],
        extract: Optional[Callable[[SweepOutcome], Any]] = None,
        bench_name: Optional[str] = None,
    ) -> SweepResult:
        """Evaluate every point; values come back in input order.

        ``extract(outcome) -> value`` runs once per point after its
        group's batched solve (use :meth:`SweepOutcome.unwrap` inside it
        to re-raise captured solver errors).  Without an extractor the
        raw outcomes are returned.
        ``bench_name`` writes the stage metrics to
        ``BENCH_<bench_name>.json`` (see :mod:`repro.runtime.metrics`).
        """
        with open_run(points) as frame:
            values: List[Any] = [None] * len(frame.points)
            for key, members in frame.groups.items():
                frame.metrics.groups.append(
                    self.run_group(key, members, extract, values)
                )
            frame.span.set(mode=frame.metrics.mode)
        close_run(frame, self.cache_info(), bench_name)
        return SweepResult(values=values, metrics=frame.metrics)

    # ------------------------------------------------------------------
    def _cacheable(self, key: GroupKey) -> bool:
        # Factory-sampled plans may be stochastic; never reuse them.
        plan_key = key[1]
        return not (isinstance(plan_key, tuple) and plan_key[0] == "factory")

    def _obtain_structure(
        self, key: GroupKey, plan: Any, metrics: GroupMetrics
    ) -> _CachedStructure:
        spec = key[0]
        cached = self._cache.get(key) if self._cacheable(key) else None
        if cached is not None:
            if cached.pdn.circuit.revision != cached.revision:
                # The netlist mutated behind our back (a fault plan was
                # applied out of band): rebuild rather than serve a
                # stale factorisation.
                self._cache_rebuilds += 1
            else:
                self._cache_hits += 1
                metrics.cached = True
                return cached
        else:
            self._cache_misses += 1
        pdn, report = _build_group(spec, plan, key[3], metrics)
        entry = _CachedStructure(
            pdn=pdn, fault_report=report, revision=pdn.circuit.revision
        )
        if self._cacheable(key):
            fact = pdn.assembled().factorization
            entry.factor_entries = getattr(fact, "factor_entries", None) or 0
            replaced = self._cache.get(key)
            if replaced is not None:
                self._factor_entries -= replaced.factor_entries
            self._cache[key] = entry
            self._factor_entries += entry.factor_entries
        return entry

    def run_group(
        self,
        key: GroupKey,
        members: List[Tuple[int, SweepPoint]],
        extract: Optional[Callable[[SweepOutcome], Any]],
        values: List[Any],
        executed: str = "local",
    ) -> GroupMetrics:
        """Solve one :func:`group_points` group on its cached (or newly
        built and factorised) structure, writing each value to ``values``
        at its input index.  ``executed`` labels the metrics and span."""
        group_metrics = GroupMetrics(
            key=group_label(key), executed=executed, backend=key[3]
        )
        plan = members[0][1].fault_plan
        with get_tracer().span(
            "group",
            key=group_metrics.key,
            n_points=len(members),
            executed=executed,
        ) as group_span:
            entry = self._obtain_structure(key, plan, group_metrics)
            group_span.set(cached=group_metrics.cached)
            group_values = _execute_group(
                entry.pdn,
                [point for _, point in members],
                key[2],
                extract,
                entry.fault_report,
                group_metrics,
            )
        for (index, _), value in zip(members, group_values):
            values[index] = value
        return group_metrics
