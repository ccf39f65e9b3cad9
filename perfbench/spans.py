"""In-memory span recorder wrapped around the public entry points of ``repro``.

The benchmark's traced pass installs :class:`Recorder` wrappers on the
functions and methods listed in :data:`FREE_FUNCTIONS` and
:data:`METHODS`, runs the same units of work as the untraced pass, then
uninstalls them.  Nothing in ``src/`` changes: a free function is
re-bound in every loaded ``repro`` module that imported it by name, a
method is replaced on its class.

Each span records ``(id, parent, layer, start, end, thread)`` plus the
layer's work counts.  Parents come from a per-thread stack, so spans on
the replica's event-loop and solver threads nest correctly on their own
threads.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    start: float
    end: float
    thread: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.layer,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            **({"counts": self.counts} if self.counts else {}),
        }


# ----------------------------------------------------------------------
# Work counts recorded at each boundary: (args, kwargs, result) -> dict
# ----------------------------------------------------------------------

def _placements(args, kwargs, result) -> Dict[str, float]:
    return {"placements": float(sum(result.values()))}


def _conductors(args, kwargs, result) -> Dict[str, float]:
    medians = args[0] if args else kwargs["medians"]
    return {"conductors": float(getattr(medians, "size", len(medians)))}


def _factorize_dim(args, kwargs, result) -> Dict[str, float]:
    return {"dim": float(args[0].dimension)}


def _solve_rhs(args, kwargs, result) -> Dict[str, float]:
    return {"rhs": float(len(result)) if isinstance(result, list) else 1.0}


def _cache_hit(args, kwargs, result) -> Dict[str, float]:
    return {"hits": 0.0 if result is None else 1.0}


#: Free functions: (defining module, name, layer, counter).  Every loaded
#: ``repro`` module that binds the same object by name is re-bound too.
FREE_FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.pdn.geometry", "distribute_per_core", "pdn.geometry", _placements),
    ("repro.pdn.geometry", "distribute_uniform", "pdn.geometry", _placements),
    ("repro.em.array_mttf", "expected_em_lifetime", "em.lifetime", _conductors),
    ("repro.em.black", "median_lifetimes_from_currents", "em.medians", None),
    ("repro.contracts.checks", "check_pdn_result", "contracts", None),
)

#: Methods wrapped on their class: (module, class, method, layer, counter).
METHODS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.runtime.spec", "PDNSpec", "build", "pdn.build", None),
    ("repro.grid.netlist", "Circuit", "assemble", "grid.assemble", None),
    ("repro.grid.solver", "AssembledCircuit", "factorize", "grid.factorize",
     _factorize_dim),
    ("repro.grid.solver", "AssembledCircuit", "solve", "grid.solve", _solve_rhs),
    ("repro.runtime.engine", "SweepEngine", "run", "runtime.engine", None),
    ("repro.service.cache", "ResultCache", "get", "service.cache.get", _cache_hit),
    ("repro.service.cache", "ResultCache", "put", "service.cache.put", None),
    ("repro.service.server", "QueryExecutor", "solve", "service.executor", None),
)


class Recorder:
    """Collects spans from wrapped entry points while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stage_totals: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    @contextmanager
    def span(self, layer: str):
        """Record one span around a block (the workload roots)."""
        stack = self._stack()
        span_id = self._next_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(
                Span(span_id, parent, layer, start, end, threading.get_ident())
            )

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn: Callable, layer: str, counter: Optional[Callable]):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = recorder._next_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            extra = recorder._before(layer, args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            counts.update(recorder._after(layer, args, result, extra))
            recorder._record(
                Span(span_id, parent, layer, start, end,
                     threading.get_ident(), counts)
            )
            return result

        return wrapper

    # Engine runs also report structure-cache deltas and stage totals,
    # so the span totals can be cross-checked against SweepMetrics.
    def _before(self, layer: str, args) -> Any:
        if layer == "runtime.engine":
            return args[0].cache_info()
        return None

    def _after(self, layer: str, args, result, before) -> Dict[str, float]:
        if layer != "runtime.engine":
            return {}
        after = args[0].cache_info()
        metrics = result.metrics
        with self._lock:
            for stage, value in metrics.stage_totals().items():
                self.stage_totals[stage] += value
        return {
            "groups": float(len(metrics.groups)),
            "structure_hits": float(after["hits"] - before["hits"]),
            "structure_misses": float(after["misses"] - before["misses"]),
        }

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for module_name, name, layer, counter in FREE_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            wrapper = self.wrap(original, layer, counter)
            for mod_name, module in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                if getattr(module, name, None) is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)
        for module_name, cls_name, name, layer, counter in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[name]
            self._undo.append((cls, name, original))
            setattr(cls, name, self.wrap(original, layer, counter))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def merge(self, spans: List[Span], stage_totals: Dict[str, float]) -> None:
        """Adopt the spans a forked child recorded; later children then
        number their spans above these."""
        with self._lock:
            self.spans.extend(spans)
            self._ids = max([self._ids] + [s.id for s in spans])
            for stage, value in stage_totals.items():
                self.stage_totals[stage] += value

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        child_sum: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_sum[span.parent] += span.duration
        return {s.id: s.duration - child_sum[s.id] for s in self.spans}

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total (inclusive) and self seconds, counts."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span in self.spans:
            entry = out[span.layer]
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += selfs[span.id]
            for key, value in span.counts.items():
                entry[key] += value
        return out
