"""Hierarchical span tracing for the sweep hot path.

One process-global :class:`Tracer` records *spans* — named, timed,
attributed intervals with parent/child links — through the full run
hierarchy: experiment → sweep → topology group → build / factorize /
solve / post stages → solver escalation rungs → fixed-point iterations →
contract checks.  The design goals, in order:

1. **Off costs one clock.**  Tracing is off by default; ``span()`` then
   returns a bare timing handle — two ``perf_counter`` reads, no id,
   nothing recorded.  Every caller reads ``span.duration_s`` whatever
   the tracer's state, so a span is the only stopwatch for its interval
   and BENCH stage totals, the service's latency histograms and the
   trace agree by construction.  Numerical outputs are bit-identical
   with tracing on or off — the tracer only ever reads clocks and
   generates ids (``os.urandom``-backed, so the NumPy/stdlib RNG streams
   experiments rely on are untouched).
2. **Thread- and process-safe.**  The current span is tracked in a
   :mod:`contextvars` variable (so threads and asyncio tasks nest
   correctly) and finished spans are buffered under a lock.  Worker
   processes receive a :meth:`Tracer.worker_context` dict, activate it
   with :func:`activate_worker_context`, and ship their finished spans
   back to the parent (``drain()`` → pickle → :meth:`Tracer.adopt`), so
   the reassembled trace is one coherent tree across processes.
3. **Monotonic durations, wall-clock anchors.**  Durations come from
   ``time.perf_counter`` (monotonic, immune to clock steps); each span
   also records a ``time.time`` start so spans from different processes
   line up on one timeline in the Chrome trace export.

Spans serialise to stable JSON records (see
:mod:`repro.obs.export` for the ``trace-<fp>.jsonl`` / Chrome
``trace_event`` / Prometheus exporters).
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "TRACE_ENV",
    "TRACE_DIR_ENV",
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "get_tracer",
    "configure",
    "span",
    "activate_worker_context",
    "new_trace_id",
]

#: Enable tracing process-wide: "1"/"true"/"on", or a directory path
#: (which both enables tracing and selects the trace output directory).
TRACE_ENV = "REPRO_TRACE"
#: Directory traces are flushed to when tracing is enabled (default ".").
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
#: Schema version of serialised span records; bump on layout changes.
TRACE_SCHEMA = 1


def _new_id() -> str:
    """A 16-hex-char span id, unique across processes and resumed runs.

    Drawn straight from ``os.urandom`` — deliberately *not* any seeded
    RNG, so tracing never perturbs experiment reproducibility (and a
    few times cheaper than ``uuid4``, which matters on the hot path).
    """
    return os.urandom(8).hex()


@dataclass
class Span:
    """One finished, immutable span record."""

    name: str
    span_id: str
    parent_id: Optional[str]
    trace_id: Optional[str]
    #: Wall-clock start (``time.time()``), for cross-process alignment.
    start_s: float
    #: Monotonic duration (``time.perf_counter`` delta).
    duration_s: float
    pid: int
    tid: int
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "start_s": round(self.start_s, 6),
            "dur_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "status": self.status,
        }
        if self.attributes:
            record["attrs"] = self.attributes
        return record

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            span_id=record["id"],
            parent_id=record.get("parent"),
            trace_id=record.get("trace"),
            start_s=float(record.get("start_s", 0.0)),
            duration_s=float(record.get("dur_s", 0.0)),
            pid=int(record.get("pid", 0)),
            tid=int(record.get("tid", 0)),
            status=record.get("status", "ok"),
            attributes=dict(record.get("attrs") or {}),
        )


class _Stopwatch:
    """What ``span()`` and ``remote_context()`` return while tracing is
    off: a span's clock with nothing recorded."""

    __slots__ = ("duration_s", "_start")
    span_id = None

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration_s = time.perf_counter() - self._start
        return False

    def set(self, **attributes) -> None:
        """Discard attributes (no-op)."""


class _RemoteAnchor:
    """A stand-in for a span that lives in *another* process.

    Installed into the current-span contextvar by
    :meth:`Tracer.remote_context`, it gives spans opened underneath it a
    remote parent id and a remote trace id without opening a local span.
    This is how a service replica anchors one request's spans under the
    client's ``service.client`` span: contextvars keep concurrent asyncio
    requests isolated, so N in-flight queries anchor to N different
    remote parents simultaneously.
    """

    __slots__ = ("span_id", "trace_id")

    def __init__(self, span_id: Optional[str], trace_id: Optional[str]):
        self.span_id = span_id
        self.trace_id = trace_id


class _RemoteContext:
    """Context manager installing/removing one :class:`_RemoteAnchor`."""

    __slots__ = ("_tracer", "_anchor", "_token")

    def __init__(self, tracer: "Tracer", anchor: _RemoteAnchor):
        self._tracer = tracer
        self._anchor = anchor
        self._token = None

    def __enter__(self) -> _RemoteAnchor:
        self._token = self._tracer._current.set(self._anchor)
        return self._anchor

    def __exit__(self, *exc) -> bool:
        self._tracer._current.reset(self._token)
        return False


class _ActiveSpan:
    """A live span: context manager measuring one code region."""

    __slots__ = (
        "_tracer",
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "attributes",
        "status",
        "duration_s",
        "_token",
        "_start_wall",
        "_start_perf",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = _new_id()
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.attributes = attributes
        self.status = "ok"
        self.duration_s = 0.0
        self._token = None

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        parent = tracer._current.get()
        if parent is not None:
            self.parent_id = parent.span_id
            # Inherit the chain's trace id (set by a remote anchor); a
            # None here falls back to the tracer-global id at __exit__,
            # preserving the engine behavior where set_trace_id() names
            # the run only partway through it.
            self.trace_id = parent.trace_id
        else:
            self.parent_id = tracer._root_parent
        self._token = tracer._current.set(self)
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def set(self, **attributes) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attributes.update(attributes)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._start_perf
        tracer = self._tracer
        tracer._current.reset(self._token)
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        tracer._finish(
            Span(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                trace_id=self.trace_id or tracer._trace_id,
                start_s=self._start_wall,
                duration_s=self.duration_s,
                pid=tracer._pid,
                tid=threading.get_ident(),
                status=self.status,
                attributes=self.attributes,
            )
        )
        return False  # never swallow exceptions


class Tracer:
    """Process-global span recorder (see the module docstring)."""

    def __init__(self):
        self._enabled = False
        self._trace_id: Optional[str] = None
        #: Parent id inherited from another process (worker activation).
        self._root_parent: Optional[str] = None
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[_ActiveSpan]] = (
            contextvars.ContextVar("repro_obs_current_span", default=None)
        )
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def trace_id(self) -> Optional[str]:
        return self._trace_id

    def enable(
        self,
        trace_id: Optional[str] = None,
        root_parent: Optional[str] = None,
    ) -> None:
        self._enabled = True
        if trace_id is not None:
            self._trace_id = trace_id
        self._root_parent = root_parent
        self._pid = os.getpid()

    def disable(self) -> None:
        self._enabled = False
        self._root_parent = None

    def set_trace_id(self, trace_id: Optional[str]) -> None:
        """Name the current run; stamped on every subsequent span."""
        self._trace_id = trace_id

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes):
        """A context manager timing one region; its ``duration_s`` is
        read after the block, recorded or not (see the module docstring)."""
        if not self._enabled:
            return _Stopwatch()
        return _ActiveSpan(self, name, attributes)

    def remote_context(
        self,
        trace_id: Optional[str],
        parent_id: Optional[str],
    ):
        """Anchor this thread/task's spans under a remote span.

        Spans opened inside the returned context manager parent onto
        ``parent_id`` and stamp ``trace_id`` — the server side of
        trace-context propagation over a wire protocol.  A bare
        :class:`_Stopwatch` while disabled.
        """
        if not self._enabled:
            return _Stopwatch()
        return _RemoteContext(self, _RemoteAnchor(parent_id, trace_id))

    def record(
        self,
        name: str,
        duration_s: float,
        start_s: Optional[float] = None,
        **attributes,
    ) -> Optional[Span]:
        """Record an already-measured interval as a finished span.

        Used where the caller owns the timer (e.g. a contract report's
        ``elapsed_s`` or the solver's per-rung wall times) so the span
        duration is *exactly* the metric the BENCH machinery reports —
        no double measurement, no drift between the two.
        """
        if not self._enabled:
            return None
        parent = self._current.get()
        span = Span(
            name=name,
            span_id=_new_id(),
            parent_id=parent.span_id if parent is not None else self._root_parent,
            trace_id=(parent.trace_id if parent is not None else None)
            or self._trace_id,
            start_s=(time.time() - duration_s) if start_s is None else start_s,
            duration_s=float(duration_s),
            pid=self._pid,
            tid=threading.get_ident(),
            attributes=attributes,
        )
        self._finish(span)
        return span

    def current_span_id(self) -> Optional[str]:
        active = self._current.get()
        if active is not None:
            return active.span_id
        return self._root_parent

    def current_trace_id(self) -> Optional[str]:
        """The effective trace id: the span chain's, else the global."""
        active = self._current.get()
        if active is not None and active.trace_id:
            return active.trace_id
        return self._trace_id

    def current(self) -> Optional[_ActiveSpan]:
        """The innermost live span of this thread/task, if any."""
        return self._current.get()

    # ------------------------------------------------------------------
    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def adopt(self, spans: List[Span]) -> None:
        """Merge finished spans shipped back from a worker process."""
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)

    def drain(self) -> List[Span]:
        """Pop every buffered finished span (oldest first)."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # ------------------------------------------------------------------
    def worker_context(self, **attributes) -> Optional[Dict[str, Any]]:
        """The picklable activation context a worker process needs.

        Returns ``None`` while tracing is disabled so call sites can
        pass it through unconditionally.
        """
        if not self._enabled:
            return None
        return {
            "enabled": True,
            "trace_id": self.current_trace_id(),
            "parent_id": self.current_span_id(),
            "attrs": attributes or {},
        }


_TRACER = Tracer()
if hasattr(os, "register_at_fork"):  # a fork may land while a thread holds the lock
    os.register_at_fork(after_in_child=lambda: setattr(_TRACER, "_lock", threading.Lock()))


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def span(name: str, **attributes):
    """Module-level convenience for ``get_tracer().span(...)``."""
    return _TRACER.span(name, **attributes)


def new_trace_id() -> str:
    """Mint a fresh trace id (same id space as span ids).

    Used by clients that originate a distributed trace — ``repro query``
    mints one here and carries it in the request envelope.
    """
    return _new_id()


def configure(
    enabled: Optional[bool] = None,
    trace_dir: Optional[str] = None,
) -> Tracer:
    """Turn tracing on/off and select the trace output directory.

    ``trace_dir=None`` leaves the configured directory untouched; the
    effective flush directory is resolved by
    :func:`repro.obs.export.resolve_trace_dir`.
    """
    if enabled is not None:
        if enabled:
            _TRACER.enable()
        else:
            _TRACER.disable()
    if trace_dir is not None:
        os.environ[TRACE_DIR_ENV] = str(trace_dir)
    return _TRACER


def activate_worker_context(context: Optional[Dict[str, Any]]) -> bool:
    """Arm the (worker-process) global tracer from a parent's context.

    Clears any span buffer inherited through ``fork`` — those spans
    belong to (and are flushed by) the parent — and resets the
    current-span variable so the worker's spans attach to the parent id
    carried in ``context``.  Returns True when tracing is now active.
    """
    if not context or not context.get("enabled"):
        _TRACER.disable()
        return False
    with _TRACER._lock:
        _TRACER._spans = []
    _TRACER._current.set(None)
    _TRACER.enable(
        trace_id=context.get("trace_id"),
        root_parent=context.get("parent_id"),
    )
    return True


def _init_from_env() -> None:
    value = os.environ.get(TRACE_ENV, "").strip()
    if not value:
        return
    lowered = value.lower()
    if lowered in ("0", "false", "off", "no", "none", ""):
        return
    if lowered in ("1", "true", "on", "yes"):
        _TRACER.enable()
        return
    # Any other value is a directory: enable and flush there.
    _TRACER.enable()
    os.environ.setdefault(TRACE_DIR_ENV, value)


_init_from_env()
