"""The resilient exploration service: an asyncio newline-JSON front-end.

``repro serve`` turns the reproduction into design-exploration-as-a-
service: clients submit :class:`repro.runtime.PDNSpec`-shaped queries
over TCP (one JSON object per line, the same framing as the fleet
protocol in :mod:`repro.runtime.fleet`) and get back solved PDN
summaries.  Design-space exploration traffic is repeated-query shaped,
so the serving stack is built around a persistent content-addressed
cache and a ladder of robustness primitives:

1. **Fingerprint cache** — answers are memoized by the *same* content
   fingerprint the run supervisor journals
   (:func:`repro.service.cache.query_fingerprint`); repeated queries are
   sub-millisecond hits, bit-identical to a direct
   :class:`~repro.runtime.SweepEngine` run.
2. **Single-flight coalescing** — N concurrent identical queries cost
   one solve; the other N-1 await the leader's result.
3. **Bounded admission** — a full queue sheds with a typed 429-style
   response (:class:`repro.errors.ServiceOverloadError`); memory never
   grows with offered load.
4. **Deadlines** — per-request budgets expire queries in the queue and
   bound a miss's lease on the replica's local workers mid-solve (a
   worker still solving at the deadline is killed); an overrun returns
   a typed 504-style response, while an in-process solve that overruns
   still populates the cache on completion, so the client's retry hits.
5. **Circuit breaker** — K consecutive solve failures open the breaker;
   while open, queries are answered from stale cache entries or a
   coarse-grid solve, flagged ``degraded: true``, and one probe per
   cooldown window tests recovery (:mod:`repro.service.breaker`).

Observability is first-class: the server's tallies live in a typed
:class:`~repro.obs.metrics.MetricsRegistry` (per-query latency
histograms by outcome and by stage, SLO error-budget counters), exposed
through ``metrics`` requests as counters, Prometheus text *and* a
mergeable wire form that ``repro dash`` folds into one fleet-wide view.
A query may carry a ``trace`` envelope (``{"id", "parent"}``): the
replica anchors its spans under the client's span, forwards the context
to fleet workers, and flushes the reassembled spans to
``trace-<replica_id>.jsonl``.  A bounded flight recorder keeps the last
N query events in memory, dumped atomically on any 5xx and at shutdown.

``health`` / ``ready`` / ``metrics`` requests expose liveness,
readiness and the full counter set (Prometheus text included); the
counters also land in ``BENCH_service.json`` (schema v8) at shutdown.
See docs/SERVICE.md for the wire protocol and failure semantics, and
docs/OBSERVABILITY.md for the distributed-tracing story.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FleetTransportError,
    ReproError,
    ServiceOverloadError,
    ServiceProtocolError,
    TaskTimeoutError,
)
from repro.grid.backends import default_backend_name
from repro.obs.export import flush_spans
from repro.obs.logs import get_logger
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.trace import TRACE_DIR_ENV, get_tracer
from repro.runtime.fleet import ServiceFleet, parse_address
from repro.runtime.journal import atomic_write_text
from repro.runtime.metrics import BENCH_SCHEMA, write_bench_json
from repro.runtime.spec import ARRANGEMENTS, PDNSpec
from repro.service.admission import AdmissionQueue, Deadline
from repro.service.breaker import STATE_CODES, CircuitBreaker
from repro.service.cache import ResultCache, query_fingerprint
from repro.service.epoch import code_epoch
from repro.service.replica import (
    SERVICE_FILE,
    ReplicaFlights,
    deregister_replica,
    register_replica,
)

__all__ = [
    "SERVICE_PROTOCOL",
    "SERVICE_FILE",
    "ServiceConfig",
    "QueryExecutor",
    "ExplorationService",
    "ServiceHandle",
    "extract_summary",
    "spec_from_payload",
    "serve_in_background",
]

_log = get_logger(__name__)

#: Bumped on any wire-format change; hello-free protocol, so the
#: version rides in every response envelope instead.
SERVICE_PROTOCOL = 1

# SERVICE_FILE (the service.json discovery basename) now lives in
# repro.service.replica, which owns the multi-replica registry; it is
# re-exported here for pre-HA importers.
assert SERVICE_FILE == "service.json"

#: Fields a query's "spec" object may carry (the PDNSpec surface).
_SPEC_FIELDS = (
    "arrangement",
    "n_layers",
    "topology",
    "power_pad_fraction",
    "vdd_pads_per_core",
    "grid_nodes",
    "converters_per_core",
)
_SPEC_FIELD_SET = frozenset(_SPEC_FIELDS)

#: ``json.dumps(obj, sort_keys=True)`` without building an encoder per
#: call: the encoding of every response envelope.
_encode = json.JSONEncoder(sort_keys=True).encode

#: Query lines whose fingerprints the replica remembers, at least;
#: beyond this floor the memo holds as many as the cache has entries.
_FINGERPRINT_MEMO_FLOOR = 64

#: The longest request line, in bytes before its newline (the asyncio
#: streams limit); a longer one closes the connection.
MAX_LINE_BYTES = 2**16

#: A query line carrying only these fields may be memoised.
_PLAIN_QUERY_FIELDS = frozenset(("kind", "spec", "activities"))

#: What the request span, the metrics and the flight recorder read off
#: a response, in the order :func:`_response_fields` returns them.
_RESPONSE_FIELDS = (
    "fingerprint", "status", "code", "cached", "degraded", "coalesced"
)


def _response_fields(response) -> Tuple[Any, ...]:
    if type(response) is _Hit:
        return (response.fingerprint, "ok", 200, True, False, False)
    return (
        response.get("fingerprint"),
        response.get("status"),
        response.get("code"),
        response.get("cached", False),
        response.get("degraded", False),
        response.get("coalesced", False),
    )


def extract_summary(outcome) -> Dict[str, Any]:
    """The service's sweep extractor: one JSON-serialisable summary.

    Module-level (hence picklable) so a lease can ship it to a worker
    process; values are plain floats, so a JSON round
    trip through the wire is bit-exact — a cached service answer equals
    a direct engine run to the last ulp.
    """
    from repro.core.experiments.base import outcome_degraded

    result = outcome.unwrap()
    # Each quantity once; the same float operations as
    # max_ir_drop_fraction() and efficiency(), so the same bits.
    drop = result.max_ir_drop()
    load = result.load_power()
    source = result.source_power()
    return {
        "max_ir_drop_v": float(drop),
        "max_ir_drop_fraction": float(drop / result.vdd_nominal),
        "efficiency": float(0.0 if source <= 0 else load / source),
        "load_power_w": float(load),
        "source_power_w": float(source),
        "degraded_solve": bool(outcome_degraded(outcome)),
    }


def spec_from_payload(payload: Any) -> PDNSpec:
    """Validate a request's "spec" object into a PDNSpec (typed errors)."""
    if not isinstance(payload, dict):
        raise ServiceProtocolError(
            f"query 'spec' must be an object, got {type(payload).__name__}"
        )
    if not payload.keys() <= _SPEC_FIELD_SET:
        unknown = sorted(set(payload) - _SPEC_FIELD_SET)
        raise ServiceProtocolError(
            f"unknown spec field(s) {unknown}; allowed: {list(_SPEC_FIELDS)}"
        )
    try:
        return PDNSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise ServiceProtocolError(f"invalid spec: {exc}") from None


def _parse_activities(payload: Any) -> Optional[Tuple[float, ...]]:
    if payload is None:
        return None
    if not isinstance(payload, (list, tuple)):
        raise ServiceProtocolError(
            "query 'activities' must be a list of numbers or null"
        )
    try:
        return tuple(map(float, payload))
    except (TypeError, ValueError) as exc:
        raise ServiceProtocolError(f"invalid activities: {exc}") from None


def _parse_deadline(payload: Any, default_s: Optional[float]) -> Deadline:
    if payload is None:
        return Deadline.after(default_s)
    try:
        budget = float(payload)
    except (TypeError, ValueError):
        raise ServiceProtocolError(
            f"query 'deadline_s' must be a number, got {payload!r}"
        ) from None
    if budget != budget or budget <= 0:
        raise ServiceProtocolError(
            f"query 'deadline_s' must be > 0 and finite, got {payload!r}"
        )
    return Deadline.after(budget)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass
class ServiceConfig:
    """Knobs of the serving stack (all ``repro serve``-settable)."""

    #: Bind address; port 0 picks a free port (see ``service.json``).
    bind: str = "127.0.0.1:0"
    #: Cache directory (created; swept for stale tmp files on open).
    cache_dir: str = "service-cache"
    #: LRU size cap in MiB; None = unbounded.
    cache_max_mb: Optional[float] = None
    #: Entry freshness window; expired entries serve only as degraded
    #: stale answers while the breaker is open.  None = never stale.
    cache_ttl_s: Optional[float] = None
    #: Bounded admission queue length (full = typed 429 shed).
    max_queue: int = 64
    #: Default per-request deadline when a query does not set one.
    default_deadline_s: Optional[float] = None
    #: Consecutive solve failures that open the breaker.
    breaker_threshold: int = 5
    #: Seconds the breaker stays open before a half-open probe.
    breaker_cooldown_s: float = 10.0
    #: Grid resolution of breaker-open degraded answers (skipped when
    #: the query is already at or below it).
    coarse_grid: int = 6
    #: Misses solved at once.  With ``workers > 1`` or ``task_timeout_s``,
    #: as many local solver processes (at least one) are forked for the
    #: replica's life and leased each miss with a deadline to enforce
    #: (``task_timeout_s`` or the query's); other misses solve on this
    #: process's engine, which keeps each topology's factorisation.
    workers: int = 1
    #: Longest lease of a miss on a local worker (the query's remaining
    #: deadline caps it); an expired lease kills and respawns the worker.
    task_timeout_s: Optional[float] = None
    #: Leases a leased miss may use before its last error is answered
    #: (a typed error the worker raised is answered at once).
    max_attempts: int = 3
    #: Basename of the BENCH counters file written at shutdown into
    #: ``cache_dir`` (None disables).
    bench_name: Optional[str] = "service"
    #: ``HOST:PORT`` to bind the replica's
    #: :class:`repro.runtime.fleet.ServiceFleet` on: cache misses fan out
    #: to attached ``repro worker`` processes beside any local workers,
    #: degrading to the local executor when none is connected.
    fleet: Optional[str] = None
    #: Per-miss fleet lease deadline (expired leases re-lease).
    lease_timeout_s: float = 60.0
    #: Grace window with zero attached workers before a fleet solve
    #: falls back to the local executor.
    fleet_wait_s: float = 10.0
    #: Stable identity in the replica registry (default: pid-derived).
    replica_id: Optional[str] = None
    #: Code-version epoch override for the cache (tests/CI; normally
    #: computed from the source tree, see :mod:`repro.service.epoch`).
    epoch: Optional[str] = None
    #: Latency objective (seconds) for SLO accounting: a query answered
    #: slower than this — or not answered 200 at all — burns error
    #: budget (``service_slo_total{result="breached"}``).  None disables.
    slo_latency_s: Optional[float] = None
    #: Flight-recorder ring size: the last N query events kept in
    #: memory and dumped atomically on any 5xx response and at shutdown
    #: (``flight-recorder-<replica_id>.json``).  0 disables.
    flight_recorder: int = 256
    #: Seconds between background flushes of finished spans to this
    #: replica's ``trace-<replica_id>.jsonl`` (tracing enabled only).
    trace_flush_s: float = 5.0


# ----------------------------------------------------------------------
# Query execution (sync, runs on worker threads)
# ----------------------------------------------------------------------

class QueryExecutor:
    """Runs cache misses on a shared engine, in this process.

    One lock serializes solves: the engine's structure cache is not
    reentrant, and concurrency for the service comes from cache hits
    and coalescing, not parallel factorisations.
    """

    def __init__(self, engine: Any = None):
        from repro.runtime import SweepEngine

        self.engine = engine or SweepEngine()
        self._lock = threading.Lock()

    def solve(
        self,
        spec: PDNSpec,
        activities: Optional[Tuple[float, ...]],
        deadline: Deadline,
    ) -> Dict[str, Any]:
        from repro.runtime import SweepPoint

        deadline.check()
        point = SweepPoint(spec=spec, layer_activities=activities)
        with self._lock:
            deadline.check()
            return self.engine.run([point], extract=extract_summary).values[0]


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------

@dataclass
class _WorkItem:
    """One admitted query travelling from admission to a solver worker."""

    fingerprint: str
    spec: PDNSpec
    activities: Optional[Tuple[float, ...]]
    deadline: Deadline
    future: "asyncio.Future"
    solver: str
    #: The admitting request's trace context (a ``worker_context`` dict)
    #: so the solver worker — a different asyncio task — re-anchors its
    #: spans under the request's span chain.  None when tracing is off.
    trace: Optional[Dict[str, Any]] = None


class _Hit:
    """A fresh cache hit on its way out: spliced, never re-encoded."""

    __slots__ = ("fingerprint", "solver", "result_json")

    def __init__(self, fingerprint: str, solver: str, result_json: bytes):
        self.fingerprint = fingerprint
        self.solver = solver
        self.result_json = result_json

    def encode(self, wall_s: float, message: Dict[str, Any]) -> bytes:
        """The response line, byte for byte what ``_encode`` writes for
        the hit's envelope: its keys in sorted order, the kept result
        JSON spliced in."""
        request_id = (
            b', "id": ' + _encode(message["id"]).encode("utf-8")
            if "id" in message
            else b""
        )
        return (
            b'{"cached": true, "code": 200, "degraded": false, '
            b'"fingerprint": %b%b, "kind": "result", "protocol": %d, '
            b'"result": %b, "solver": %b, "status": "ok", "wall_s": %b}\n'
        ) % (
            _encode(self.fingerprint).encode("utf-8"),
            request_id,
            SERVICE_PROTOCOL,
            self.result_json,
            _encode(self.solver).encode("utf-8"),
            repr(wall_s).encode("utf-8"),
        )


class _Connection(asyncio.Protocol):
    """One client connection, answered in request order.

    A memoised plain query whose entry is a fresh hit is answered in the
    read callback (:meth:`ExplorationService._answer_hit`).  Any other
    line goes to one task on the full path, and the lines behind it wait
    in the buffer.  Reading pauses while writing is paused or more than
    two maximal lines wait; a line over :data:`MAX_LINE_BYTES` closes
    the connection when its turn comes.
    """

    def __init__(self, service: "ExplorationService"):
        self._service = service
        self._buffer = bytearray()
        self._task: Optional[asyncio.Task] = None
        self._write_paused = self._eof = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._peer = transport.get_extra_info("peername")
        self._service._connections.add(transport)

    def connection_lost(self, exc) -> None:
        self._service._connections.discard(self._transport)

    def pause_writing(self) -> None:
        self._write_paused = True
        self._pump()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._pump()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._pump()

    def eof_received(self) -> bool:
        self._eof = True
        self._pump()
        return True  # _pump closes once every answer is written

    def _pump(self) -> None:
        buffer, start, transport = self._buffer, 0, self._transport
        while not (self._task or self._write_paused or transport.is_closing()):
            end = buffer.find(b"\n", start, start + MAX_LINE_BYTES + 1)
            if end < 0 and self._eof and start < len(buffer) <= start + MAX_LINE_BYTES:
                end = len(buffer)  # an unterminated last line at EOF
            if end < 0:
                break
            line, start = bytes(buffer[start:end]), end + 1
            response = self._service._answer_hit(line, self._peer)
            if response is None:
                self._task = asyncio.ensure_future(self._answer(line))
            else:
                transport.write(response)
        del buffer[:start]
        if transport.is_closing():
            return
        if not (self._task or self._write_paused) and (
            self._eof or len(buffer) > MAX_LINE_BYTES
        ):
            if len(buffer) > MAX_LINE_BYTES:
                _log.warning("request line over the limit", extra={"peer": str(self._peer)})
            transport.close()
            return
        pause = self._write_paused or self._eof or len(buffer) > 2 * MAX_LINE_BYTES
        if pause == transport.is_reading():
            (transport.pause_reading if pause else transport.resume_reading)()

    async def _answer(self, line: bytes) -> None:
        try:
            response = await self._service._respond(line, self._peer)
        except Exception:  # pragma: no cover - handler must never leak
            _log.warning("service connection handler error", extra={"peer": str(self._peer)})
            response = None
            self._transport.close()
        if response is not None and not self._transport.is_closing():
            self._transport.write(response)
        self._task = None
        self._pump()


class ExplorationService:
    """The asyncio TCP server tying cache, admission and breaker together.

    ``solve_fn(spec, activities, deadline) -> dict`` defaults to a
    :class:`QueryExecutor` over a shared engine; tests inject stubs.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        engine: Any = None,
        solve_fn: Optional[Callable[..., Dict[str, Any]]] = None,
    ):
        self.config = config or ServiceConfig()
        self.epoch = self.config.epoch or code_epoch()
        self.replica_id = self.config.replica_id or f"replica-{os.getpid()}"
        self.cache = ResultCache(
            self.config.cache_dir,
            max_mb=self.config.cache_max_mb,
            ttl_s=self.config.cache_ttl_s,
            epoch=self.epoch,
        )
        self.flights = ReplicaFlights(self.cache.directory)
        self.fleet: Optional[ServiceFleet] = None
        self.fleet_address: Optional[str] = None
        self.admission = AdmissionQueue(max_queue=self.config.max_queue)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        if solve_fn is None:
            self._executor = QueryExecutor(engine=engine)
            solve_fn = self._executor.solve
        else:
            self._executor = None
        self.solve_fn = solve_fn
        self._flights: Dict[str, asyncio.Future] = {}
        self._connections: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: List[asyncio.Task] = []
        self._stopped = asyncio.Event()
        self._draining = False
        self._started_at = time.monotonic()
        self.address: Optional[str] = None
        self.inflight = 0
        # Typed telemetry: one live registry mutated on the hot path
        # (event loop *and* to_thread solver threads — the metric types
        # are lock-protected).  The legacy counters() dict is a view.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "service_requests_total", "requests received, by kind"
        )
        self._m_responses = self.metrics.counter(
            "service_responses_total", "responses sent, by status"
        )
        self._m_solves = self.metrics.counter(
            "service_solves_total", "backend solves, by outcome"
        )
        self._m_degraded = self.metrics.counter(
            "service_degraded_total", "degraded answers, by mode"
        )
        self._m_coalesced = self.metrics.counter(
            "service_coalesced_total", "queries coalesced into a flight"
        )
        self._m_replica = self.metrics.counter(
            "service_replica_total", "cross-replica flight events"
        )
        self._m_fleet = self.metrics.counter(
            "service_fleet_total", "fleet fan-out events"
        )
        self._m_slo = self.metrics.counter(
            "service_slo_total", "queries vs the latency objective"
        )
        self._m_query_latency = self.metrics.histogram(
            "service_query_latency",
            "per-query wall time, by outcome",
            buckets=LATENCY_BUCKETS,
        )
        self._m_stage_latency = self.metrics.histogram(
            "service_stage_latency",
            "per-stage wall time (cache/queue/flight-wait/solve/fleet)",
            buckets=LATENCY_BUCKETS,
        )
        # The hit path's label sets, bound once.
        self._m_query_requests = self._m_requests.labels(kind="query")
        self._m_ok_responses = self._m_responses.labels(status="ok")
        self._m_hit_latency = self._m_query_latency.labels(outcome="hit")
        self._m_cache_latency = self._m_stage_latency.labels(stage="cache")
        self._m_slo_ok = self._m_slo.labels(result="ok")
        self._m_slo_breached = self._m_slo.labels(result="breached")
        #: (plain query line, solver) -> fingerprint (see _answer_hit).
        self._lines: Dict[Tuple[bytes, str], str] = {}
        #: Flight recorder: recent query events for post-mortems, as
        #: ``(t, outcome, wall_s, peer, trace, response fields)`` tuples
        #: (formatted only when dumped).
        self._recorder: Optional[deque] = (
            deque(maxlen=int(self.config.flight_recorder))
            if int(self.config.flight_recorder) > 0
            else None
        )

    # Legacy int counters survive as views over the typed registry.
    @property
    def coalesced(self) -> int:
        return int(self._m_coalesced.total())

    @property
    def replica_hits(self) -> int:
        """Queries answered by waiting out a peer replica's flight."""
        return int(self._m_replica.value(event="hits"))

    @property
    def replica_waits(self) -> int:
        """Times this replica deferred a solve to a peer's flight claim."""
        return int(self._m_replica.value(event="waits"))

    @property
    def fleet_fallbacks(self) -> int:
        """Fleet solves that fell back to the local executor."""
        return int(self._m_fleet.value(event="fallbacks"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> str:
        """Open the cache, bind, start workers; returns ``host:port``."""
        host, port = parse_address(self.config.bind)
        self.cache.open()
        self.flights.open()
        config = self.config
        local = config.workers > 1 or config.task_timeout_s is not None
        if config.fleet or local:
            # Forked before the service socket exists: they do not inherit it.
            fleet = ServiceFleet(
                config.fleet or "127.0.0.1:0",
                extract=extract_summary,
                lease_timeout_s=config.lease_timeout_s,
                max_attempts=config.max_attempts,
                wait_s=config.fleet_wait_s,
                local_workers=max(1, config.workers) if local else 0,
                local_timeout_s=config.task_timeout_s,
            )
            try:
                address = fleet.start()
            except FleetTransportError as exc:
                _log.warning(
                    "service fleet unavailable; solving locally",
                    extra={"error": str(exc)},
                )
            else:
                self.fleet = fleet
                if config.fleet:  # only a --fleet address is published
                    self.fleet_address = address
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Connection(self), host, port)
        sock = self._server.sockets[0].getsockname()
        self.address = f"{sock[0]}:{sock[1]}"
        self._started_at = time.monotonic()
        for i in range(max(1, int(self.config.workers))):
            self._workers.append(
                asyncio.create_task(self._solver_worker(), name=f"solver-{i}")
            )
        if get_tracer().enabled:
            self._workers.append(
                asyncio.create_task(self._trace_flusher(), name="trace-flush")
            )
        self._write_discovery()
        _log.info(
            "exploration service listening",
            extra={
                "address": self.address,
                "replica": self.replica_id,
                "epoch": self.epoch,
                "fleet": self.fleet_address,
                "cache_dir": str(self.cache.directory),
                "max_queue": self.admission.max_queue,
            },
        )
        return self.address

    def _write_discovery(self) -> None:
        register_replica(
            self.cache.directory,
            replica_id=self.replica_id,
            address=self.address,
            epoch=self.epoch,
            fleet=self.fleet_address,
            protocol=SERVICE_PROTOCOL,
        )

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight queries, stop.

        With ``drain`` the admission queue is emptied by the workers and
        every outstanding response is written before the loop stops —
        clients never see a connection die mid-answer on a clean stop.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain:
            try:
                await asyncio.wait_for(self.admission.drain(), timeout=60.0)
            except asyncio.TimeoutError:  # pragma: no cover - safety net
                _log.warning("shutdown drain timed out; stopping anyway")
            # Give connection handlers one loop turn to write responses.
            await asyncio.sleep(0)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        # Close every connection before the loop tears down.
        for transport in list(self._connections):
            transport.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._server = None
        if self.fleet is not None:
            await asyncio.to_thread(self.fleet.close)
        try:
            deregister_replica(self.cache.directory, self.replica_id)
        except OSError:  # pragma: no cover - registry dir gone
            pass
        self._flush_trace()
        self._dump_recorder(reason="shutdown")
        self._write_bench()
        self._stopped.set()
        _log.info("exploration service stopped", extra={"drained": drain})

    def _write_bench(self) -> None:
        if self.config.bench_name is None:
            return
        try:
            write_bench_json(
                self.config.bench_name,
                self.bench_payload(),
                directory=self.cache.directory,
            )
        except OSError:  # pragma: no cover - disk full on shutdown
            _log.warning("could not write service BENCH file")

    # ------------------------------------------------------------------
    # Tracing + flight recorder
    # ------------------------------------------------------------------
    async def _trace_flusher(self) -> None:
        """Periodic span flush: keeps trace files fresh without a
        per-request rewrite (flush_spans rewrites the whole file)."""
        interval = max(0.5, float(self.config.trace_flush_s))
        while True:
            await asyncio.sleep(interval)
            await asyncio.to_thread(self._flush_trace)

    def _flush_trace(self) -> None:
        """Drain finished spans into ``trace-<replica_id>.jsonl``."""
        tracer = get_tracer()
        if not tracer.enabled or len(tracer) == 0:
            return
        trace_dir = (
            os.environ.get(TRACE_DIR_ENV, "").strip()
            or str(self.cache.directory)
        )
        try:
            flush_spans(tracer.drain(), self.replica_id, trace_dir=trace_dir)
        except OSError:  # pragma: no cover - disk trouble mid-run
            _log.warning("could not flush service trace spans")

    def _record_flight(
        self,
        message: Dict[str, Any],
        fields: Tuple[Any, ...],
        outcome: str,
        wall_s: float,
        peer: Any,
    ) -> None:
        if self._recorder is None:
            return
        trace = message.get("trace")
        trace_id = trace.get("id") if isinstance(trace, dict) else None
        self._recorder.append(
            (time.time(), outcome, wall_s, peer, trace_id, fields)
        )
        code = int(fields[2] or 0)
        if code >= 500:
            self._dump_recorder(reason=f"status-{code}")

    @staticmethod
    def _flight_event(event: Tuple[Any, ...]) -> Dict[str, Any]:
        t, outcome, wall_s, peer, trace_id, fields = event
        record = dict(zip(_RESPONSE_FIELDS, fields))
        for flag in ("cached", "degraded", "coalesced"):
            record[flag] = bool(record[flag])
        record.update(
            t=round(t, 6),
            outcome=outcome,
            wall_s=round(wall_s, 6),
            peer=str(peer) if peer else None,
            trace=trace_id,
        )
        return record

    def _dump_recorder(self, reason: str) -> None:
        """Atomically dump the ring buffer for post-mortems."""
        if self._recorder is None or not self._recorder:
            return
        path = (
            self.cache.directory / f"flight-recorder-{self.replica_id}.json"
        )
        payload = {
            "kind": "flight-recorder",
            "replica": self.replica_id,
            "reason": reason,
            "dumped_at": round(time.time(), 3),
            "capacity": self._recorder.maxlen,
            "events": [self._flight_event(e) for e in self._recorder],
        }
        try:
            atomic_write_text(
                path, json.dumps(payload, sort_keys=True) + "\n", durable=False
            )
        except OSError:  # pragma: no cover - disk trouble
            _log.warning(
                "could not dump flight recorder", extra={"reason": reason}
            )

    # ------------------------------------------------------------------
    # Counters / metrics
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Any]:
        def by(counter, label: str) -> Dict[str, int]:
            return {
                key: int(value)
                for key, value in counter.by_label(label).items()
            }

        counters = {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "epoch": self.epoch,
            "requests": by(self._m_requests, "kind"),
            "responses": by(self._m_responses, "status"),
            "cache": self.cache.counters(),
            "admission": self.admission.counters(),
            "breaker": self.breaker.snapshot(),
            "solves": by(self._m_solves, "status"),
            "degraded": by(self._m_degraded, "mode"),
            "coalesced": self.coalesced,
            "inflight": self.inflight,
            "latency": self._latency_summary(),
            "slo": self._slo_summary(),
            "replica": {
                "id": self.replica_id,
                "waits": self.replica_waits,
                "hits": self.replica_hits,
                **self.flights.counters(),
            },
        }
        if self.fleet is not None:
            counters["fleet"] = {
                **self.fleet.counters(),
                "fallbacks": self.fleet_fallbacks,
            }
        return counters

    def _latency_summary(self) -> Dict[str, Any]:
        histogram = self._m_query_latency
        summary: Dict[str, Any] = {
            "count": histogram.total_count(),
            "sum_s": round(histogram.total_sum(), 6),
            "by_outcome": {
                outcome: int(count)
                for outcome, count in histogram.count_by_label(
                    "outcome"
                ).items()
            },
        }
        for q, name in ((0.5, "p50_s"), (0.95, "p95_s"), (0.99, "p99_s")):
            estimate = histogram.quantile(q)
            summary[name] = None if estimate is None else round(estimate, 6)
        return summary

    def _slo_summary(self) -> Dict[str, Any]:
        ok = int(self._m_slo.value(result="ok"))
        breached = int(self._m_slo.value(result="breached"))
        total = ok + breached
        return {
            "objective_s": self.config.slo_latency_s,
            "ok": ok,
            "breached": breached,
            "budget_burn": round(breached / total, 6) if total else 0.0,
        }

    def registry(self) -> MetricsRegistry:
        """One scrape snapshot: the live typed registry merged with the
        component counters (cache/admission/breaker/flights/fleet) and
        point-in-time state gauges (Prometheus- and wire-ready)."""
        registry = MetricsRegistry()
        registry.merge(self.metrics)
        cache = registry.counter(
            "service_cache_total", "cache events (hit/miss/stale/write/evict)"
        )
        cache_counters = self.cache.counters()
        for event in (
            "hits",
            "misses",
            "stale_hits",
            "writes",
            "evictions",
            "corrupt",
            "epoch_misses",
        ):
            cache.inc(cache_counters[event], event=event)
        replica = registry.counter(
            "service_replica_total", "cross-replica flight events"
        )
        for event, count in self.flights.counters().items():
            replica.inc(count, event=event)
        if self.fleet is not None:
            fleet = registry.counter(
                "service_fleet_total", "fleet fan-out events"
            )
            fleet.inc(self.fleet.tasks_done, event="tasks_done")
            fleet.inc(self.fleet.task_failures, event="task_failures")
            fleet.inc(self.fleet.leases_expired, event="leases_expired")
            fleet.inc(self.fleet.worker_deaths, event="worker_deaths")
        shed = registry.counter(
            "service_shed_total", "queries shed by admission control"
        )
        shed.inc(self.admission.shed, reason="queue_full")
        shed.inc(self.admission.expired_in_queue, reason="deadline_in_queue")
        transitions = registry.counter(
            "service_breaker_transitions_total", "breaker transitions, by state"
        )
        for state, count in self.breaker.transitions():
            transitions.inc(count, to=state)
        gauge = registry.gauge("service_state", "service state gauges")
        gauge.set(self.admission.depth(), field="queue_depth")
        gauge.set(self.inflight, field="inflight")
        gauge.set(STATE_CODES[self.breaker.state], field="breaker_state")
        gauge.set(len(self.cache), field="cache_entries")
        gauge.set(self.cache.size_bytes(), field="cache_size_bytes")
        gauge.set(time.monotonic() - self._started_at, field="uptime_s")
        gauge.set(self._slo_summary()["budget_burn"], field="slo_budget_burn")
        if self.fleet is not None:
            gauge.set(self.fleet.workers_connected(), field="fleet_workers")
        return registry

    def bench_payload(self) -> Dict[str, Any]:
        """The BENCH schema-v8 counter block (layout in docs/RUNTIME.md)."""
        return {
            "schema": BENCH_SCHEMA,
            "service": self.counters(),
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _answer_hit(self, line: bytes, peer: Any) -> Optional[bytes]:
        """A memoised line's response when its entry is a fresh hit and
        tracing is off, with the full path's accounting but no task and
        no await; None sends the line down :meth:`_respond`."""
        t0 = time.perf_counter()
        solver = default_backend_name()
        fingerprint = self._lines.get((line, solver))
        if fingerprint is None or get_tracer().enabled:
            return None
        result_json = self.cache.fresh_json(fingerprint)
        if result_json is None:
            return None
        self._m_cache_latency.observe(time.perf_counter() - t0)
        self._m_query_requests.inc()
        hit = _Hit(fingerprint, solver, result_json)
        return self._send_hit(hit, {}, time.perf_counter() - t0, peer)

    async def _respond(self, raw: bytes, peer: Any) -> Optional[bytes]:
        """One request line's response line (None for a blank line)."""
        line = raw.strip()
        if not line:
            return None
        try:
            message = json.loads(line)
            error = (
                None
                if isinstance(message, dict)
                else "request must be a JSON object"
            )
        except UnicodeDecodeError:
            error = "request is not UTF-8"
        except ValueError as exc:  # JSONDecodeError, overlong ints
            error = f"unparsable request: {getattr(exc, 'msg', exc)}"
        if error is None:
            plain = message.keys() <= _PLAIN_QUERY_FIELDS
            response = await self._dispatch(message, peer, raw if plain else None)
        else:
            message = {}
            response = self._error_response(None, ServiceProtocolError(error))
        if type(response) is not bytes:
            response.setdefault("protocol", SERVICE_PROTOCOL)
            if "id" in message:
                response["id"] = message["id"]
            response = (_encode(response) + "\n").encode("utf-8")
        return response

    async def _dispatch(
        self, message: Dict[str, Any], peer: Any = None, line: Optional[bytes] = None
    ) -> Union[Dict[str, Any], bytes]:
        """One request's response: an envelope dict, or a cache hit's
        finished response line.  A query's ``line`` is memoised once
        the query validates."""
        kind = message.get("kind")
        if kind == "query":
            self._m_query_requests.inc()
            return await self._handle_query(message, peer, line)
        self._m_requests.inc(kind=str(kind))
        if kind == "health":
            return self._handle_health()
        if kind == "ready":
            return self._handle_ready()
        if kind == "metrics":
            registry = self.registry()
            return {
                "kind": "metrics",
                "status": "ok",
                "code": 200,
                "counters": self.counters(),
                "prometheus": registry.to_prometheus(),
                # Mergeable wire form: `repro dash` folds these across
                # replicas without parsing the Prometheus text.
                "series": registry.to_wire(),
            }
        if kind == "shutdown":
            drain = bool(message.get("drain", True))
            asyncio.get_running_loop().create_task(self.shutdown(drain=drain))
            return {
                "kind": "shutdown",
                "status": "draining" if drain else "stopping",
                "code": 200,
            }
        return self._error_response(
            None, ServiceProtocolError(f"unknown request kind {kind!r}")
        )

    def _handle_health(self) -> Dict[str, Any]:
        response = {
            "kind": "health",
            "status": "ok",
            "code": 200,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "breaker": self.breaker.state,
            "queue_depth": self.admission.depth(),
            "inflight": self.inflight,
            "cache_entries": len(self.cache),
            "draining": self._draining,
            "replica": self.replica_id,
            "epoch": self.epoch,
        }
        if self.fleet is not None:
            response["fleet_workers"] = self.fleet.workers_connected()
        return response

    def _handle_ready(self) -> Dict[str, Any]:
        reasons = []
        if self._draining:
            reasons.append("draining")
        if self.admission.depth() >= self.admission.max_queue:
            reasons.append("admission queue full")
        if self.breaker.state == "open":
            reasons.append("breaker open (degraded answers only)")
        ready = "draining" not in reasons and (
            "admission queue full" not in reasons
        )
        return {
            "kind": "ready",
            "status": "ok" if ready else "not-ready",
            "code": 200 if ready else 503,
            "reasons": reasons,
        }

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    async def _handle_query(
        self, message: Dict[str, Any], peer: Any = None, line: Optional[bytes] = None
    ) -> Union[Dict[str, Any], bytes]:
        # The request span is the query's one clock; it is anchored under
        # the client's span when the envelope carries trace context
        # (contextvars keep concurrent requests on separate anchors).
        tracer = get_tracer()
        trace = message.get("trace")
        trace = trace if isinstance(trace, dict) else {}
        with tracer.remote_context(trace.get("id"), trace.get("parent")):
            with tracer.span(
                "service.request",
                transport="tcp",
                replica=self.replica_id,
                peer=str(peer) if peer else "",
            ) as request_span:
                response = await self._answer_query(message, line)
                if tracer.enabled:
                    request_span.set(
                        **dict(zip(_RESPONSE_FIELDS, _response_fields(response)))
                    )
        wall = request_span.duration_s
        if type(response) is _Hit:
            return self._send_hit(response, message, wall, peer)
        fields = _response_fields(response)
        response["wall_s"] = round(wall, 6)
        self._m_responses.inc(status=str(response.get("status", "unknown")))
        outcome = self._classify(response)
        self._m_query_latency.observe(wall, outcome=outcome)
        self._account_slo(int(fields[2] or 0), wall)
        self._record_flight(message, fields, outcome, wall, peer)
        return response

    def _send_hit(
        self, hit: _Hit, message: Dict[str, Any], wall: float, peer: Any
    ) -> bytes:
        self._m_ok_responses.inc()
        self._m_hit_latency.observe(wall)
        self._account_slo(200, wall)
        self._record_flight(message, _response_fields(hit), "hit", wall, peer)
        return hit.encode(round(wall, 6), message)

    def _account_slo(self, code: int, wall_s: float) -> None:
        if self.config.slo_latency_s is None:
            return
        if code != 200 or wall_s > self.config.slo_latency_s:
            self._m_slo_breached.inc()
        else:
            self._m_slo_ok.inc()

    @staticmethod
    def _classify(response: Dict[str, Any]) -> str:
        """The latency-histogram outcome label for one response:
        ``hit|miss|stale|degraded|shed|timeout|error``."""
        status = response.get("status")
        if status == "ok":
            if response.get("degraded"):
                if response.get("degraded_mode") == "stale-cache":
                    return "stale"
                return "degraded"
            return "hit" if response.get("cached") else "miss"
        if status == "overloaded":
            return "shed"
        if status == "deadline":
            return "timeout"
        return "error"

    async def _answer_query(
        self, message: Dict[str, Any], line: Optional[bytes] = None
    ) -> Union[Dict[str, Any], _Hit]:
        try:
            spec = spec_from_payload(message.get("spec"))
            activities = _parse_activities(message.get("activities"))
            deadline = _parse_deadline(
                message.get("deadline_s"), self.config.default_deadline_s
            )
            if activities is not None and len(activities) != spec.n_layers:
                raise ServiceProtocolError(
                    f"activities has {len(activities)} value(s) for "
                    f"{spec.n_layers} layer(s)"
                )
        except ServiceProtocolError as exc:
            return self._error_response(None, exc)
        solver = default_backend_name()
        fingerprint = query_fingerprint(spec, activities, solver)
        tracer = get_tracer()

        # 1. Cache fast path: repeated queries never touch admission.
        with tracer.span("service.cache_probe", fingerprint=fingerprint) as probe:
            entry = self.cache.get(fingerprint)
            probe.set(hit=entry is not None)
        self._m_cache_latency.observe(probe.duration_s)
        if line is not None:
            # At most as many lines as the cache has entries, a miss's
            # answer about to be cached included (or the floor), oldest
            # dropped first.
            bound = max(len(self.cache) + (entry is None), _FINGERPRINT_MEMO_FLOOR)
            while len(self._lines) >= bound:
                del self._lines[next(iter(self._lines))]
            self._lines[line, solver] = fingerprint
        if entry is not None:
            return _Hit(fingerprint, solver, entry.result_json)

        if self._draining:
            return self._error_response(
                fingerprint,
                ServiceOverloadError(
                    "service is draining for shutdown", retry_after_s=1.0
                ),
                status="unavailable",
                code=503,
            )

        # 2. Single-flight: concurrent identical queries share one solve.
        flight = self._flights.get(fingerprint)
        coalesced = flight is not None
        if flight is None:
            flight = asyncio.get_running_loop().create_future()
            self._flights[fingerprint] = flight
            item = _WorkItem(
                fingerprint=fingerprint,
                spec=spec,
                activities=activities,
                deadline=deadline,
                future=flight,
                solver=solver,
                trace=tracer.worker_context(),
            )
            try:
                # 3. Bounded admission: full queue = typed shed.
                self.admission.submit(item, deadline)
            except ServiceOverloadError as exc:
                self._flights.pop(fingerprint, None)
                flight.cancel()
                return self._error_response(
                    fingerprint, exc, status="overloaded", code=429
                )
        else:
            self._m_coalesced.inc()

        # 4. Await the flight under *this* request's own deadline.
        wait_t0 = time.perf_counter()
        try:
            remaining = deadline.remaining_s()
            payload = await asyncio.wait_for(
                asyncio.shield(flight), timeout=remaining
            )
        except asyncio.TimeoutError:
            return self._error_response(
                fingerprint,
                DeadlineExceededError(
                    f"query {fingerprint} exceeded its "
                    f"{deadline.budget_s:g}s deadline while "
                    f"{'coalesced' if coalesced else 'queued/solving'}",
                    task=fingerprint,
                    timeout_s=deadline.budget_s,
                ),
                status="deadline",
                code=504,
            )
        except asyncio.CancelledError:
            return self._error_response(
                fingerprint,
                ServiceOverloadError("query cancelled during shutdown"),
                status="unavailable",
                code=503,
            )
        response = dict(payload)
        if coalesced:
            # Followers spent their wall waiting on the leader's flight.
            wait_s = time.perf_counter() - wait_t0
            self._m_stage_latency.observe(wait_s, stage="flight-wait")
            tracer.record(
                "service.flight_wait", wait_s, fingerprint=fingerprint
            )
            response["coalesced"] = True
        return response

    # ------------------------------------------------------------------
    # Solver workers
    # ------------------------------------------------------------------
    async def _solver_worker(self) -> None:
        tracer = get_tracer()
        while True:
            admitted = await self.admission.next()
            item: _WorkItem = admitted.item
            queued_s = max(0.0, time.monotonic() - admitted.admitted_at)
            self._m_stage_latency.observe(queued_s, stage="queue")
            self.inflight += 1
            trace_ctx = item.trace or {}
            try:
                # Re-anchor under the admitting request's span chain:
                # this worker is a different asyncio task, so the
                # request's contextvars do not reach here on their own.
                with tracer.remote_context(
                    trace_ctx.get("trace_id"), trace_ctx.get("parent_id")
                ):
                    tracer.record(
                        "service.queued",
                        queued_s,
                        fingerprint=item.fingerprint,
                    )
                    payload = await self._execute(item)
            except Exception as exc:  # pragma: no cover - worker armor
                payload = self._error_response(
                    item.fingerprint,
                    ReproError(f"internal service error: {exc}"),
                    status="solve-error",
                    code=500,
                )
            finally:
                self.inflight -= 1
                self._flights.pop(item.fingerprint, None)
                self.admission.task_done()
            if not item.future.done():
                item.future.set_result(payload)

    async def _execute(self, item: _WorkItem) -> Dict[str, Any]:
        # Expired while queued: typed timeout, never a wasted solve.
        if item.deadline.expired():
            self.admission.expired_in_queue += 1
            return self._error_response(
                item.fingerprint,
                DeadlineExceededError(
                    f"query {item.fingerprint} spent its "
                    f"{item.deadline.budget_s:g}s deadline in the "
                    "admission queue",
                    task=item.fingerprint,
                    timeout_s=item.deadline.budget_s,
                ),
                status="deadline",
                code=504,
            )
        allowed, probe = self.breaker.allow()
        if not allowed:
            return await self._degraded_answer(item)
        return await self._solve(item, probe=probe)

    async def _solve(self, item: _WorkItem, probe: bool) -> Dict[str, Any]:
        # Cross-replica single-flight: claim the fingerprint before
        # solving.  A refused claim means a peer replica is already
        # solving the same query — wait for its cache write instead of
        # duplicating the solve.  Claims are flock-held, so a peer dying
        # mid-solve auto-releases and the waiter promotes itself.
        claim = self.flights.try_claim(item.fingerprint)
        if claim is None:
            self._m_replica.inc(event="waits")
            outcome = await self._await_peer_flight(item)
            if isinstance(outcome, dict):
                return outcome
            claim = outcome  # the peer vanished: this replica leads now
        try:
            return await self._solve_as_leader(item, probe)
        finally:
            # Released only after the cache write (inside the leader
            # path), so a waiter that sees the claim free finds either
            # the entry or a dead leader — never a silent gap.
            claim.release()

    async def _await_peer_flight(self, item: _WorkItem):
        """Poll the shared cache while a peer replica solves ``item``.

        Returns a ready response dict (peer finished, or this query's
        deadline ran out) or a :class:`FlightClaim` when the peer
        released without caching (it crashed, or its solve failed) and
        this replica should lead the solve itself.
        """
        while True:
            entry = self.cache.get(item.fingerprint, count=False)
            if entry is not None:
                self._m_replica.inc(event="hits")
                response = self._ok_response(
                    item.fingerprint, entry.payload, item.solver, cached=True
                )
                response["coalesced"] = True
                response["coalesced_with"] = "replica"
                return response
            if item.deadline.expired():
                return self._error_response(
                    item.fingerprint,
                    DeadlineExceededError(
                        f"query {item.fingerprint} spent its "
                        f"{item.deadline.budget_s:g}s deadline waiting on "
                        "a peer replica's solve",
                        task=item.fingerprint,
                        timeout_s=item.deadline.budget_s,
                    ),
                    status="deadline",
                    code=504,
                )
            claim = self.flights.try_claim(item.fingerprint)
            if claim is not None:
                return claim
            await asyncio.sleep(0.05)

    def _run_backend(self, item: _WorkItem) -> Dict[str, Any]:
        """One miss's solve: the fleet when a remote worker is attached or
        local workers can enforce a deadline, the local executor (whose
        engine keeps factorisations) otherwise and on fleet trouble.

        Runs on a ``to_thread`` worker; ``asyncio.to_thread`` copied the
        solver task's contextvars, so spans opened here chain under the
        request's anchor, and ``worker_context()`` hands the fleet the
        per-query trace context to forward over the wire.
        """
        tracer = get_tracer()
        fleet = self.fleet
        bounded = self.config.task_timeout_s is not None or item.deadline.expires_at is not None
        if fleet is not None and (
            fleet.workers_connected() > 0 or fleet.local_workers and bounded
        ):
            try:
                with tracer.span(
                    "service.fleet", fingerprint=item.fingerprint
                ) as fleet_span:
                    result = fleet.solve(
                        item.spec,
                        item.activities,
                        timeout_s=item.deadline.remaining_s(),
                        solver=item.solver,
                        label=item.fingerprint,
                        trace_ctx=tracer.worker_context(),
                    )
            except FleetTransportError as exc:
                self._m_fleet.inc(event="fallbacks")
                _log.warning(
                    "fleet solve fell back to local executor",
                    extra={
                        "fingerprint": item.fingerprint,
                        "error": str(exc),
                    },
                )
            else:
                self._m_stage_latency.observe(fleet_span.duration_s, stage="fleet")
                return result
        with tracer.span(
            "service.solve", fingerprint=item.fingerprint, backend=item.solver
        ) as solve_span:
            result = self.solve_fn(item.spec, item.activities, item.deadline)
        self._m_stage_latency.observe(solve_span.duration_s, stage="solve")
        return result

    async def _solve_as_leader(
        self, item: _WorkItem, probe: bool
    ) -> Dict[str, Any]:
        try:
            summary = await asyncio.to_thread(self._run_backend, item)
        except (DeadlineExceededError, TaskTimeoutError) as exc:
            # A timeout says nothing about backend health: the breaker
            # sees neither success nor failure.  A probe stays pending —
            # release it so the next query may probe again.
            if probe:
                self.breaker.record_failure()
            self._m_solves.inc(status="timeout")
            return self._error_response(
                item.fingerprint, exc, status="deadline", code=504
            )
        except ReproError as exc:
            self.breaker.record_failure()
            self._m_solves.inc(status="error")
            _log.warning(
                "service solve failed",
                extra={
                    "fingerprint": item.fingerprint,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return self._error_response(
                item.fingerprint, exc, status="solve-error", code=500
            )
        except Exception as exc:
            self.breaker.record_failure()
            self._m_solves.inc(status="error")
            return self._error_response(
                item.fingerprint,
                ReproError(f"{type(exc).__name__}: {exc}"),
                status="solve-error",
                code=500,
            )
        self.breaker.record_success()
        self._m_solves.inc(status="ok")
        self.cache.put(item.fingerprint, summary)
        return self._ok_response(
            item.fingerprint, summary, item.solver, cached=False
        )

    async def _degraded_answer(self, item: _WorkItem) -> Dict[str, Any]:
        """Breaker-open path: stale cache, then coarse grid, then 503."""
        stale = self.cache.get(item.fingerprint, allow_stale=True)
        if stale is not None:
            self._m_degraded.inc(mode="stale-cache")
            response = self._ok_response(
                item.fingerprint, stale.payload, item.solver, cached=True
            )
            response.update(
                degraded=True,
                degraded_mode="stale-cache",
                stale=True,
                age_s=round(stale.age_s, 3),
            )
            return response
        coarse = min(self.config.coarse_grid, item.spec.grid_nodes)
        if coarse < item.spec.grid_nodes:
            coarse_spec = item.spec.with_(grid_nodes=coarse)
            try:
                summary = await asyncio.to_thread(
                    self.solve_fn, coarse_spec, item.activities, item.deadline
                )
            except Exception as exc:
                _log.warning(
                    "degraded coarse-grid solve failed",
                    extra={
                        "fingerprint": item.fingerprint,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            else:
                self._m_degraded.inc(mode="coarse-grid")
                response = self._ok_response(
                    item.fingerprint, summary, item.solver, cached=False
                )
                response.update(
                    degraded=True,
                    degraded_mode="coarse-grid",
                    coarse_grid=coarse,
                )
                return response
        self._m_degraded.inc(mode="unavailable")
        snapshot = self.breaker.snapshot()
        return self._error_response(
            item.fingerprint,
            CircuitOpenError(
                "solve backend circuit breaker is open and no degraded "
                "answer is available",
                failures=int(snapshot["consecutive_failures"]),
                retry_after_s=snapshot["retry_after_s"],
            ),
            status="unavailable",
            code=503,
        )

    # ------------------------------------------------------------------
    # Response envelopes
    # ------------------------------------------------------------------
    def _ok_response(
        self,
        fingerprint: str,
        payload: Dict[str, Any],
        solver: str,
        cached: bool,
    ) -> Dict[str, Any]:
        return {
            "kind": "result",
            "status": "ok",
            "code": 200,
            "fingerprint": fingerprint,
            "cached": cached,
            "degraded": False,
            "solver": solver,
            "result": payload,
        }

    def _error_response(
        self,
        fingerprint: Optional[str],
        error: ReproError,
        status: Optional[str] = None,
        code: Optional[int] = None,
    ) -> Dict[str, Any]:
        if status is None or code is None:
            status, code = {
                ServiceProtocolError: ("bad-request", 400),
                ServiceOverloadError: ("overloaded", 429),
                DeadlineExceededError: ("deadline", 504),
                CircuitOpenError: ("unavailable", 503),
            }.get(type(error), ("solve-error", 500))
        response: Dict[str, Any] = {
            "kind": "error",
            "status": status,
            "code": code,
            "error_type": type(error).__name__,
            "error": str(error),
        }
        if fingerprint is not None:
            response["fingerprint"] = fingerprint
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            response["retry_after_s"] = round(float(retry_after), 3)
        return response


# ----------------------------------------------------------------------
# Background-thread harness (tests, notebooks, scripts)
# ----------------------------------------------------------------------

@dataclass
class ServiceHandle:
    """A running service on a background thread, with its address."""

    service: ExplorationService
    address: str
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop = field(repr=False, default=None)

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        if self.loop is not None and self.loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self.service.shutdown(drain=drain), self.loop
            )
        self.thread.join(timeout=timeout_s)


def serve_in_background(
    config: Optional[ServiceConfig] = None,
    engine: Any = None,
    solve_fn: Optional[Callable[..., Dict[str, Any]]] = None,
) -> ServiceHandle:
    """Start an :class:`ExplorationService` on its own thread + loop."""
    service = ExplorationService(config=config, engine=engine, solve_fn=solve_fn)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            box["loop"] = asyncio.get_running_loop()
            box["address"] = await service.start()
            started.set()
            await service.serve_forever()

        try:
            asyncio.run(_main())
        except Exception as exc:  # startup failure: unblock the caller
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise ReproError("service did not start within 30s")
    if "error" in box:
        raise box["error"]
    return ServiceHandle(
        service=service,
        address=box["address"],
        thread=thread,
        loop=box["loop"],
    )


# Keep the spec-field tuple honest against PDNSpec's dataclass surface.
assert set(_SPEC_FIELDS) >= {
    f for f in PDNSpec.__dataclass_fields__
}, "spec fields drifted"
assert ARRANGEMENTS  # re-exported validation vocabulary stays imported
