"""repro.service — the resilient exploration front-end.

A small serving stack that turns the sweep machinery into
design-exploration-as-a-service: an asyncio newline-JSON TCP server
(:mod:`~repro.service.server`) answering PDNSpec queries from a
persistent fingerprint-keyed cache (:mod:`~repro.service.cache`),
with bounded admission + per-request deadlines
(:mod:`~repro.service.admission`), circuit-breaker degradation
(:mod:`~repro.service.breaker`), code-version cache coherence
(:mod:`~repro.service.epoch`) and multi-replica operation over one
shared cache directory (:mod:`~repro.service.replica`).
``repro serve`` / ``repro query`` / ``repro cache`` are the CLI entry
points; docs/SERVICE.md documents the protocol and the HA semantics.
"""

from repro.service.admission import AdmissionQueue, Deadline
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.cache import (
    CACHE_SCHEMA,
    CacheEntry,
    ResultCache,
    query_fingerprint,
)
from repro.service.client import (
    ServiceClient,
    connect_any,
    discover_addresses,
    robust_query,
)
from repro.service.epoch import EPOCH_ENV, code_epoch, compute_epoch
from repro.service.replica import (
    FlightClaim,
    ReplicaFlights,
    deregister_replica,
    live_replicas,
    register_replica,
)
from repro.service.server import (
    SERVICE_FILE,
    SERVICE_PROTOCOL,
    ExplorationService,
    QueryExecutor,
    ServiceConfig,
    ServiceHandle,
    extract_summary,
    serve_in_background,
    spec_from_payload,
)

__all__ = [
    "AdmissionQueue",
    "Deadline",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "CACHE_SCHEMA",
    "CacheEntry",
    "ResultCache",
    "query_fingerprint",
    "ServiceClient",
    "connect_any",
    "discover_addresses",
    "robust_query",
    "EPOCH_ENV",
    "code_epoch",
    "compute_epoch",
    "FlightClaim",
    "ReplicaFlights",
    "register_replica",
    "deregister_replica",
    "live_replicas",
    "SERVICE_FILE",
    "SERVICE_PROTOCOL",
    "ExplorationService",
    "QueryExecutor",
    "ServiceConfig",
    "ServiceHandle",
    "extract_summary",
    "serve_in_background",
    "spec_from_payload",
]
