"""Synchronous client for the exploration service wire protocol.

A thin blocking socket client (stdlib only, like the fleet worker's
transport): one JSON object per line out, one per line back.  Used by
``repro query``, the service e2e tests and ``scripts/service_check.py``;
it is also the reference implementation of the protocol documented in
docs/SERVICE.md.

The HA entry point is :func:`robust_query`: it reads every replica the
discovery file names (:func:`discover_addresses`), tries them in order
with the overall deadline sliced across the attempts, retries typed
429/503 sheds honouring the server's ``retry_after_s`` hint, and raises
a one-line :class:`repro.errors.ServiceUnavailableError` naming the
stale ``service.json`` when every address is dead — a SIGKILLed server
never deregisters, so liveness is probed, never assumed.
"""

from __future__ import annotations

import json
import pathlib
import socket
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import (
    ReproError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.obs.logs import get_logger
from repro.obs.trace import get_tracer, new_trace_id
from repro.runtime.fleet import parse_address
from repro.runtime.spec import PDNSpec
from repro.service.admission import Deadline

__all__ = [
    "ServiceClient",
    "connect_any",
    "discover_addresses",
    "robust_query",
]

_log = get_logger(__name__)

#: Statuses worth retrying: the server said "come back later".
_RETRYABLE_CODES = (429, 503)

#: Floor between retries when the server gives no ``retry_after_s``.
_RETRY_FLOOR_S = 0.1

#: Queries whose encoded request line one client remembers; a full
#: memo starts over.
_LINE_MEMO_SIZE = 1024


def discover_addresses(
    cache_dir: Union[str, pathlib.Path]
) -> Tuple[pathlib.Path, List[str]]:
    """All replica addresses from ``service.json``, registration order.

    Understands both the HA layout (a ``replicas`` list) and the pre-HA
    single-server one (top-level ``address``).  Raises a typed
    :class:`ServiceUnavailableError` naming the file when it is missing
    or unreadable.  The addresses are *candidates*: a stale file can
    name dead servers, so callers must probe (see :func:`robust_query`).
    """
    from repro.service.replica import load_discovery

    path, record = load_discovery(cache_dir)
    if record is None:
        raise ServiceUnavailableError(
            f"no service discovery file at {path}; "
            "is a server running with this --cache-dir?",
            path=str(path),
        )
    addresses: List[str] = []
    for replica in record.get("replicas") or []:
        if isinstance(replica, dict) and replica.get("address"):
            addresses.append(str(replica["address"]))
    if not addresses and record.get("address"):
        addresses.append(str(record["address"]))
    if not addresses:
        raise ServiceUnavailableError(
            f"service discovery file {path} names no replica addresses",
            path=str(path),
        )
    return path, addresses


def connect_any(
    addresses: List[str],
    timeout_s: float = 60.0,
    path: Optional[Union[str, pathlib.Path]] = None,
) -> "ServiceClient":
    """Connect to the first reachable address, in order.

    Raises :class:`ServiceUnavailableError` naming the discovery file
    (when given) and the dead addresses if none accepts a connection.
    """
    errors: List[str] = []
    for address in addresses:
        try:
            return ServiceClient(address, timeout_s=timeout_s)
        except OSError as exc:
            errors.append(f"{address}: {exc}")
    raise ServiceUnavailableError(
        "no live service replica among "
        f"{addresses}"
        + (f" (stale discovery file {path}?)" if path else "")
        + f": {'; '.join(errors)}",
        path=str(path) if path else None,
        addresses=addresses,
    )


class ServiceClient:
    """One connection to a running exploration service.

    Context-manager friendly; requests on one client are sequential
    (the server answers a connection's requests in order).  Open one
    client per concurrent in-flight query.
    """

    def __init__(self, address: str, timeout_s: float = 60.0):
        self.address = address
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        # Requests go out through ``sendall``; responses are read
        # through this buffered reader.
        self._file = self._sock.makefile("rb")
        #: (spec, activities) -> (that spec, those activities, line).
        self._lines: Dict[Tuple[PDNSpec, Any], Tuple[Any, Any, bytes]] = {}

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, block for its response object."""
        return self._exchange((json.dumps(message) + "\n").encode("utf-8"))

    def _exchange(self, request: bytes) -> Dict[str, Any]:
        self._sock.sendall(request)
        line = self._file.readline()
        if not line:
            raise ReproError(
                f"service at {self.address} closed the connection "
                "without answering"
            )
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceProtocolError(
                f"unparsable service response: {exc.msg}"
            ) from None
        if not isinstance(response, dict):
            raise ServiceProtocolError(
                f"service response must be an object, got "
                f"{type(response).__name__}"
            )
        return response

    # ------------------------------------------------------------------
    def query(
        self,
        spec: Union[PDNSpec, Dict[str, Any]],
        activities: Optional[List[float]] = None,
        deadline_s: Optional[float] = None,
        request_id: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Submit one design-point query; returns the response envelope.

        The response is returned as-is — including typed error
        envelopes (``kind: "error"`` with ``status``/``code``/
        ``error_type``) — so callers can distinguish a shed from a
        deadline from a degraded answer.

        While tracing is enabled the TCP hop runs inside a
        ``service.client`` span and the request carries a ``trace``
        envelope (``{"id", "parent"}``): the replica anchors its own
        spans under this one, so ``repro trace`` reassembles one tree
        spanning client, replica, and any fleet workers.  A client that
        is not already inside a trace mints a fresh trace id here.

        A plain query (a :class:`PDNSpec`, activities a tuple or None,
        no deadline, id or trace) is encoded once per client; repeating
        it sends the remembered bytes.
        """
        tracer = get_tracer()
        plain = (
            type(spec) is PDNSpec
            and type(activities) in (tuple, type(None))
            and deadline_s is None and request_id is None
            and not tracer.enabled
        )
        # Remembered by identity: equal values (0, 0.0) encode apart.
        known = self._lines.get((spec, activities)) if plain else None
        if known is not None and known[0] is spec and known[1] is activities:
            return self._exchange(known[2])
        message: Dict[str, Any] = {
            "kind": "query",
            "spec": spec.to_dict() if isinstance(spec, PDNSpec) else spec,
        }
        if activities is not None:
            message["activities"] = list(activities)
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        if request_id is not None:
            message["id"] = request_id
        if not tracer.enabled:
            request = (json.dumps(message) + "\n").encode("utf-8")
            if plain:
                if len(self._lines) >= _LINE_MEMO_SIZE:
                    self._lines.clear()
                self._lines[spec, activities] = (spec, activities, request)
            return self._exchange(request)
        trace_id = tracer.current_trace_id() or new_trace_id()
        if tracer.trace_id is None:
            # Name this process's trace after the minted id so the CLI's
            # exit-time flush lands in trace-<id>.jsonl, not trace-cli.
            tracer.set_trace_id(trace_id)
        with tracer.span(
            "service.client", address=self.address, transport="tcp"
        ) as hop:
            hop.trace_id = hop.trace_id or trace_id
            message["trace"] = {"id": trace_id, "parent": hop.span_id}
            response = self.request(message)
            hop.set(
                status=response.get("status"),
                code=response.get("code"),
                cached=response.get("cached", False),
            )
        return response

    def health(self) -> Dict[str, Any]:
        return self.request({"kind": "health"})

    def ready(self) -> Dict[str, Any]:
        return self.request({"kind": "ready"})

    def metrics(self) -> Dict[str, Any]:
        return self.request({"kind": "metrics"})

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self.request({"kind": "shutdown", "drain": drain})


# ----------------------------------------------------------------------
# HA query path: failover across replicas + shed-aware retries
# ----------------------------------------------------------------------

def _attempt_timeout(
    deadline: Deadline, addresses_left: int, client_timeout_s: float
) -> Optional[float]:
    """Slice the remaining deadline across the addresses still untried.

    With no overall deadline the per-attempt cap is the client timeout;
    with one, each attempt gets an equal share of what is left so one
    black-holed replica cannot eat the entire budget.
    """
    remaining = deadline.remaining_s()
    if remaining is None:
        return client_timeout_s
    slice_s = remaining / max(1, addresses_left)
    return max(0.05, min(client_timeout_s, slice_s))


def robust_query(
    spec: Union[PDNSpec, Dict[str, Any]],
    addresses: Optional[List[str]] = None,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    activities: Optional[List[float]] = None,
    deadline_s: Optional[float] = None,
    retries: int = 0,
    client_timeout_s: float = 120.0,
    request_id: Optional[Any] = None,
    discovery_path: Optional[Union[str, pathlib.Path]] = None,
) -> Dict[str, Any]:
    """Query with replica failover and bounded, hint-honouring retries.

    Addresses come from ``addresses`` (explicit, e.g. ``--connect``) or
    the ``cache_dir`` discovery file; callers that already discovered
    pass ``discovery_path`` so exhaustion errors still name the stale
    file.  Each round walks the replicas in
    order; a transport failure moves to the next address, and a typed
    429/503 envelope consumes one of ``retries`` with a backoff of
    ``max(retry_after_s, 0.1s)`` — clamped so the sleep never outlives
    ``deadline_s``.  The final envelope (success *or* typed error) is
    returned for the caller to render; only transport-level exhaustion
    raises, as :class:`ServiceUnavailableError`.
    """
    path: Optional[pathlib.Path] = (
        pathlib.Path(discovery_path) if discovery_path else None
    )
    if addresses is None:
        if cache_dir is None:
            raise ServiceUnavailableError(
                "robust_query needs addresses or a cache_dir to discover"
            )
        path, addresses = discover_addresses(cache_dir)
    if not addresses:
        raise ServiceUnavailableError(
            "no service addresses to query",
            path=str(path) if path else None,
        )
    deadline = Deadline.after(deadline_s)
    retries_left = max(0, int(retries))
    response: Optional[Dict[str, Any]] = None
    while True:
        dead: List[str] = []
        response = None
        for position, address in enumerate(addresses):
            timeout = _attempt_timeout(
                deadline, len(addresses) - position, client_timeout_s
            )
            try:
                with ServiceClient(address, timeout_s=timeout) as client:
                    response = client.query(
                        spec,
                        activities=activities,
                        deadline_s=deadline.remaining_s(),
                        request_id=request_id,
                    )
            except (OSError, ReproError) as exc:
                # Dead or mid-answer-dying replica: fail over.  Typed
                # protocol errors are *not* transport trouble and
                # propagate (retrying a malformed exchange is hopeless).
                if isinstance(exc, ServiceProtocolError):
                    raise
                dead.append(f"{address}: {exc}")
                _log.warning(
                    "service replica unreachable; failing over",
                    extra={"address": address, "error": str(exc)},
                )
                continue
            break
        if response is None:
            raise ServiceUnavailableError(
                f"no live service replica among {addresses}"
                + (f" (stale discovery file {path}?)" if path else "")
                + f": {'; '.join(dead)}",
                path=str(path) if path else None,
                addresses=addresses,
            )
        code = response.get("code")
        if code not in _RETRYABLE_CODES or retries_left <= 0:
            return response
        retries_left -= 1
        hint = response.get("retry_after_s")
        backoff = max(_RETRY_FLOOR_S, float(hint or 0.0))
        remaining = deadline.remaining_s()
        if remaining is not None:
            if remaining <= _RETRY_FLOOR_S:
                return response  # no budget left: surface the shed
            backoff = min(backoff, remaining)
        _log.info(
            "service shed the query; backing off",
            extra={
                "code": code,
                "backoff_s": round(backoff, 3),
                "retries_left": retries_left,
            },
        )
        time.sleep(backoff)
